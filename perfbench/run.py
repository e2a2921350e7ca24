"""Repository benchmark: warm per-query latency of fixed query mixes.

    python3 perfbench/run.py --workload dfs --seed 0 --seconds 30 --trace 0

Each query is one ``repro.harness.run_cell`` call on a Spark ``local[nproc]``
session, issued in a closed loop by one client: the next query starts when
the previous one returned. Graphs are built, and Spark and its Python
workers are warm, before the clock starts. The run makes as many whole
passes over the mix as ``--seconds`` holds at the mix's nominal pass time,
and at least one.

Every outcome is checked: against ``expected_seed0.json`` for the default
seed, otherwise against outcomes computed before timing by ``expect.py``.
A query also fails if it leaves a Spark job or watchdog thread behind.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` traces every
pass and reports per-layer metrics (see ``spans.py``); its ``trace.mix_s``
minus the untraced ``mix_s`` is the tracing overhead. Spans are written
to ``.perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("dfs", "catalyst")

#: Session settings of the test suite's ``spark`` fixture (conftest.py).
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}
DRIVER_MEMORY = "4g"
#: Metrics of the final JSON line of an untraced run. failed_frac is 0
#: when all is well (the line carries ``failed`` instead); the worker peak
#: is 0 on a mix without Python UDFs, and the JVM peak moves with garbage
#: collection timing; both are per-layer metrics of the traced run.
END_TO_END = ("setup_s", "query_s_p50", "query_s_tail", "mix_s", "driver_rss_peak_mib")


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def configure_env(tmp: Path) -> str:
    """Point Python, Spark and the JVM at the checkout. Returns the master."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    master = f"local[{len(os.sched_getaffinity(0))}]"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.sql.warehouse.dir={tmp / 'warehouse'} "
        "pyspark-shell"
    )
    return master


# -- processes and memory ----------------------------------------------

def _descendants() -> dict[int, bytes]:
    """pid -> cmdline of every live descendant of this process."""
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(d))
    out, todo = {}, [os.getpid()]
    while todo:
        for c in children.get(todo.pop(), []):
            try:
                with open(f"/proc/{c}/cmdline", "rb") as f:
                    out[c] = f.read()
            except OSError:
                continue
            todo.append(c)
    return out


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its parent."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def hwm_mib(pid: int | str) -> float:
    """Peak resident set size (VmHWM) of a process, MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


class Workers:
    """Tracks Spark's Python worker processes and the JVM, with their peak
    RSS. No worker starts when a mix runs no Python UDF."""

    def __init__(self):
        self.pids: set[int] = set()
        self.peak_mib = 0.0
        self.jvm_peak_mib = 0.0

    def poll(self) -> None:
        for pid, cmd in _descendants().items():
            if b"pyspark.daemon" in cmd:
                self.pids.add(pid)
                self.peak_mib = max(self.peak_mib, hwm_mib(pid))
            elif b"org.apache.spark.deploy.SparkSubmit" in cmd:
                self.jvm_peak_mib = max(self.jvm_peak_mib, hwm_mib(pid))

    def reset_peaks(self) -> None:
        """Restart peak-RSS accounting of this process (the Spark driver),
        the JVM and the workers, so that peaks cover the timed passes only."""
        for pid in ["self", *_descendants()]:
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as f:
                    f.write("5")
            except OSError:
                continue

    def reap(self, timeout_s: float = 20.0) -> None:
        """Wait for every worker seen to exit; kill the ones that do not,
        and wait for those as long again."""
        for kill in (False, True):
            deadline = time.monotonic() + timeout_s
            while alive := [p for p in self.pids if _running(p)]:
                if time.monotonic() > deadline:
                    break
                time.sleep(0.1)
            if not alive:
                return
            if kill:
                print(f"perfbench: workers {alive} did not exit", file=sys.stderr)
                return
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass


# -- outcomes -----------------------------------------------------------

def expected_outcomes(workload: str, seed: int, generated: dict, tmp: Path) -> dict[str, list]:
    """label -> [status, value] for every query of the mix. ``generated``
    maps each non-FSM graph to its generated (edges, labels)."""
    import numpy as np

    import mixes

    if seed == mixes.DEFAULT_SEED:
        with open(HERE / "expected_seed0.json") as f:
            stored = json.load(f)
        return {q.label: stored[q.label] for q in mixes.MIXES[workload]}
    # A child process, so that the oracle's memory does not show in this
    # process's peak RSS; it reads the edge lists instead of generating them.
    edges = tmp / "edges.npz"
    np.savez(edges, **{g: e for g, (e, _) in generated.items()})
    out = subprocess.run(
        [sys.executable, str(HERE / "expect.py"), workload, str(seed), str(edges)],
        check=True, capture_output=True, text=True,
    )
    edges.unlink()
    return json.loads(out.stdout)


# -- the closed loop ------------------------------------------------------

class Loop:
    def __init__(self, spark, mix, expected, workers):
        from pyspark import InheritableThread

        self.spark = spark
        self.sc = spark.sparkContext
        self.mix = mix
        self.expected = expected
        self.workers = workers
        self.thread_type = InheritableThread
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def leftovers(self) -> list[str]:
        """Spark jobs or watchdog threads still alive between queries."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        out = [f"active Spark job {j}" for j in self.sc.statusTracker().getActiveJobsIds()]
        out += [
            f"live thread {t.name}"
            for t in threading.enumerate()
            if isinstance(t, self.thread_type) and t.is_alive()
        ]
        return out

    def settle(self) -> None:
        self.sc.cancelAllJobs()
        for t in threading.enumerate():
            if isinstance(t, self.thread_type):
                t.join(30.0)

    def query(self, q, tracer=None) -> None:
        import expect
        from repro import harness
        from repro.systems import SYSTEMS

        if tracer is not None:
            dfs = SYSTEMS[q.system].kind == "dfs" and q.workload[0] != "fsm"
            tracer.begin(q.label, q.group, dfs)
        t0 = time.perf_counter()
        try:
            r = harness.run_cell(self.spark, q.system, q.workload, q.graph)
            got = [r.status, expect.normalise(r.value) if r.status == "ok" else None]
        except Exception as e:  # noqa: BLE001 - a failed query is a result
            got = ["error", repr(e)]
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        self.attempted += 1
        self.latencies.append(dt)
        self.by_label.setdefault(q.label, []).append(dt)
        problems = self.leftovers()
        if problems:
            self.settle()
        want = self.expected[q.label]
        if got != want or problems:
            self.failures.append(f"{q.label}: got {got}, want {want}; {problems}")

    def run_pass(self, tracer=None) -> float:
        t0 = time.perf_counter()
        for q in self.mix:
            self.query(q, tracer)
        self.workers.poll()
        return time.perf_counter() - t0


def tail(xs: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest integer percentile with at least
    ten samples beyond it. With ten samples or fewer no percentile has, and
    the maximum (percentile 100) is reported instead."""
    n = len(xs)
    if n <= 10:
        return max(xs), 100
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)  # nearest rank: ceil(pct * n / 100)
    return sorted(xs)[rank - 1], pct


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "repro").rglob("*.py"))


def emit(metrics: dict, units: dict, loop: Loop) -> None:
    failed = len(loop.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def start_spark():
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in SESSION_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark, workers: Workers) -> None:
    """Stop Spark, then wait for the JVM and every Python worker to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()  # the JVM exits at end of input
            try:
                proc.wait(60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    workers.reap()


def build_graphs(generated: dict) -> float:
    """Build the CSR of every graph ``run_cell`` takes from ``get_csr``, from
    the already generated arrays. Returns the build time."""
    from repro import harness
    from repro.graph import gen

    real = gen.generate_graph
    gen.generate_graph = generated.__getitem__
    t0 = time.perf_counter()
    try:
        for g in generated:
            harness.get_csr(g)
    finally:
        gen.generate_graph = real
    return time.perf_counter() - t0


def measure(args, loop: Loop, nominal_pass_s: float):
    """Closed loop over whole passes. The pass count follows from
    ``--seconds`` and the mix's nominal pass time, so it does not change
    when the program gets faster or slower. Returns the pass times, the
    per-pass layer metrics (traced runs only) and the tracer."""
    n_passes = max(1, int(args.seconds // nominal_pass_s))
    if not args.trace:
        return [loop.run_pass() for _ in range(n_passes)], [], None
    import spans

    tracer = spans.Tracer(loop.spark)
    passes, layers = [], []
    tracer.install()
    try:
        for _ in range(n_passes):
            first = len(tracer.queries)
            passes.append(loop.run_pass(tracer))
            per_query = [(q.group, spans.query_layers(q, tracer.epoch_offset))
                         for q in tracer.queries[first:]]
            groups = {"all": [d for _, d in per_query]}
            for g, d in per_query:
                groups.setdefault(g, []).append(d)
            layers.append({g: spans.mix_layers(ds) for g, ds in groups.items()})
    finally:
        tracer.uninstall()
    return passes, layers, tracer


def main() -> int:
    args = parse_args()
    # Let the cleanup below run when the caller terminates the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    tmp = WORK / f"tmp-{os.getpid()}"
    master = configure_env(tmp)
    sys.path.insert(0, str(HERE))
    spark = None
    workers = Workers()
    try:
        import mixes
        from repro import harness
        from repro.graph import gen

        mixes.apply_seed(args.seed)
        mix = mixes.MIXES[args.workload]

        t0 = time.perf_counter()
        generated = {
            g: gen.generate_graph(g)
            for g in dict.fromkeys(q.graph for q in mix if q.workload[0] != "fsm")
        }
        generate_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        expected = expected_outcomes(args.workload, args.seed, generated, tmp)
        oracle_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        spark = start_spark()
        session_s = time.perf_counter() - t0
        build_s = build_graphs(generated)
        del generated

        loop = Loop(spark, mix, expected, workers)
        t0 = time.perf_counter()
        for q in mixes.warmup_queries(mix):
            harness.run_cell(spark, q.system, q.workload, q.graph)
        if loop.leftovers():
            loop.settle()
        warmup_s = time.perf_counter() - t0
        setup_s = time.perf_counter() - T_PROCESS - oracle_s
        workers.reset_peaks()

        t0 = time.perf_counter()
        passes, layer_passes, tracer = measure(args, loop, mixes.NOMINAL_PASS_S[args.workload])
        measure_s = time.perf_counter() - t0
        workers.poll()

        lat = loop.latencies
        tail_v, tail_pct = tail(lat)
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "nproc": len(os.sched_getaffinity(0)),
            "spark_master": master,
            "driver_memory": DRIVER_MEMORY,
            "session_conf": SESSION_CONF,
            "console_progress": False,
            "pyspark": spark.version,
            "src_lines": src_lines(),
            "passes": len(passes),
            "traced": bool(args.trace),
            "queries_per_pass": len(mix),
            "measure_s": round(measure_s, 3),
            "oracle_s": round(oracle_s, 3),
        }
        print("context " + json.dumps(context))
        for label, xs in loop.by_label.items():
            print(f"query {label} {statistics.median(xs):.4f} s (n={len(xs)})")
        for f in loop.failures:
            print(f"FAILED {f}")
        n = len(lat)
        lines = [
            ("setup_s", setup_s, "s", f"session {session_s:.3f} s, generate {generate_s:.3f} s, "
                                      f"CSR {build_s:.3f} s, warm-up {warmup_s:.3f} s"),
            ("query_s_p50", statistics.median(lat), "s", f"n={n}"),
            ("query_s_tail", tail_v, "s", f"p{tail_pct}, n={n}"),
            ("mix_s", statistics.median(passes), "s", f"median of {len(passes)} passes"),
            ("failed_frac", len(loop.failures) / loop.attempted, "1",
             f"{len(loop.failures)} of {loop.attempted}"),
            ("worker_rss_peak_mib", workers.peak_mib, "MiB", f"{len(workers.pids)} worker processes"),
            ("driver_rss_peak_mib", hwm_mib("self"), "MiB", "VmHWM of the Spark driver"),
            ("jvm_rss_peak_mib", workers.jvm_peak_mib, "MiB", "VmHWM of the Spark JVM"),
        ]
        for name, v, unit, note in lines:
            print(f"{name} {v:.6g} {unit} ({note})")

        if tracer is None:
            keep = [x for x in lines if x[0] in END_TO_END]
            emit({k: v for k, v, _, _ in keep}, {k: u for k, _, u, _ in keep}, loop)
            return 0

        import spans

        by_group = {
            g: {k: statistics.median(p[g][k] for p in layer_passes) for k in layer_passes[0][g]}
            for g in layer_passes[0]
        }
        layers = by_group.pop("all")
        layers.update({
            "trace.mix_s": statistics.median(passes),
            "spark.session_s": session_s,
            "graph.gen.generate_s": generate_s,
            "graph.csr.build_s": build_s,
            "spark.worker_rss_peak_mib": workers.peak_mib,
            "spark.jvm_rss_peak_mib": workers.jvm_peak_mib,
        })
        ooms = sorted({f"{q.label}: {q.oom_what}" for q in tracer.queries if q.oom_what})
        print(f"OoM structures: {ooms}")
        groups = list(by_group) if len(by_group) > 1 else []
        print("layer " + " ".join(["name", "value", "unit", *groups]))
        for k, v in layers.items():
            split = [f"{by_group[g][k]:.6g}" for g in groups if k in by_group[g]]
            print(f"layer {k} {v:.6g} {spans.unit(k)} {' '.join(split)}".rstrip())
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        emit({k: layers[k] for k in spans.REPORTED}, {k: spans.unit(k) for k in spans.REPORTED}, loop)
        return 0
    finally:
        if spark is not None:
            stop_spark(spark, workers)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
