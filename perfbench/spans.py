"""Tracing from outside the program: spans around public calls, plus the
per-stage and per-task times Spark's status store keeps.

``Tracer.install`` wraps each layer's public functions in place (module
attributes and class methods, including names other modules imported
directly) and ``Tracer.uninstall`` restores them, so one process can run
traced and untraced passes. Spans stay in memory until ``write``.

Stages are attributed to a query by job-id range: ``run_cell`` sets its
own job group, so group names cannot be used.
"""
from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field

from repro import harness, memory
from repro.core import codegen, counting, engine_bfs, engine_dfs, fsm, motifs
from repro.graph import csr, gen

#: (owner, attribute, span name). The owner is a module or class; names
#: imported by ``from x import y`` are patched where the caller looks them up.
TARGETS = [
    (harness, "run_cell", "harness.run_cell"),
    (harness, "run_with_timeout", "harness.run_with_timeout"),
    (harness, "count_motifs", "core.motifs.count_motifs"),
    (engine_dfs.DFSEngine, "count", "core.engine_dfs.count"),
    (engine_bfs.BFSEngine, "count", "core.engine_bfs.count"),
    (fsm, "fsm3", "core.fsm.fsm3"),
    (counting, "diamond_counting_only", "core.counting.diamond_counting_only"),
    (counting, "count3_counting_only", "core.counting.count3_counting_only"),
    (counting, "count4_counting_only", "core.counting.count4_counting_only"),
    (counting, "edge_triangle_stats", "core.counting.stats_sweep"),
    (csr.CSRGraph, "orient", "graph.csr.orient"),
    (csr.CSRGraph, "edge_tasks", "graph.csr.edge_tasks"),
    (engine_dfs, "build_plan", "core.plan.build_plan"),
    (engine_bfs, "build_plan", "core.plan.build_plan"),
    (engine_dfs, "chunked_round_robin_order", "sched.policies.order"),
    (codegen, "kernel_source", "core.codegen.kernel_source"),
    (gen, "generate_graph", "graph.gen.generate_graph"),
    (motifs, "motifs", "core.motifs.motifs"),
]

#: Spans that are one system's whole engine call inside ``run_cell``.
SYSTEM_SPANS = {
    "core.engine_dfs.count",
    "core.engine_bfs.count",
    "core.motifs.count_motifs",
    "core.fsm.fsm3",
    "core.counting.diamond_counting_only",
    "core.counting.count3_counting_only",
    "core.counting.count4_counting_only",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    query: int


@dataclass
class Stage:
    job: int
    stage: int
    start: float  # epoch seconds
    end: float
    busy_s: float  # summed executor run time of its tasks
    tasks: list[float]  # per-task executor run time, seconds
    shuffle_write_bytes: int
    kernel: bool  # runs a mapInPandas (Python DFS kernel) operator


@dataclass
class QueryTrace:
    query: int
    label: str
    group: str
    dfs: bool  # one of the DFS-engine systems, so it has a kernel stage
    spans: list[Span] = field(default_factory=list)
    stages: list[Stage] = field(default_factory=list)
    jobs: int = 0
    touches: int = 0
    patterns: int = 0
    ledger_peak: int = 0
    oom_what: str = ""


class Tracer:
    """Span recorder. Not re-entrant across queries: one query at a time."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.store = self.sc._jsc.sc().statusStore()
        self.queries: list[QueryTrace] = []
        self._originals: list[tuple] = []
        # One stack for all threads: run_cell's watchdog thread runs the
        # cell body while the calling thread waits in join().
        self._stack: list[int] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._query: QueryTrace | None = None
        self._first_job = 0
        # Span clocks are perf_counter; stages are wall-clock epoch ms.
        self.epoch_offset = time.time() - time.perf_counter()

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            orig = owner.__dict__[attr]
            self._originals.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        self._originals.append((memory.MemoryMeter, "alloc", memory.MemoryMeter.alloc))
        memory.MemoryMeter.alloc = self._wrap_alloc(memory.MemoryMeter.alloc)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            q = tracer._query
            if q is None:
                return fn(*args, **kwargs)
            if name == "harness.run_with_timeout":
                args = (args[0], tracer._wrap(args[1], "harness.cell_body"), *args[2:])
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
                parent = tracer._stack[-1] if tracer._stack else None
                tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                with tracer._lock:
                    tracer._stack.remove(sid)
                q.spans.append(Span(sid, name, t0, time.perf_counter(), parent, q.query))
            if name == "core.engine_dfs.count":
                q.touches += args[0].last_ops
            elif name == "core.motifs.motifs":
                q.patterns += len(out)
            return out

        return traced

    def _wrap_alloc(self, fn):
        tracer = self

        def alloc(meter, what, nbytes):
            q = tracer._query
            try:
                fn(meter, what, nbytes)
            except memory.OutOfMemoryError as e:
                if q is not None:
                    q.oom_what = e.what
                raise
            finally:
                if q is not None:
                    q.ledger_peak = max(q.ledger_peak, meter.peak)

        return alloc

    # -- per-query bracketing -------------------------------------------

    def begin(self, label: str, group: str, dfs: bool) -> None:
        self._first_job = self._max_job() + 1
        self._query = QueryTrace(len(self.queries), label, group, dfs)
        self.queries.append(self._query)

    def end(self) -> QueryTrace:
        q, self._query = self._query, None
        new = range(self._first_job, self._max_job() + 1)
        q.jobs = len(new)
        for j in new:
            q.stages.extend(self._stages(j))
        return q

    def _max_job(self) -> int:
        # The status store is fed asynchronously by the listener bus.
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        jobs = self.store.jobsList(None)  # newest first
        return jobs.apply(0).jobId() if jobs.size() else -1

    def _stages(self, job_id: int) -> list[Stage]:
        job = self.store.job(job_id)
        sids = job.stageIds()
        out = []
        for i in range(sids.size()):
            st = self.store.lastStageAttempt(sids.apply(i))
            if str(st.status()) != "COMPLETE":
                continue  # skipped: its output was reused from an earlier job
            tl = self.store.taskList(st.stageId(), st.attemptId(), 1 << 20)
            tasks = [tl.apply(k).taskMetrics().get().executorRunTime() / 1e3 for k in range(tl.size())]
            out.append(
                Stage(
                    job=job_id,
                    stage=st.stageId(),
                    start=st.submissionTime().get().getTime() / 1e3,
                    end=st.completionTime().get().getTime() / 1e3,
                    busy_s=st.executorRunTime() / 1e3,
                    tasks=tasks,
                    shuffle_write_bytes=int(st.shuffleWriteBytes()),
                    kernel=self._is_kernel(st.stageId()),
                )
            )
        return out

    def _is_kernel(self, stage_id: int) -> bool:
        todo = [self.store.operationGraphForStage(stage_id).rootCluster()]
        while todo:
            cl = todo.pop()
            if cl.name() == "MapInPandas":
                return True
            kids = cl.childClusters()
            todo.extend(kids.apply(i) for i in range(kids.size()))
        return False

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {"epoch_offset": self.epoch_offset, "queries": [asdict(q) for q in self.queries]},
                f,
            )


# -- layer metrics ------------------------------------------------------

def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _span_s(q: QueryTrace, name: str) -> float:
    return sum(s.end - s.start for s in q.spans if s.name == name)


def query_layers(q: QueryTrace, epoch_offset: float) -> dict[str, float]:
    """Per-layer values of one traced query."""
    root = next(s for s in q.spans if s.name == "harness.run_cell")
    by_id = {s.id: s for s in q.spans}

    def outermost_system(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name in SYSTEM_SPANS:
                return False
            p = by_id[p].parent
        return s.name in SYSTEM_SPANS

    system_s = sum(s.end - s.start for s in q.spans if outermost_system(s))
    rwt = sum(s.end - s.start for s in q.spans if s.parent == root.id)
    wall = root.end - root.start
    lo, hi = root.start + epoch_offset, root.end + epoch_offset

    def clip(st: Stage) -> tuple[float, float]:
        return max(st.start, lo), min(max(st.end, lo), hi)

    stages = q.stages
    kern = [st for st in stages if st.kernel]
    all_wall = _union([clip(st) for st in stages])
    kern_wall = _union([clip(st) for st in kern])
    engine_spans = [s for s in q.spans if s.name == "core.engine_dfs.count"]
    engine_busy = sum(
        st.busy_s
        for st in kern
        if any(s.start + epoch_offset <= st.start <= s.end + epoch_offset for s in engine_spans)
    )
    part_max = sum(max(st.tasks, default=0.0) for st in kern)
    part_mean = sum(sum(st.tasks) / len(st.tasks) for st in kern if st.tasks)
    out = {
        "query_wall_s": wall,
        "harness.overhead_s": wall - system_s,
        "harness.run_cell_self_s": wall - rwt,
        "core.engine_dfs.calls": len(engine_spans),
        "core.setops.touches": q.touches,
        "core.engine_dfs.engine_kernel_busy_s": engine_busy,
        "core.motifs.patterns": q.patterns,
        "graph.csr.orient_calls": sum(s.name == "graph.csr.orient" for s in q.spans),
        "graph.csr.edge_tasks_calls": sum(s.name == "graph.csr.edge_tasks" for s in q.spans),
        "graph.csr.orient_s": _span_s(q, "graph.csr.orient"),
        "graph.csr.edge_tasks_s": _span_s(q, "graph.csr.edge_tasks"),
        "sched.policies.order_s": _span_s(q, "sched.policies.order"),
        "core.plan.build_plan_s": _span_s(q, "core.plan.build_plan"),
        "core.codegen.kernel_source_s": _span_s(q, "core.codegen.kernel_source"),
        "core.counting.stats_sweep_s": _span_s(q, "core.counting.stats_sweep"),
        "core.engine_bfs.count_s": _span_s(q, "core.engine_bfs.count"),
        "core.fsm.fsm3_s": _span_s(q, "core.fsm.fsm3"),
        "graph.gen.in_query_s": _span_s(q, "graph.gen.generate_graph"),
        "memory.ledger_peak_bytes": q.ledger_peak,
        "spark.jobs": q.jobs,
        "spark.stages": len(stages),
        "spark.tasks": sum(len(st.tasks) for st in stages),
        "spark.shuffle_write_bytes": sum(st.shuffle_write_bytes for st in stages),
        "spark.stage_busy_s": sum(st.busy_s for st in stages),
        "spark.stage_wall_s": all_wall,
        "spark.out_of_stage_s": wall - all_wall,
        "sched.partition_busy_max_s": part_max,
        "sched.partition_busy_mean_s": part_mean,
        "core.engine_dfs.kernel_busy_s": 0.0,
        "core.engine_dfs.kernel_wall_s": 0.0,
        "core.engine_dfs.aggregate_wall_s": 0.0,
        "core.engine_dfs.submit_s": 0.0,
        "core.engine_dfs.query_wall_s": 0.0,
    }
    if q.dfs:
        out.update({
            "core.engine_dfs.kernel_busy_s": sum(st.busy_s for st in kern),
            "core.engine_dfs.kernel_wall_s": kern_wall,
            "core.engine_dfs.aggregate_wall_s": all_wall - kern_wall,
            "core.engine_dfs.submit_s": wall - all_wall,
            "core.engine_dfs.query_wall_s": wall,
        })
    return out


#: How a mix-level value combines its queries' values.
MAXED = {"memory.ledger_peak_bytes"}


def mix_layers(per_query: list[dict[str, float]]) -> dict[str, float]:
    """Combine one pass's per-query layers: sums, maxima, then ratios."""
    out = {}
    for k in per_query[0]:
        vals = [d[k] for d in per_query]
        out[k] = max(vals) if k in MAXED else sum(vals)
    busy = out.pop("core.engine_dfs.engine_kernel_busy_s")
    out["core.setops.touches_per_busy_s"] = out["core.setops.touches"] / busy if busy else 0.0
    mean = out.pop("sched.partition_busy_mean_s")
    out["sched.partition_skew"] = out["sched.partition_busy_max_s"] / mean if mean else 0.0
    return out


#: Per-layer metrics of the final JSON line. The traced run prints every
#: layer; this list keeps the counts and ratios, plus the times that are
#: non-zero on every workload (a layer a mix never enters reads exactly 0).
REPORTED = [
    "spark.jobs",
    "spark.stages",
    "spark.tasks",
    "spark.shuffle_write_bytes",
    "spark.stage_busy_s",
    "spark.stage_wall_s",
    "spark.out_of_stage_s",
    "core.engine_dfs.calls",
    "core.motifs.patterns",
    "core.setops.touches",
    "core.setops.touches_per_busy_s",
    "sched.partition_skew",
    "graph.csr.orient_calls",
    "graph.csr.edge_tasks_calls",
    "graph.csr.orient_s",
    "graph.csr.edge_tasks_s",
    "core.plan.build_plan_s",
    "memory.ledger_peak_bytes",
    "harness.overhead_s",
    "harness.run_cell_self_s",
    "trace.mix_s",
    "spark.session_s",
    "graph.gen.generate_s",
    "graph.csr.build_s",
    "spark.worker_rss_peak_mib",
    "spark.jvm_rss_peak_mib",
]


def unit(name: str) -> str:
    if name.endswith("_per_busy_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_skew"):
        return "ratio"
    return "count"
