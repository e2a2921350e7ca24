"""DFS engine tests on Spark: every configuration path must produce counts
equal to the independently generated SQL executed by DuckDB (via
``repro.oracle.assert_equivalent``)."""
import time

import numpy as np
import pytest

from repro import memory as memmod
from repro.core import codegen
from repro.core.engine_dfs import DFSConfig, DFSEngine, _local_clique_count, oriented_clique_plan
from repro.core.pattern import clique, cycle, diamond, motifs, path
from repro.core.plan import build_plan
from repro.core.setops import SegmentedSetOps
from repro.graph.csr import build_csr
from repro.graph.gen import adj_pdf, generate_graph
from repro.oracle import assert_equivalent
from repro.systems import g2miner, graphzero
from repro.timeout import TimeoutError_, run_with_timeout

BIG = 1 << 40


@pytest.fixture(scope="module")
def g():
    e, _ = generate_graph("tiny_skew")
    return build_csr(e)


@pytest.fixture(scope="module")
def adj():
    return adj_pdf("tiny_skew")


def check(spark, g, adj, engine, pattern, induced=False):
    df = engine.count_df(spark, g, pattern, induced=induced)
    sql = codegen.pattern_sql(build_plan(pattern, induced=induced))
    assert_equivalent(df, sql, adj=adj)


EI = [(clique(3), False), (clique(4), False), (clique(5), False),
      (diamond(), False), (cycle(4), False), (path(4), False)]
VI = [(p, True) for p in motifs(3) + motifs(4)]


@pytest.mark.parametrize("p,induced", EI + VI,
                         ids=[f"{p.name}-{'vi' if i else 'ei'}" for p, i in EI + VI])
def test_default_engine_matches_oracle(spark, g, adj, p, induced):
    check(spark, g, adj, DFSEngine(DFSConfig()), p, induced)


@pytest.mark.parametrize("p", [clique(3), clique(4), diamond()], ids=lambda p: p.name)
def test_vertex_parallel_matches_oracle(spark, g, adj, p):
    eng = DFSEngine(DFSConfig(parallelism="vertex"))
    check(spark, g, adj, eng, p)


@pytest.mark.parametrize("p", [clique(3), diamond()], ids=lambda p: p.name)
def test_python_backend_matches_oracle(spark, g, adj, p):
    eng = DFSEngine(
        DFSConfig(parallelism="vertex", setops="python", orientation=False,
                  lgs=False)
    )
    check(spark, g, adj, eng, p)


@pytest.mark.parametrize("k", [4, 5])
def test_lgs_equals_plain(spark, g, k):
    on = DFSEngine(DFSConfig(lgs=True))
    off = DFSEngine(DFSConfig(lgs=False))
    assert on.count(spark, g, clique(k)) == off.count(spark, g, clique(k))


def test_lgs_delta_threshold_falls_back(spark, g, adj):
    eng = DFSEngine(DFSConfig(lgs=True, lgs_delta_threshold=1))
    check(spark, g, adj, eng, clique(4))


def test_orientation_off_matches(spark, g, adj):
    eng = DFSEngine(DFSConfig(orientation=False, lgs=False))
    check(spark, g, adj, eng, clique(4))


def test_no_edgelist_reduction_matches(spark, g, adj):
    eng = DFSEngine(
        DFSConfig(orientation=False, lgs=False, edgelist_reduction=False)
    )
    check(spark, g, adj, eng, diamond())


def test_no_chunked_schedule_matches(spark, g):
    a = DFSEngine(DFSConfig(chunked_schedule=False))
    b = DFSEngine(DFSConfig(chunked_schedule=True))
    assert a.count(spark, g, clique(3)) == b.count(spark, g, clique(3))


def test_oom_raised_on_tiny_budget(spark, g):
    with pytest.raises(memmod.OutOfMemoryError):
        DFSEngine(DFSConfig()).count(spark, g, clique(3), meter=memmod.MemoryMeter(64))


def test_oom_at_csr_charge_leaves_no_bytes(spark, g):
    """The first charge can trip too; the caller's ledger must still end
    empty."""
    meter = memmod.MemoryMeter(64)
    with pytest.raises(memmod.OutOfMemoryError) as e:
        DFSEngine(DFSConfig()).count(spark, g, clique(3), meter=meter)
    assert e.value.what == "csr"
    assert meter.resident == 0 and meter.ledger == {}


def test_meter_released_after_run(spark, g):
    meter = memmod.MemoryMeter(BIG)
    DFSEngine(DFSConfig()).count(spark, g, clique(3), meter=meter)
    assert meter.resident == 0
    assert meter.peak > 0


class RecordingMeter(memmod.MemoryMeter):
    def __init__(self, budget):
        super().__init__(budget)
        self.allocs = {}

    def alloc(self, what, nbytes):
        self.allocs[what] = int(nbytes)
        super().alloc(what, nbytes)


def g2miner_diamond_need(g):
    """G2Miner's ledger for SL diamond: CSR + reduced edgelist + opt-K
    buffers including the batch kernel's slice."""
    cfg = DFSConfig()
    plan = build_plan(diamond(), induced=False)
    buffers = (plan.num_buffers() * g.max_degree + SegmentedSetOps.SLICE) * 8 * cfg.num_partitions
    return g.nbytes() + g.edge_tasks("lt").nbytes + buffers, buffers


def test_g2miner_ledger_ok_path_charges_slice(spark, g):
    need, buffers = g2miner_diamond_need(g)
    meter = RecordingMeter(need)
    g2miner.make_engine().count(spark, g, diamond(), meter=meter)
    assert meter.allocs["buffers"] == buffers
    assert meter.peak == need
    assert meter.resident == 0


def test_g2miner_ledger_oom_path_released(spark, g):
    need, _ = g2miner_diamond_need(g)
    meter = memmod.MemoryMeter(need - 1)
    with pytest.raises(memmod.OutOfMemoryError) as e:
        g2miner.make_engine().count(spark, g, diamond(), meter=meter)
    assert e.value.what == "buffers"
    assert meter.resident == 0


def test_g2miner_ledger_timeout_path_released(spark, g):
    meter = memmod.MemoryMeter(BIG)
    with pytest.raises(TimeoutError_):
        run_with_timeout(
            spark, lambda: g2miner.make_engine().count(spark, g, diamond(), meter=meter), 0.01
        )
    tracker = spark.sparkContext.statusTracker()
    deadline = time.time() + 60
    while (
        meter.peak == 0 or meter.resident or tracker.getActiveJobsIds()
    ) and time.time() < deadline:
        time.sleep(0.1)
    assert meter.peak > 0
    assert meter.resident == 0
    assert list(tracker.getActiveJobsIds()) == []


@pytest.mark.parametrize(
    "make,k",
    [(g2miner.make_engine, 3), (g2miner.make_engine, 4), (graphzero.make_engine, 3)],
    ids=["g2miner-tc", "lgs-4cl", "graphzero-vertex-tc"],
)
def test_engine_pass_is_one_spark_job(spark, count_jobs, make, k):
    """Tasks are built inside the workers and per-task rows collected
    directly: no task DataFrame and no aggregation job."""
    tiny = build_csr(generate_graph("tiny")[0])
    assert count_jobs(lambda: make().count(spark, tiny, clique(k))) == 1


def test_last_ops_populated(spark, g):
    eng = DFSEngine(DFSConfig())
    eng.count(spark, g, clique(3))
    assert eng.last_ops > 0


def test_per_task_costs_shape(spark, g):
    eng = DFSEngine(DFSConfig())
    costs = eng.per_task_costs(spark, g, clique(3))
    assert len(costs) == g.num_edges
    assert (costs >= 1).all()


def test_edge_parallelism_rejects_scalar_setops():
    """Edge parallelism always runs the numpy batch kernel, so a scalar
    backend there would be silently ignored."""
    with pytest.raises(ValueError):
        DFSConfig(parallelism="edge", setops="python")


def test_oriented_clique_plan_structure():
    plan = oriented_clique_plan(4)
    assert plan.sym == ()
    assert plan.conn == ((), (0,), (0, 1), (0, 1, 2))
    assert plan.num_buffers() <= 1


def test_local_clique_count_known():
    # K4 local matrix (oriented upper-triangular): one 3-clique among the
    # 3 out-neighbors of the root.
    A = np.triu(np.ones((3, 3), dtype=bool), 1)
    assert _local_clique_count(A, 3) == 1
    assert _local_clique_count(A, 2) == 3
    assert _local_clique_count(A, 1) == 3
    assert _local_clique_count(np.zeros((0, 0), bool), 1) == 0


def test_count_df_schema(spark, g):
    df = DFSEngine(DFSConfig()).count_df(spark, g, clique(3))
    assert df.columns == ["cnt"]
    assert df.count() == 1
