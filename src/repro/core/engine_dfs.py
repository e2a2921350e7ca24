"""The G2Miner execution engine: DFS search on Spark (paper SS5-SS7).

Execution model (the warp-centric two-level parallelism of SS5.1, ported to
the Spark dataflow model):

- *Tasks* are edges (G2Miner default) or root vertices (CPU systems): a
  numpy task array turned into a Spark DataFrame, pre-permuted with the
  chunked round-robin order (SS7.1 policy 3) so contiguous Spark partitions
  receive balanced work.
- Each partition executes the pattern's *generated kernel* (codegen.py)
  via ``mapInPandas`` against a broadcast CSR — one Spark task = one
  "GPU". In edge-parallel mode (G2Miner) the kernel is a *batch kernel*:
  it takes slices of edge tasks and runs every search level as segmented
  numpy set ops over the whole slice (``setops.SegmentedSetOps``), the
  warps' SIMD lanes spread across the slice's tasks. Leaf set ops that do
  not depend on v_{k-2} are hoisted and run once per task instead of once
  per candidate (the buffer/reuse analysis). Every list a level gathers
  (its starting sets; its operands' membership keys, which are searched
  in place in the CSR when they would not fit) stays within the slice
  (``SegmentedSetOps.SLICE`` words) plus one row, and each partition's
  slice is charged to the ledger with the opt-K buffers.
  Vertex-parallel mode (the CPU systems) runs the per-task kernel root by
  root with vectorised or scalar set ops.
- Cliques get the special paths of the paper: orientation (opt A),
  DAG-edge tasks, and local-graph search with the dense bitmap format
  (opts E+F) guarded by the input-aware Delta threshold.

The engine accounts all materialised state against a device-memory budget
(``repro.memory``) and can report per-task measured work for the multi-GPU
scheduling simulation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import memory as memmod
from repro.core import codegen
from repro.core.pattern import Pattern, clique
from repro.core.plan import SearchPlan, build_plan
from repro.core.setops import BACKENDS, Counter, SegmentedSetOps
from repro.graph.csr import CSRGraph
from repro.sched.policies import chunked_round_robin_order


@dataclass
class DFSConfig:
    """Engine configuration — the knobs Table 2's optimizations hang off.

    The system facades in ``repro/systems/`` are specific settings of this.
    """

    parallelism: str = "edge"  # 'edge' (G2Miner) | 'vertex' (CPU systems)
    # Per-task set ops of vertex parallelism: 'numpy' (SIMD/warp analog) |
    # 'python' (scalar). Edge parallelism runs the numpy batch kernel, so
    # it accepts 'numpy' only.
    setops: str = "numpy"
    orientation: bool = True  # opt A, cliques
    lgs: bool = True  # opts E+F, cliques
    edgelist_reduction: bool = True  # opt J
    num_partitions: int = 16
    memory_budget: int = memmod.GPU_MEM_BYTES
    lgs_delta_threshold: int = 4096  # input-aware LGS guard (SS5.4(2))
    chunked_schedule: bool = True  # opt G analog for partition balance

    def __post_init__(self):
        if self.parallelism == "edge" and self.setops != "numpy":
            raise ValueError("edge parallelism runs the numpy batch kernel; "
                             f"setops={self.setops!r} needs parallelism='vertex'")


def oriented_clique_plan(k: int) -> SearchPlan:
    """Search plan for a k-clique on the *oriented* graph: every level
    intersects all earlier out-neighborhoods; the DAG replaces all
    symmetry bounds and on-the-fly checks (opt A's payoff)."""
    p = clique(k)
    empt = tuple(() for _ in range(k))
    return SearchPlan(
        pattern=p,
        order=tuple(range(k)),
        sym=(),
        conn=tuple(tuple(range(i)) for i in range(k)),
        anti=empt,
        upper=empt,
        lower=empt,
        excl=empt,
        induced=False,
    )


def _local_clique_count(A: np.ndarray, s: int) -> int:
    """Count s-cliques in a local DAG adjacency matrix (bitmap format).

    ``A[i, j]`` = oriented edge between local vertices i, j, so each clique
    is generated exactly once in DAG order. The last two local levels are
    one matrix product: a 3-clique is an edge i->j closed by a path
    i->l->j, so their count is ``sum(A * (A @ A))``, a popcount over the
    bitmap (the ``__popc`` analog of SS6.1).
    """
    if s <= 0:
        return 1 if s == 0 else 0
    if s == 1:
        return A.shape[0]
    if s == 2:
        return int(A.sum())
    if s == 3:
        M = A.astype(np.float32)  # exact: entries of M @ M are <= Delta
        return int((M @ M)[A].sum(dtype=np.float64))
    total = 0
    for i in range(A.shape[0]):
        nb = np.flatnonzero(A[i])
        if len(nb) >= s - 1:
            total += _local_clique_count(A[np.ix_(nb, nb)], s - 1)
    return total


def _make_worker(bc, mode: str, kernel: str | int, backend: str = "numpy"):
    """The ``mapInPandas`` worker of every engine path (one per partition).

    ``mode`` says how a batch of tasks runs: ``"edge"`` hands the whole
    batch to the generated batch kernel (source ``kernel``);
    ``"vertex"`` calls the generated per-task kernel once per root with
    the ``backend`` set ops; ``"lgs"`` counts ``kernel``-cliques by local
    graph search (opts E+F) around each root.
    """

    def worker(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        indptr, indices = bc.value
        ns: dict = {}
        if mode != "lgs":
            exec(compile(kernel, "<kernel>", "exec"), ns)
        run = ns.get("kernel")
        g = CSRGraph(indptr, indices)
        deg = g.degrees
        ops = BACKENDS[backend]
        ctr = Counter()
        total = 0
        for pdf in batches:
            v0 = pdf["v0"].to_numpy(np.int64)
            if mode == "edge":
                v1 = pdf["v1"].to_numpy(np.int64)
                total += run(v0, v1, indptr, indices, deg, SegmentedSetOps, ctr)
            elif mode == "vertex":
                for v in v0.tolist():
                    total += run(v, indptr, indices, ops, ctr)
            else:
                for v in v0.tolist():
                    L = g.neighbors(v)
                    if len(L) >= kernel - 1:
                        ctr.ops += len(L) * len(L)
                        total += _local_clique_count(g.local_graph(L), kernel - 1)
        yield pd.DataFrame({"cnt": [total], "ops": [ctr.ops]})

    return worker


def _count_df(spark: SparkSession, tasks: np.ndarray, worker):
    """Run ``worker`` over the task array and sum (cnt, ops).

    ``createDataFrame`` slices the (already schedule-permuted) task array
    into ~defaultParallelism contiguous Arrow batches — that slicing IS
    the task-to-device assignment, so no extra shuffle is issued.
    """
    cols = ["v0"] if tasks.ndim == 1 else ["v0", "v1"]
    pdf = pd.DataFrame(tasks.reshape(len(tasks), -1), columns=cols)
    out = spark.createDataFrame(pdf).mapInPandas(worker, schema="cnt long, ops long")
    rows = out.groupBy().sum("cnt", "ops").collect()[0]
    return int(rows[0] or 0), int(rows[1] or 0)


class DFSEngine:
    """Pattern counting/listing via generated DFS kernels on Spark."""

    def __init__(self, config: DFSConfig | None = None):
        self.cfg = config or DFSConfig()
        self.last_ops = 0  # measured set-op work of the last run

    # -- public API (the count()/list() of Listing 1) --------------------

    def count(
        self,
        spark: SparkSession,
        csr: CSRGraph,
        pattern: Pattern,
        *,
        induced: bool = False,
        meter: memmod.MemoryMeter | None = None,
    ) -> int:
        """Count matches of ``pattern`` in the data graph.

        ``induced=True`` counts vertex-induced matches (k-MC semantics),
        else edge-induced/monomorphism matches up to automorphism
        (TC/k-CL/SL semantics).
        """
        meter = meter or memmod.MemoryMeter(self.cfg.memory_budget)
        cfg = self.cfg
        # For cliques, vertex- and edge-induced matches coincide (SS2.1),
        # so orientation applies regardless of the induced flag.
        use_orient = pattern.is_clique() and cfg.orientation
        g = csr.orient() if use_orient else csr
        meter.alloc("csr", g.nbytes())
        bc = spark.sparkContext.broadcast((g.indptr, g.indices))
        try:
            if (
                use_orient
                and cfg.lgs
                and pattern.k >= 4
                and g.max_degree <= cfg.lgs_delta_threshold
            ):
                tasks = self._schedule(np.arange(g.n, dtype=np.int64))
                meter.alloc("tasks", tasks.nbytes)
                worker = _make_worker(bc, "lgs", pattern.k)
                cnt, ops = _count_df(spark, tasks, worker)
                self.last_ops = ops
                return cnt

            plan = (
                oriented_clique_plan(pattern.k)
                if use_orient
                else build_plan(pattern, induced=induced)
            )
            use_edge = cfg.parallelism == "edge" and plan.edge_parallel_ok()
            if use_edge:
                # Input-aware Omega management (SS5.1 + SS7.2): when the
                # symmetry order does not cover (v0, v1) the edgelist
                # cannot be reduced, and a full Omega may not fit the
                # device budget next to G. The paper's escape hatch is the
                # vertex-parallel mode, "in which case Omega is not
                # generated to save memory" — take it automatically.
                probe, _ = self._edge_tasks(g, plan)
                if meter.resident + probe.nbytes > meter.budget:
                    use_edge = False
            if use_edge:
                tasks, reduced = self._edge_tasks(g, plan)
                kernel_src = codegen.batch_source(plan, assume_reduced=reduced)
                # Adaptive buffering (opt K): X buffers of Delta words per
                # concurrent warp (= partition here), plus the batch
                # kernel's slice of flattened elements.
                meter.alloc("tasks", tasks.nbytes)
                meter.alloc(
                    "buffers",
                    (plan.num_buffers() * g.max_degree + SegmentedSetOps.SLICE)
                    * 8 * cfg.num_partitions,
                )
                tasks = self._schedule(tasks)
                worker = _make_worker(bc, "edge", kernel_src)
            else:
                tasks = np.arange(g.n, dtype=np.int64)
                kernel_src = codegen.kernel_source(plan, "vertex")
                meter.alloc("tasks", tasks.nbytes)
                meter.alloc(
                    "buffers",
                    plan.num_buffers() * g.max_degree * 8 * cfg.num_partitions,
                )
                tasks = self._schedule(tasks)
                worker = _make_worker(bc, "vertex", kernel_src, cfg.setops)
            cnt, ops = _count_df(spark, tasks, worker)
            self.last_ops = ops
            return cnt
        finally:
            bc.unpersist()
            meter.free("csr")
            meter.free("tasks")
            meter.free("buffers")

    def count_df(self, spark: SparkSession, csr: CSRGraph, pattern: Pattern, **kw):
        """Count wrapped as a one-row DataFrame (column ``cnt``) so results
        flow through ``repro.oracle.assert_equivalent``."""
        c = self.count(spark, csr, pattern, **kw)
        return spark.createDataFrame(pd.DataFrame({"cnt": [c]}))

    # -- internals -------------------------------------------------------

    def _edge_tasks(self, g: CSRGraph, plan: SearchPlan) -> tuple[np.ndarray, bool]:
        """Task edgelist Omega with edgelist reduction (opt J) when the
        symmetry order covers (v0, v1). Returns (tasks, reduced?)."""
        if g.directed:
            return g.edge_tasks("all"), True
        if self.cfg.edgelist_reduction:
            if (0, 1) in plan.sym:
                return g.edge_tasks("lt"), True
            if (1, 0) in plan.sym:
                return g.edge_tasks("gt"), True
        return g.edge_tasks("all"), False

    def _schedule(self, tasks: np.ndarray) -> np.ndarray:
        """Apply the chunked round-robin permutation (SS7.1 policy 3) so
        contiguous partitions get interleaved (balanced) work."""
        if not self.cfg.chunked_schedule or len(tasks) == 0:
            return tasks
        perm = chunked_round_robin_order(
            len(tasks), self.cfg.num_partitions, chunk=32
        )
        return tasks[perm]

    def per_task_costs(
        self, spark: SparkSession, csr: CSRGraph, pattern: Pattern, *, induced: bool = False
    ) -> np.ndarray:
        """Measured per-edge-task work (set-op element touches) — the input
        the multi-GPU scheduling simulation uses (Fig 9/10 substance)."""
        plan = build_plan(pattern, induced=induced)
        kernel = codegen.compile_kernel(plan, "edge", assume_reduced=True)
        tasks, _ = self._edge_tasks(csr, plan)
        ops = BACKENDS["numpy"]
        costs = np.zeros(len(tasks), dtype=np.int64)
        indptr, indices = csr.indptr, csr.indices
        for t in range(len(tasks)):
            ctr = Counter()
            kernel(int(tasks[t, 0]), int(tasks[t, 1]), indptr, indices, ops, ctr)
            costs[t] = ctr.ops + 1
        return costs
