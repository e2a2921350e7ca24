"""The G2Miner execution engine: DFS search on Spark (paper SS5-SS7).

Execution model (the warp-centric two-level parallelism of SS5.1, ported to
the Spark dataflow model):

- *Tasks* are edges (G2Miner default) or root vertices (CPU systems).
  The driver never builds them: one Spark job (``run_pass``) of
  ``defaultParallelism`` tasks runs over ``spark.range``, and each Spark
  task builds the task list (Omega, or the roots) from the broadcast CSR
  and keeps its share of the chunked round-robin bins (SS7.1 policy 3),
  the way each GPU takes its share of Omega on the device. The driver
  collects one row per Spark task and sums them.
- Each Spark task executes the pattern's *generated kernel* (codegen.py)
  against the broadcast CSR. In edge-parallel mode (G2Miner) the kernel
  is a *batch kernel*: it takes slices of edge tasks and runs every search
  level as segmented numpy set ops over the whole slice
  (``setops.SegmentedSetOps``), the warps' SIMD lanes spread across the
  slice's tasks. Leaf set ops that do not depend on v_{k-2} are hoisted
  and run once per task instead of once per candidate (the buffer/reuse
  analysis). Every list a level gathers (its starting sets; its operands'
  membership keys, which are searched in place in the CSR when they would
  not fit) stays within the slice (``SegmentedSetOps.SLICE`` words) plus
  one row, and each virtual GPU's slice is charged to the ledger with the
  opt-K buffers.
  Vertex-parallel mode (the CPU systems) runs the per-task kernel root by
  root with vectorised or scalar set ops.
- Cliques get the special paths of the paper: orientation (opt A),
  DAG-edge tasks, and local-graph search with the dense bitmap format
  (opts E+F) guarded by the input-aware Delta threshold.

The engine accounts all materialised state in the caller's ledger
(``repro.memory``; ``run_cell`` passes the cell's ledger, sized by the
system's budget) and can report per-task measured work for the multi-GPU scheduling
simulation.
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
from repro.sched.policies import assign, chunked_round_robin_order


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
    # Virtual-GPU count: it sizes the ledger's opt-K buffers (one set per
    # GPU) and the chunked-RR bins. Spark runs defaultParallelism tasks,
    # each taking a contiguous group of these bins.
    num_partitions: int = 16
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


CHUNK = 32  # chunked-RR chunk (tasks), SS7.1 policy 3
COLS = ("cnt", "ops")  # the row every engine pass yields per Spark task
#: Ledger bytes per task: an Omega row is two int64 vertex ids, a root one.
EDGE_TASK_BYTES, ROOT_BYTES = 16, 8


def task_slice(m: int, s: int, n_tasks: int, n_bins: int | None) -> np.ndarray:
    """Which of ``m`` tasks Spark task ``s`` (of ``n_tasks``) runs, as
    indices into the task list.

    With ``n_bins`` the tasks fall into chunked-RR bins (``assign``, chunk
    ``CHUNK``) and task ``s`` takes the contiguous group of bins ``b`` with
    ``b * n_tasks // n_bins == s``, in the bin-major order of
    ``chunked_round_robin_order``. Without, it takes an even contiguous
    range of the task list.
    """
    if n_bins is None:
        return np.arange(s * m // n_tasks, (s + 1) * m // n_tasks)
    sizes = np.bincount(assign(m, n_bins, "chunked_rr", chunk=CHUNK), minlength=n_bins)
    cut = np.concatenate([[0], np.cumsum(sizes)])
    lo, hi = -(-s * n_bins // n_tasks), -(-(s + 1) * n_bins // n_tasks)
    return chunked_round_robin_order(m, n_bins, chunk=CHUNK)[cut[lo] : cut[hi]]


def worker_tasks(g: CSRGraph, kind: str, s: int, n_tasks: int, n_bins: int | None):
    """The task array Spark task ``s`` builds from the CSR and runs:
    Omega under edgelist-reduction mode ``kind`` (``CSRGraph.edge_tasks``),
    or every vertex as a root for ``kind="vertex"``."""
    tasks = np.arange(g.n, dtype=np.int64) if kind == "vertex" else g.edge_tasks(kind)
    return tasks[task_slice(len(tasks), s, n_tasks, n_bins)]


def run_pass(spark: SparkSession, g: CSRGraph, kind: str, body, cols: tuple[str, ...],
             n_bins: int | None) -> list[int]:
    """One Spark job over the tasks of ``kind``: sums of ``body``'s columns.

    The CSR is broadcast and ``spark.range`` launches ``defaultParallelism``
    Spark tasks; each builds its slice of the task list (``worker_tasks``)
    and yields one row, ``body(g, tasks)``. The driver collects the rows
    and sums them as Python ints.
    """
    n_tasks = spark.sparkContext.defaultParallelism
    directed = g.directed
    bc = spark.sparkContext.broadcast((g.indptr, g.indices))

    def worker(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        indptr, indices = bc.value
        wg = CSRGraph(indptr, indices, directed=directed)
        for pdf in batches:
            for s in pdf["id"].tolist():
                tasks = worker_tasks(wg, kind, s, n_tasks, n_bins)
                yield pd.DataFrame([body(wg, tasks)], columns=list(cols))

    try:
        rows = (
            spark.range(n_tasks, numPartitions=n_tasks)
            .mapInPandas(worker, schema=", ".join(f"{c} long" for c in cols))
            .collect()
        )
    finally:
        bc.unpersist()
    return [sum(int(r[c]) for r in rows) for c in cols]


def _make_worker(mode: str, kernel: str | int, backend: str = "numpy"):
    """The per-Spark-task body of every engine path: ``(g, tasks) -> (cnt, ops)``.

    ``mode`` says how the tasks run: ``"edge"`` hands them all to the
    generated batch kernel (source ``kernel``); ``"vertex"`` calls the
    generated per-task kernel once per root with the ``backend`` set ops;
    ``"lgs"`` counts ``kernel``-cliques by local graph search (opts E+F)
    around each root.
    """

    def body(g: CSRGraph, tasks: np.ndarray) -> tuple[int, int]:
        ns: dict = {}
        if mode != "lgs":
            exec(compile(kernel, "<kernel>", "exec"), ns)
        run = ns.get("kernel")
        indptr, indices = g.indptr, g.indices
        ops = BACKENDS[backend]
        ctr = Counter()
        total = 0
        if mode == "edge":
            total = run(tasks[:, 0], tasks[:, 1], indptr, indices, g.degrees,
                        SegmentedSetOps, ctr)
        elif mode == "vertex":
            for v in tasks.tolist():
                total += run(v, indptr, indices, ops, ctr)
        else:
            for v in tasks.tolist():
                L = g.neighbors(v)
                if len(L) >= kernel - 1:
                    ctr.ops += len(L) * len(L)
                    total += _local_clique_count(g.local_graph(L), kernel - 1)
        return total, ctr.ops

    return body


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
        meter = meter or memmod.MemoryMeter()
        cfg = self.cfg
        n_bins = cfg.num_partitions if cfg.chunked_schedule else None
        # For cliques, vertex- and edge-induced matches coincide (SS2.1),
        # so orientation applies regardless of the induced flag.
        use_orient = pattern.is_clique() and cfg.orientation
        g = csr.orient() if use_orient else csr
        with meter.scope():
            meter.alloc("csr", g.nbytes())
            if (
                use_orient
                and cfg.lgs
                and pattern.k >= 4
                and g.max_degree <= cfg.lgs_delta_threshold
            ):
                meter.alloc("tasks", ROOT_BYTES * g.n)
                body = _make_worker("lgs", pattern.k)
                cnt, self.last_ops = run_pass(spark, g, "vertex", body, COLS, n_bins)
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
                kind, reduced = self._edge_mode(g, plan)
                omega_bytes = EDGE_TASK_BYTES * g.num_edge_tasks(kind)
                use_edge = meter.resident + omega_bytes <= meter.budget
            if use_edge:
                kernel_src = codegen.batch_source(plan, assume_reduced=reduced)
                # Adaptive buffering (opt K): X buffers of Delta words per
                # concurrent warp (= virtual GPU here), plus the batch
                # kernel's slice of flattened elements.
                meter.alloc("tasks", omega_bytes)
                meter.alloc(
                    "buffers",
                    (plan.num_buffers() * g.max_degree + SegmentedSetOps.SLICE)
                    * 8 * cfg.num_partitions,
                )
                body = _make_worker("edge", kernel_src)
            else:
                kind = "vertex"
                kernel_src = codegen.kernel_source(plan, "vertex")
                meter.alloc("tasks", ROOT_BYTES * g.n)
                meter.alloc(
                    "buffers",
                    plan.num_buffers() * g.max_degree * 8 * cfg.num_partitions,
                )
                body = _make_worker("vertex", kernel_src, cfg.setops)
            cnt, self.last_ops = run_pass(spark, g, kind, body, COLS, n_bins)
            return cnt

    def count_df(self, spark: SparkSession, csr: CSRGraph, pattern: Pattern, **kw):
        """Count wrapped as a one-row DataFrame (column ``cnt``) so results
        flow through ``repro.oracle.assert_equivalent``."""
        c = self.count(spark, csr, pattern, **kw)
        return spark.createDataFrame(pd.DataFrame({"cnt": [c]}))

    # -- internals -------------------------------------------------------

    def _edge_mode(self, g: CSRGraph, plan: SearchPlan) -> tuple[str, bool]:
        """The ``CSRGraph.edge_tasks`` mode of the task edgelist Omega, with
        edgelist reduction (opt J) when the symmetry order covers
        (v0, v1). Returns (mode, reduced?)."""
        if g.directed:
            return "all", True
        if self.cfg.edgelist_reduction:
            if (0, 1) in plan.sym:
                return "lt", True
            if (1, 0) in plan.sym:
                return "gt", True
        return "all", False

    def per_task_costs(
        self, spark: SparkSession, csr: CSRGraph, pattern: Pattern, *, induced: bool = False
    ) -> np.ndarray:
        """Measured per-edge-task work (set-op element touches) — the input
        the multi-GPU scheduling simulation uses (Fig 9/10 substance)."""
        plan = build_plan(pattern, induced=induced)
        kernel = codegen.compile_kernel(plan, "edge", assume_reduced=True)
        tasks = csr.edge_tasks(self._edge_mode(csr, plan)[0])
        ops = BACKENDS["numpy"]
        costs = np.zeros(len(tasks), dtype=np.int64)
        indptr, indices = csr.indptr, csr.indices
        for t in range(len(tasks)):
            ctr = Counter()
            kernel(int(tasks[t, 0]), int(tasks[t, 1]), indptr, indices, ops, ctr)
            costs[t] = ctr.ops + 1
        return costs
