"""Counting-only pruning via pattern decomposition (paper SS5.4(1), Table 9).

When the user asks to *count* rather than *list*, some patterns decompose
into cheaper sub-counts: a diamond is two triangles on a shared edge, so
``diamond = sum_e C(t_e, 2)`` where ``t_e`` is the per-edge triangle count
(Algorithm 3); an induced wedge count follows from degrees and the triangle
count; and all six 4-motif counts follow from a handful of non-induced
aggregates plus one real enumeration (4-cycle, for which the paper notes no
decomposition exists).

Instead of hand-deriving the ESCAPE-style inclusion formulas, the
non-induced -> induced conversion matrix is computed *programmatically*
(``conversion_matrix``): M[H, H'] = number of spanning subgraphs of H'
isomorphic to H, brute-forced over the 4-vertex motifs; induced counts are
the solution of the triangular system. This mirrors the paper's "automatic
pattern decomposition [82]" and is property-tested against direct induced
enumeration.

The per-edge triangle statistics pass (``edge_triangle_stats``) is one
Spark job (``engine_dfs.run_pass``) over the reduced edgelist computing,
per edge (u, v): t_e = |N(u) ∩ N(v)| and the degree sums over the
triangle apexes — enough for T, the non-induced diamond count, and the
non-induced tailed-triangle count in a single pass (the W-buffer reuse of
Algorithm 1).
"""
from __future__ import annotations

from itertools import combinations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.engine_dfs import DFSConfig, DFSEngine, run_pass
from repro.core.pattern import Pattern, clique, cycle, motifs
from repro.core.setops import BACKENDS, SegmentedSetOps
from repro.graph.csr import CSRGraph
from repro.memory import MemoryMeter

#: Canonical 4-motif order (by edge count; the triangular system order).
MOTIF4_NAMES = ("4-path", "3-star", "tailed-triangle", "4-cycle", "diamond", "4-clique")


def _spanning_copies(h: Pattern, hp: Pattern) -> int:
    """#subsets of E(H') forming a graph on the same 4 vertices ~= H
    with no isolated vertex mismatch (H's vertex set is all 4)."""
    target_edges = list(hp.edges)
    count = 0
    for r in range(len(target_edges) + 1):
        for sub in combinations(target_edges, r):
            cand = Pattern(hp.k, frozenset(sub))
            if cand.num_edges == h.num_edges and cand.is_isomorphic(h):
                count += 1
    return count


def conversion_matrix() -> np.ndarray:
    """M with M[i, j] = #copies of motif i spanning motif j (4-vertex).

    ``non_induced = M @ induced``; M is upper-triangular with unit diagonal
    under the MOTIF4_NAMES order, so induced counts follow by back-substitution
    (``induced_from_non_induced``).
    """
    pats = {p.name: p for p in motifs(4)}
    k = len(MOTIF4_NAMES)
    M = np.zeros((k, k), dtype=np.int64)
    for i, hi in enumerate(MOTIF4_NAMES):
        for j, hj in enumerate(MOTIF4_NAMES):
            M[i, j] = _spanning_copies(pats[hi], pats[hj])
    return M


def _stats_tasks(U, V, indptr, indices, deg, ops, ctr=None) -> tuple[int, int, int]:
    """Per-edge stats, task by task with the ``ops`` backend."""
    t_sum = 0  # sum of t_e  (= 3T)
    d_sum = 0  # sum of C(t_e, 2)  (= non-induced diamonds)
    paw3 = 0  # sum over (edge, apex) of (d_u + d_v + d_w - 6)  (= 3*paw)
    for u, v in zip(U.tolist(), V.tolist()):
        nu = indices[indptr[u] : indptr[u + 1]]
        nv = indices[indptr[v] : indptr[v + 1]]
        w = ops.intersect(nu, nv, ctr)
        t = len(w)
        if t:
            t_sum += t
            d_sum += t * (t - 1) // 2
            paw3 += int(deg[w].sum()) + t * int(deg[u] + deg[v] - 6)
    return t_sum, d_sum, paw3


def _stats_batch(U, V, indptr, indices, deg, ctr=None) -> tuple[int, int, int]:
    """``_stats_tasks`` over slices of edges with segmented set ops:
    per-edge triangle counts are ``bincount`` over the apexes' edge ids."""
    seg = SegmentedSetOps
    t_sum = d_sum = paw3 = 0
    for a, b in seg.chunks(np.minimum(deg[U], deg[V]), seg.SLICE):
        u, v = U[a:b], V[a:b]
        w, e = seg.gather_intersect(indptr, indices, u, v, ctr)
        t = np.bincount(e, minlength=len(u))
        t_sum += int(t.sum())
        d_sum += int((t * (t - 1) // 2).sum())
        paw3 += int(deg[w].sum()) + int((t * (deg[u] + deg[v] - 6)).sum())
    return t_sum, d_sum, paw3


def _stats_body(backend: str):
    def body(g: CSRGraph, tasks: np.ndarray) -> tuple[int, int, int]:
        U, V = tasks[:, 0], tasks[:, 1]
        if backend == "numpy":
            return _stats_batch(U, V, g.indptr, g.indices, g.degrees)
        return _stats_tasks(U, V, g.indptr, g.indices, g.degrees, BACKENDS[backend])

    return body


def edge_triangle_stats(
    spark: SparkSession, csr: CSRGraph, *, backend: str = "numpy"
) -> dict[str, int]:
    """One sweep over the reduced edgelist -> {T, diamond_non, paw_non}.

    The numpy backend runs slices of edges as segmented set ops; the
    scalar backend goes edge by edge. The sweep is one ``run_pass`` job
    over the chunked-RR bins of the engine's default virtual-GPU count."""
    t_sum, d_sum, paw3 = run_pass(
        spark, csr, "gt", _stats_body(backend), ("t_sum", "d_sum", "paw3"),
        DFSConfig.num_partitions,
    )
    return {"T": t_sum // 3, "diamond_non": d_sum, "paw_non": paw3 // 3}


def count3_counting_only(
    spark: SparkSession, csr: CSRGraph, *, engine: DFSEngine | None = None,
    meter: MemoryMeter | None = None,
) -> dict[str, int]:
    """3-motif counts with counting-only pruning: triangles enumerated once
    (TC), induced wedges from degrees: sum C(d, 2) - 3T."""
    engine = engine or DFSEngine()
    t = engine.count(spark, csr, clique(3), meter=meter)
    deg = csr.degrees.astype(np.int64)
    wedges_non = int((deg * (deg - 1) // 2).sum())
    return {"3-path": wedges_non - 3 * t, "3-clique": t}


def count4_counting_only(
    spark: SparkSession, csr: CSRGraph, *, engine: DFSEngine | None = None,
    backend: str = "numpy", meter: MemoryMeter | None = None,
) -> dict[str, int]:
    """All six induced 4-motif counts from decompositions + two real
    enumerations (4-clique, 4-cycle)."""
    engine = engine or DFSEngine()
    stats = edge_triangle_stats(spark, csr, backend=backend)
    t = stats["T"]
    deg = csr.degrees.astype(np.int64)
    k4 = engine.count(spark, csr, clique(4), meter=meter)
    # The 4-cycle has no decomposition (SS5.4): enumerate it.
    c4_non = engine.count(spark, csr, cycle(4), meter=meter)
    claw_non = int((deg * (deg - 1) * (deg - 2) // 6).sum())
    # Non-induced P4: sum over undirected edges of (d_u-1)(d_v-1) - 3T.
    e = csr.edge_tasks("gt")
    p4_non = int(((deg[e[:, 0]] - 1) * (deg[e[:, 1]] - 1)).sum()) - 3 * t
    return induced_from_non_induced(
        [p4_non, claw_non, stats["paw_non"], c4_non, stats["diamond_non"], k4]
    )


def induced_from_non_induced(non_induced: list[int]) -> dict[str, int]:
    """Solve ``non_induced = M @ induced`` (MOTIF4_NAMES order) exactly.

    M is unit upper-triangular, so back-substitution in Python integers
    needs no division and stays exact at any magnitude (a float64 solve
    loses counts above 2^53)."""
    M = conversion_matrix().tolist()
    k = len(MOTIF4_NAMES)
    induced = [0] * k
    for i in reversed(range(k)):
        induced[i] = int(non_induced[i]) - sum(
            M[i][j] * induced[j] for j in range(i + 1, k)
        )
    return dict(zip(MOTIF4_NAMES, induced))


def diamond_counting_only(
    spark: SparkSession, csr: CSRGraph, *, backend: str = "numpy"
) -> int:
    """Algorithm 3: edge-induced diamond count = sum_e C(t_e, 2)."""
    return edge_triangle_stats(spark, csr, backend=backend)["diamond_non"]
