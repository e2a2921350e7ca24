"""k-motif counting (k-MC) drivers — the multi-pattern problem (SS5.3).

``count_motifs`` runs all connected k-vertex patterns (Fig. 3) as
vertex-induced counts. G2Miner generates one kernel per pattern group
(kernel fission: merging everything into one gigantic kernel would blow
register pressure, so the paper splits kernels; we likewise run one
generated kernel per pattern). Peregrine's documented behaviour — it "does
not mine multiple patterns simultaneously" — is the same per-pattern loop,
so the systems differ where they truly differ: search order, parallelism
and set-op backend.

For the counting-only variants (Table 9) see ``repro.core.counting``.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.engine_bfs import BFSEngine
from repro.core.engine_dfs import DFSEngine
from repro.core.pattern import motifs
from repro.graph.csr import CSRGraph
from repro import memory as memmod


def count_motifs(
    spark: SparkSession,
    csr: CSRGraph,
    k: int,
    engine: DFSEngine | BFSEngine,
    *,
    meter: memmod.MemoryMeter | None = None,
) -> dict[str, int]:
    """Count every connected k-vertex motif (vertex-induced). Returns
    {motif name: count}.

    Every pattern charges the one ``meter`` (``run_cell`` passes the
    cell's ledger). Each engine call frees its own structures when it
    returns, so the ledger's peak is the largest single pattern's state
    (wedge lists for 4-path in BFS systems), not their sum."""
    out: dict[str, int] = {}
    for p in motifs(k):
        out[p.name] = engine.count(spark, csr, p, induced=True, meter=meter)
    return out
