"""Frequent subgraph mining with domain support (paper SS5.2, SS7.2(4), Table 8).

Scope: 3-FSM over vertex-labeled graphs = frequent patterns up to 3
vertices (single-edge, labeled wedge, labeled triangle), with *domain*
(MNI) support: the support of a pattern is the minimum over its vertex
orbits of the number of distinct data vertices appearing in that orbit
across all embeddings. (The paper's 3-FSM on Pangolin counts patterns a
fixed number of edge-extensions deep; restricting to 3-vertex patterns
keeps the same systems behaviour — bounded-BFS aggregation, label-frequency
pruning, embedding-list OoM — at this reproduction's scale and is recorded
as a substitution in DESIGN.md.)

The support computation is *generated SQL* that runs identically on Spark
(the engine) and DuckDB (the oracle): embeddings via adjacency self-joins,
orbit rows via UNION ALL, then min-over-orbits of COUNT(DISTINCT vertex).

System variants (Table 8):

- ``g2miner``   — bounded-BFS aggregation in one pipelined Spark pass per
                  level (opt M), after label-frequency pruning (opt N).
- ``pangolin``  — BFS with *materialised* embedding lists (persist+count,
                  charged to the scaled GPU budget -> OoM on Yo), no label
                  pruning.
- ``peregrine`` — pattern-at-a-time: one Spark job per (level, frequent
                  label) slice; no cross-pattern reuse, hence slow.
- ``distgraph`` — hand-written CPU solver: driver-side Python enumeration
                  with per-embedding object overhead charged to the CPU
                  budget (OoM on the largest graph before enumeration).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import memory as memmod
from repro.graph.csr import CSRGraph

#: Python-object overhead factor for DistGraph's in-RAM embedding store
#: (a 3-tuple of boxed ints is ~6x the packed 24 bytes).
_DISTGRAPH_OVERHEAD = 6


def support_sql(kind: str, *, where: str = "") -> str:
    """Generate the (pattern, support) SQL for one pattern family over
    views ``adj(src, dst)`` and ``labels(v, label)``.

    ``kind``: 'edge' | 'wedge' | 'tri'. ``where`` filters embeddings (used
    by the pattern-at-a-time variant). Orbit keys: wedge centers are their
    own orbit; same-labeled symmetric positions share an orbit, which is
    exactly the MNI orbit structure of labeled 3-vertex patterns.
    """
    if kind == "edge":
        emb = (
            "SELECT e.src AS a, e.dst AS b, la.label AS la, lb.label AS lb\n"
            "  FROM adj e JOIN labels la ON la.v = e.src\n"
            "             JOIN labels lb ON lb.v = e.dst\n"
            "  WHERE e.src < e.dst"
        )
        pat = ("'E:' || CAST(least(la, lb) AS STRING) || '_' || "
               "CAST(greatest(la, lb) AS STRING)")
        orbits = [
            (pat, "'p:' || CAST(la AS STRING)", "a"),
            (pat, "'p:' || CAST(lb AS STRING)", "b"),
        ]
    elif kind == "wedge":
        emb = (
            "SELECT e1.src AS c, e1.dst AS a, e2.dst AS b,\n"
            "       lc.label AS lc, la.label AS la, lb.label AS lb\n"
            "  FROM adj e1 JOIN adj e2 ON e2.src = e1.src AND e1.dst < e2.dst\n"
            "  JOIN labels lc ON lc.v = e1.src\n"
            "  JOIN labels la ON la.v = e1.dst\n"
            "  JOIN labels lb ON lb.v = e2.dst"
        )
        pat = ("'W:' || CAST(lc AS STRING) || ':' || "
               "CAST(least(la, lb) AS STRING) || '_' || "
               "CAST(greatest(la, lb) AS STRING)")
        orbits = [
            (pat, "'c'", "c"),
            (pat, "'e:' || CAST(la AS STRING)", "a"),
            (pat, "'e:' || CAST(lb AS STRING)", "b"),
        ]
    elif kind == "tri":
        emb = (
            "SELECT e1.src AS a, e1.dst AS b, e2.dst AS c,\n"
            "       la.label AS la, lb.label AS lb, lc.label AS lc\n"
            "  FROM adj e1\n"
            "  JOIN adj e2 ON e2.src = e1.src AND e2.dst > e1.dst\n"
            "  JOIN adj e3 ON e3.src = e1.dst AND e3.dst = e2.dst\n"
            "  JOIN labels la ON la.v = e1.src\n"
            "  JOIN labels lb ON lb.v = e1.dst\n"
            "  JOIN labels lc ON lc.v = e2.dst\n"
            "  WHERE e1.src < e1.dst"
        )
        pat = (
            "'T:' || CAST(least(la, lb, lc) AS STRING) || '_' || "
            "CAST(la + lb + lc - least(la, lb, lc) - greatest(la, lb, lc) AS STRING)"
            " || '_' || CAST(greatest(la, lb, lc) AS STRING)"
        )
        orbits = [
            (pat, "'t:' || CAST(la AS STRING)", "a"),
            (pat, "'t:' || CAST(lb AS STRING)", "b"),
            (pat, "'t:' || CAST(lc AS STRING)", "c"),
        ]
    else:
        raise ValueError(f"bad kind {kind!r}")

    wh = f"\n  WHERE {where}" if where else ""
    orbit_rows = "\nUNION ALL\n".join(
        f"SELECT {p} AS pattern, {o} AS orbit, {v} AS vtx FROM emb{wh}"
        for (p, o, v) in orbits
    )
    return (
        f"WITH emb AS (\n{emb}\n),\n"
        f"orbit_rows AS (\n{orbit_rows}\n),\n"
        "orbit_counts AS (\n"
        "  SELECT pattern, orbit, COUNT(DISTINCT vtx) AS dom\n"
        "  FROM orbit_rows GROUP BY pattern, orbit\n"
        ")\n"
        "SELECT pattern, MIN(dom) AS support\n"
        "FROM orbit_counts GROUP BY pattern"
    )


def _register_views(spark: SparkSession, adj: pd.DataFrame, labels: pd.DataFrame):
    spark.createDataFrame(adj).createOrReplaceTempView("adj")
    spark.createDataFrame(labels).createOrReplaceTempView("labels")


def _frequent(pdf: pd.DataFrame, sigma: int) -> pd.DataFrame:
    out = pdf[pdf["support"] >= sigma].sort_values("pattern").reset_index(drop=True)
    return out[["pattern", "support"]]


def frames(csr: CSRGraph) -> tuple[pd.DataFrame, pd.DataFrame]:
    """The ``adj(src, dst)`` and ``labels(v, label)`` tables of a labeled
    symmetric CSR graph: both directions of every edge in (src, dst) order,
    row for row the frames ``gen.adj_pdf`` / ``gen.labels_pdf`` generate."""
    adj = pd.DataFrame(
        {"src": np.repeat(np.arange(csr.n), csr.degrees), "dst": csr.indices}
    )
    labels = pd.DataFrame({"v": np.arange(len(csr.labels)), "label": csr.labels})
    return adj, labels


def fsm3(
    spark: SparkSession,
    csr: CSRGraph,
    sigma: int,
    *,
    variant: str = "g2miner",
    meter: memmod.MemoryMeter | None = None,
) -> pd.DataFrame:
    """Run 3-FSM on a labeled graph, returning the frequent (pattern,
    support) table.

    All variants return identical results; they differ in execution shape
    and memory behaviour, which is what Table 8 measures. Every charge a
    variant makes to ``meter`` is freed when it returns or raises.
    """
    meter = meter or memmod.MemoryMeter()
    adj, labels = frames(csr)
    with meter.scope():
        if variant == "g2miner":
            return _fsm_g2miner(spark, adj, labels, sigma, meter)
        if variant == "pangolin":
            return _fsm_pangolin(spark, adj, labels, sigma, meter)
        if variant == "peregrine":
            return _fsm_peregrine(spark, adj, labels, sigma, meter)
        if variant == "distgraph":
            return _fsm_distgraph(adj, labels, sigma, meter)
    raise ValueError(f"unknown variant {variant!r}")


def _fsm_g2miner(spark, adj, labels, sigma, meter) -> pd.DataFrame:
    # Opt N: label-frequency pruning. Infrequent labels cannot appear in
    # any frequent pattern (their orbit domain is capped by label
    # frequency), so drop those vertices before any enumeration; the
    # number of possible patterns N — and the per-pattern subgraph-list
    # allocations — shrink accordingly.
    freq = labels.groupby("label")["v"].count()
    good = set(freq[freq >= sigma].index)
    lab2 = labels[labels["label"].isin(good)]
    keep = set(lab2["v"])
    adj2 = adj[adj["src"].isin(keep) & adj["dst"].isin(keep)]
    n_labels = len(good)
    n_patterns = n_labels + n_labels**2 + n_labels**3  # possible 3-FSM keys
    meter.alloc("graph", adj2.values.nbytes + lab2.values.nbytes)
    meter.alloc("pattern_lists", n_patterns * 64)
    _register_views(spark, adj2, lab2)
    parts = [spark.sql(support_sql(k)).toPandas() for k in ("edge", "wedge", "tri")]
    return _frequent(pd.concat(parts, ignore_index=True), sigma)


def _fsm_pangolin(spark, adj, labels, sigma, meter) -> pd.DataFrame:
    meter.alloc("graph", adj.values.nbytes + labels.values.nbytes)
    # No label pruning, and each level's embedding list is materialised
    # before aggregation (the BFS subgraph list): count the embeddings and
    # charge them against the device budget first.
    _register_views(spark, adj, labels)
    wedges = spark.sql(
        "SELECT COUNT(*) c FROM adj e1 JOIN adj e2 "
        "ON e2.src = e1.src AND e1.dst < e2.dst"
    ).collect()[0][0]
    meter.alloc("wedge_embeddings", int(wedges) * 3 * 8)
    tris = spark.sql(
        "SELECT COUNT(*) c FROM adj e1 "
        "JOIN adj e2 ON e2.src = e1.src AND e2.dst > e1.dst "
        "JOIN adj e3 ON e3.src = e1.dst AND e3.dst = e2.dst "
        "WHERE e1.src < e1.dst"
    ).collect()[0][0]
    meter.alloc("tri_embeddings", int(tris) * 3 * 8)
    parts = [spark.sql(support_sql(k)).toPandas() for k in ("edge", "wedge", "tri")]
    return _frequent(pd.concat(parts, ignore_index=True), sigma)


def _fsm_peregrine(spark, adj, labels, sigma, meter) -> pd.DataFrame:
    meter.alloc("graph", adj.values.nbytes + labels.values.nbytes)
    _register_views(spark, adj, labels)
    edge_tab = spark.sql(support_sql("edge")).toPandas()
    freq_edge = _frequent(edge_tab, sigma)
    # Frequent labels = labels appearing in some frequent edge pattern;
    # only they can head a frequent 3-vertex pattern.
    freq_labels = sorted(
        {
            int(x)
            for p in freq_edge["pattern"]
            for x in p[2:].split("_")
        }
    )
    parts = [edge_tab]
    # Pattern-at-a-time: one job per (family, anchor label) — Peregrine
    # enumerates each pattern separately, with no cross-pattern reuse.
    for lab in freq_labels:
        parts.append(
            spark.sql(support_sql("wedge", where=f"lc = {lab}")).toPandas()
        )
        parts.append(
            spark.sql(
                support_sql("tri", where=f"least(la, lb, lc) = {lab}")
            ).toPandas()
        )
    merged = pd.concat(parts, ignore_index=True).drop_duplicates("pattern")
    return _frequent(merged, sigma)


def _fsm_distgraph(adj, labels, sigma, meter) -> pd.DataFrame:
    lab = labels.set_index("v")["label"].to_dict()
    # Input-oblivious embedding store: estimate the wedge list size from
    # degrees and charge it (with Python object overhead) before
    # enumerating — the solver keeps all embeddings in RAM. ``adj`` holds
    # both directions, so the src column alone gives each vertex's degree.
    deg = adj["src"].value_counts()
    est_wedges = int((deg * (deg - 1) // 2).sum())
    meter.alloc("graph", adj.values.nbytes)
    meter.alloc("embeddings", est_wedges * 3 * 8 * _DISTGRAPH_OVERHEAD)
    nbrs: dict[int, list[int]] = {}
    for s_, d_ in adj.itertuples(index=False):
        nbrs.setdefault(int(s_), []).append(int(d_))
    nsets = {u: set(ns) for u, ns in nbrs.items()}
    dom: dict[tuple, dict[str, set]] = {}

    def touch(pat, orbit, v):
        dom.setdefault(pat, {}).setdefault(orbit, set()).add(v)

    for u, ns in nbrs.items():
        lu = lab[u]
        for v in ns:
            if u < v:
                lv = lab[v]
                p = ("E", min(lu, lv), max(lu, lv))
                touch(p, f"p:{lu}", u)
                touch(p, f"p:{lv}", v)
        ns_sorted = sorted(ns)
        for i in range(len(ns_sorted)):
            a = ns_sorted[i]
            la = lab[a]
            for b in ns_sorted[i + 1 :]:
                lb = lab[b]
                p = ("W", lu, min(la, lb), max(la, lb))
                touch(p, "c", u)
                touch(p, f"e:{la}", a)
                touch(p, f"e:{lb}", b)
                if u < a and b in nsets.get(a, ()):
                    ls = sorted((lu, la, lb))
                    p = ("T", ls[0], ls[1], ls[2])
                    touch(p, f"t:{lu}", u)
                    touch(p, f"t:{la}", a)
                    touch(p, f"t:{lb}", b)
    rows = []
    for p, orbits in dom.items():
        sup = min(len(s) for s in orbits.values())
        if p[0] == "E":
            key = f"E:{p[1]}_{p[2]}"
        elif p[0] == "W":
            key = f"W:{p[1]}:{p[2]}_{p[3]}"
        else:
            key = f"T:{p[1]}_{p[2]}_{p[3]}"
        rows.append((key, sup))
    pdf = pd.DataFrame(rows, columns=["pattern", "support"])
    return _frequent(pdf, sigma)
