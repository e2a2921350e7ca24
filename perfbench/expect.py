"""Expected query outcomes, computed without the engines under test.

Unlabeled counts come from a vectorised numpy enumeration over the
generated edge list: k-cliques are listed level by level on the
degree-oriented DAG (candidates from the last vertex's out-neighbours,
membership checked with ``searchsorted`` against sorted edge keys), and
every other count follows from per-edge and per-vertex triangle counts
and common-neighbour counts. FSM supports run ``fsm.support_sql`` in
DuckDB, the repository's SQL oracle.

DuckDB over ``codegen.pattern_sql`` would be the uniform oracle, but it
needs tens of seconds for TC on Uk and spills to disk on 4-CL on Tw4, far
beyond one benchmark run; the Catalyst BFS engine OoMs or times out on the
same graphs.
"""
from __future__ import annotations

import numpy as np

import mixes

#: Upper bound on candidate rows materialised at once by the clique lister.
_CHUNK = 1 << 21


class Graph:
    """Undirected simple graph from an ``(m, 2)`` edge array with src < dst."""

    def __init__(self, edges: np.ndarray, n: int):
        self.n = n
        self.src = edges[:, 0].astype(np.int64)
        self.dst = edges[:, 1].astype(np.int64)
        self.deg = np.bincount(self.src, minlength=n) + np.bincount(self.dst, minlength=n)
        # Orientation by (degree, id) rank, as the clique oracles need a DAG.
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((np.arange(n), self.deg))] = np.arange(n)
        fwd = rank[self.src] < rank[self.dst]
        self.dag_u = np.where(fwd, self.src, self.dst)
        self.dag_v = np.where(fwd, self.dst, self.src)
        order = np.lexsort((self.dag_v, self.dag_u))
        self.dag_u, self.dag_v = self.dag_u[order], self.dag_v[order]
        self.out_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.dag_u, minlength=n), out=self.out_ptr[1:])
        self.keys = self.dag_u * n + self.dag_v  # sorted by construction
        self._tri: np.ndarray | None = None

    def _has_dag_edge(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        k = a * self.n + b
        i = np.searchsorted(self.keys, k)
        i[i == len(self.keys)] = 0
        return self.keys[i] == k

    def _extend(self, cliques: np.ndarray, *, keep: bool):
        """Extend DAG-ordered l-cliques by one vertex. Returns the
        (l+1)-clique array if ``keep``, else only their number."""
        out, total = [], 0
        last = cliques[:, -1]
        width = self.out_ptr[last + 1] - self.out_ptr[last]
        cum = np.cumsum(width)
        cuts = np.unique(np.searchsorted(cum, np.arange(_CHUNK, cum[-1], _CHUNK), side="right"))
        for start, stop in zip([0, *cuts], [*cuts, len(cliques)]):
            w = width[start:stop]
            rows = np.repeat(np.arange(start, stop), w)
            # Offset of each candidate inside its row's out-neighbourhood.
            offs = np.arange(len(rows)) - np.repeat(np.cumsum(w) - w, w)
            cand = self.dag_v[self.out_ptr[last[rows]] + offs]
            ok = np.ones(len(rows), dtype=bool)
            for j in range(cliques.shape[1] - 1):
                ok &= self._has_dag_edge(cliques[rows, j], cand)
            total += int(ok.sum())
            if keep:
                out.append(np.column_stack([cliques[rows[ok]], cand[ok]]))
        if keep:
            return np.concatenate(out) if out else np.empty((0, cliques.shape[1] + 1), np.int64)
        return total

    def triangles(self) -> np.ndarray:
        if self._tri is None:
            self._tri = self._extend(np.column_stack([self.dag_u, self.dag_v]), keep=True)
        return self._tri

    def cliques(self, k: int) -> int:
        """Number of k-cliques, k >= 3."""
        level = self.triangles()
        for _ in range(4, k):
            level = self._extend(level, keep=True)
        return len(level) if k == 3 else self._extend(level, keep=False)

    def edge_triangles(self) -> np.ndarray:
        """Triangles through each DAG edge, aligned with ``self.keys``."""
        t = self.triangles()
        ids = [np.searchsorted(self.keys, t[:, a] * self.n + t[:, b]) for a, b in ((0, 1), (0, 2), (1, 2))]
        return np.bincount(np.concatenate(ids), minlength=len(self.keys))

    def four_cycles_non_induced(self) -> int:
        """Sum over vertex pairs of C(common neighbours, 2), halved."""
        nb_ptr = np.zeros(self.n + 1, dtype=np.int64)
        a = np.concatenate([self.src, self.dst])
        b = np.concatenate([self.dst, self.src])
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        np.cumsum(np.bincount(a, minlength=self.n), out=nb_ptr[1:])
        pair_keys = []
        for c in range(self.n):
            nb = b[nb_ptr[c] : nb_ptr[c + 1]]
            if len(nb) < 2:
                continue
            i, j = np.triu_indices(len(nb), 1)
            pair_keys.append(nb[i] * self.n + nb[j])
        _, common = np.unique(np.concatenate(pair_keys), return_counts=True)
        return int((common * (common - 1) // 2).sum()) // 2


def _c2(x: np.ndarray) -> int:
    return int((x * (x - 1) // 2).sum())


def motif3(g: Graph) -> dict[str, int]:
    t = len(g.triangles())
    return {"3-path": _c2(g.deg) - 3 * t, "3-clique": t}


def motif4(g: Graph) -> dict[str, int]:
    """Induced 4-motif counts from non-induced ones (standard inversion)."""
    tri = g.triangles()
    t = len(tri)
    te = g.edge_triangles()
    tv = np.bincount(tri.ravel(), minlength=g.n)
    d = g.deg
    k4 = g.cliques(4)
    dia = _c2(te)
    paw = int((tv * (d - 2)).sum())
    c4 = g.four_cycles_non_induced()
    claw = int((d * (d - 1) * (d - 2) // 6).sum())
    p4 = int(((d[g.src] - 1) * (d[g.dst] - 1)).sum()) - 3 * t
    return {
        "4-path": p4 - 2 * paw - 4 * c4 + 6 * dia - 12 * k4,
        "3-star": claw - paw + 2 * dia - 4 * k4,
        "tailed-triangle": paw - 4 * dia + 12 * k4,
        "4-cycle": c4 - dia + 3 * k4,
        "diamond": dia - 6 * k4,
        "4-clique": k4,
    }


def count(g: Graph, workload: tuple):
    """Expected ``run_cell`` value of an unlabeled workload on ``g``."""
    kind = workload[0]
    if kind == "tc":
        return g.cliques(3)
    if kind == "kcl":
        return g.cliques(workload[1])
    if kind in ("sl", "counting") and workload[1] == "diamond":
        return _c2(g.edge_triangles())
    if workload in (("mc", 3), ("counting", "3-motif")):
        return motif3(g)
    if workload == ("counting", "4-motif"):
        return motif4(g)
    raise ValueError(f"no oracle for {workload!r}")


def fsm_frequent(adj, labels, sigma: int) -> int:
    """Number of 3-FSM patterns with domain support >= ``sigma``."""
    import duckdb

    from repro.core.fsm import support_sql

    con = duckdb.connect()
    try:
        con.register("adj", adj)
        con.register("labels", labels)
        union = " UNION ALL ".join(
            f"SELECT * FROM ({support_sql(k)})" for k in ("edge", "wedge", "tri")
        )
        return int(con.execute(f"SELECT COUNT(*) FROM ({union}) WHERE support >= {sigma}").fetchone()[0])
    finally:
        con.close()


def normalise(value):
    """A ``run_cell`` value as JSON holds it."""
    if isinstance(value, dict):
        return {str(k): int(v) for k, v in value.items()}
    return None if value is None else int(value)


def outcomes(workload: str, seed: int, edges: dict) -> dict[str, list]:
    """label -> [status, value] for every query of the mix, on the graphs
    of ``seed``; ``edges`` maps each non-FSM graph to its edge array. Meant
    for a fresh process: it applies the seed itself."""
    from repro.graph import gen

    mixes.apply_seed(seed)
    graphs: dict[str, Graph] = {}
    out = {}
    for q in mixes.MIXES[workload]:
        if q.expect != "ok":
            out[q.label] = [q.expect, None]
        elif q.workload[0] == "fsm":
            v = fsm_frequent(gen.adj_pdf(q.graph), gen.labels_pdf(q.graph), q.workload[1])
            out[q.label] = ["ok", v]
        else:
            if q.graph not in graphs:
                graphs[q.graph] = Graph(edges[q.graph], gen._spec(q.graph).n)
            out[q.label] = ["ok", normalise(count(graphs[q.graph], q.workload))]
    return out


if __name__ == "__main__":
    import json
    import sys

    workload, seed, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with np.load(path) as edges:
        print(json.dumps(outcomes(workload, seed, dict(edges))))
