"""Randomised equivalence of the edge-parallel batch kernels, without Spark.

On small random graphs every plan the batch kernel serves must give the
per-task kernel's count, networkx must agree on triangles, cliques and
induced 3/4-motifs, and ``Counter.ops`` must match the per-task kernel
except for exactly the ops the leaf hoisting saves.
"""
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import codegen, counting
from repro.core.engine_dfs import _local_clique_count, oriented_clique_plan
from repro.core.pattern import cycle, diamond, motifs
from repro.core.plan import build_plan
from repro.core.setops import Counter, NumpySetOps, SegmentedSetOps
from repro.graph.csr import build_csr


class TinySlice(SegmentedSetOps):
    """Slices of a few elements, so chunk boundaries fall inside tasks'
    candidate sets and membership keys are gathered in several groups on
    graphs this small."""

    SLICE = 3


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=11))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    return build_csr(np.array(edges, dtype=np.int64).reshape(-1, 2), n=n)


#: The oriented 3-clique (TC) plus every 3/4-motif plan, induced and not;
#: the latter include the diamond and the 4-cycle of SL.
PLANS = [("3-clique-oriented", None)] + [
    (f"{p.name}-{'vi' if ind else 'ei'}", build_plan(p, induced=ind))
    for p in motifs(3) + motifs(4)
    for ind in (True, False)
]


def plan_and_graph(plan, g):
    if plan is None:
        return oriented_clique_plan(3), g.orient()
    return plan, g


def edge_tasks(plan, g):
    if g.directed:
        return g.edge_tasks("all")
    if (0, 1) in plan.sym:
        return g.edge_tasks("lt")
    if (1, 0) in plan.sym:
        return g.edge_tasks("gt")
    return g.edge_tasks("all")


def per_task(plan, g, tasks):
    kernel = codegen.compile_kernel(plan, "edge")
    ctr = Counter()
    total = sum(
        kernel(int(a), int(b), g.indptr, g.indices, NumpySetOps, ctr) for a, b in tasks
    )
    return total, ctr.ops


def batch(plan, g, tasks, seg=TinySlice):
    ns: dict = {}
    exec(codegen.batch_source(plan), ns)
    ctr = Counter()
    total = ns["kernel"](
        tasks[:, 0].copy(), tasks[:, 1].copy(), g.indptr, g.indices, g.degrees, seg, ctr
    )
    return total, ctr.ops


def run_chain(g, first, chain, vs, ctr):
    """One level's set program, per task, on the per-task primitives."""
    S = g.neighbors(vs[first])
    for op, j in chain:
        if op in ("intersect", "difference"):
            S = getattr(NumpySetOps, op)(S, g.neighbors(vs[j]), ctr)
        elif op == "remove":
            S = NumpySetOps.remove(S, tuple(vs[x] for x in j), ctr)
        else:
            S = getattr(NumpySetOps, op)(S, vs[j], ctr)
    return S


def hoisted_savings(plan, g, tasks) -> int:
    """Ops the per-task k=4 kernel spends re-running the hoisted leaf
    prefix: (candidates - 1) * prefix ops, per task with candidates."""
    h = codegen.leaf_hoist(plan)
    if not h:
        return 0
    lfirst, lchain = codegen.level_ops(plan, 3)
    saved = 0
    for v0, v1 in tasks.tolist():
        cands = run_chain(g, *codegen.level_ops(plan, 2), [v0, v1], None)
        if len(cands):
            ctr = Counter()
            run_chain(g, lfirst, lchain[:h], [v0, v1], ctr)
            saved += (len(cands) - 1) * ctr.ops
    return saved


def nx_graph(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edge_tasks("lt").tolist())
    return G


def nx_cliques(G, k):
    return sum(1 for c in nx.enumerate_all_cliques(G) if len(c) == k)


def nx_induced_motifs(G, k):
    pats = {p.name: nx.Graph(list(p.edges)) for p in motifs(k)}
    out = dict.fromkeys(pats, 0)
    for sub in combinations(G.nodes, k):
        H = G.subgraph(sub)
        if nx.is_connected(H):
            out[next(n for n, P in pats.items() if nx.is_isomorphic(H, P))] += 1
    return out


@pytest.mark.parametrize("name,plan", PLANS, ids=[n for n, _ in PLANS])
@given(g=graphs())
def test_batch_equals_per_task(name, plan, g):
    plan, g = plan_and_graph(plan, g)
    tasks = edge_tasks(plan, g)
    want, want_ops = per_task(plan, g, tasks)
    got, got_ops = batch(plan, g, tasks)
    assert got == want
    assert batch(plan, g, tasks, SegmentedSetOps)[0] == want
    if plan.k == 3:
        assert got_ops == want_ops
    else:
        assert got_ops == want_ops - hoisted_savings(plan, g, tasks)


@given(g=graphs(), data=st.data())
def test_segmented_ops_match_per_row(g, data):
    """Each segmented op equals its ``NumpySetOps`` op row by row, in
    values and in charged ops; so do the range-counting forms."""
    seg, n = TinySlice, g.n
    verts = st.lists(st.integers(0, n - 1), min_size=1, max_size=6)
    A = np.array(data.draw(verts), dtype=np.int64)
    W = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=len(A), max_size=len(A))),
                 dtype=np.int64)
    S, G = seg.gather(g.indptr, g.indices, A)
    for op in ["intersect", "difference", "bound_upper", "bound_lower", "remove"]:
        got_ctr, want_ctr = Counter(), Counter()
        if op in ("intersect", "difference"):
            got = getattr(seg, op)(S, G, W, g.indptr, g.indices, got_ctr)
            want = [getattr(NumpySetOps, op)(g.neighbors(a), g.neighbors(w), want_ctr)
                    for a, w in zip(A, W)]
        elif op == "remove":
            got = seg.remove(S, G, (W,), got_ctr)
            want = [NumpySetOps.remove(g.neighbors(a), (w,), want_ctr) for a, w in zip(A, W)]
        else:
            got = getattr(seg, op)(S, G, W, got_ctr)
            want = [getattr(NumpySetOps, op)(g.neighbors(a), w, want_ctr) for a, w in zip(A, W)]
        for r, w in enumerate(want):
            assert got[0][got[1] == r].tolist() == w.tolist(), op
        assert got_ctr.ops == want_ctr.ops, op
    # Range counting: row q reads row P[q]'s set, bounded by (lo_w, up_w).
    P = np.array(data.draw(st.lists(st.integers(0, len(A) - 1), max_size=6)), dtype=np.int64)
    lo_w, up_w, rm_w = (
        np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=len(P), max_size=len(P))),
                 dtype=np.int64)
        for _ in range(3)
    )
    got_ctr, want_ctr = Counter(), Counter()
    K, lo, hi = seg.ranges(S, G, seg.ptr(G, len(A)), P, n)
    lo, hi = seg.range_upper(K, lo, hi, P, up_w, n, got_ctr)
    lo, hi = seg.range_lower(K, lo, hi, P, lo_w, n, got_ctr)
    got = seg.range_count(K, lo, hi, P, (rm_w,), n, got_ctr)
    want = 0
    for p, lw, uw, rw in zip(P, lo_w, up_w, rm_w):
        x = NumpySetOps.bound_upper(g.neighbors(A[p]), uw, want_ctr)
        x = NumpySetOps.bound_lower(x, lw, want_ctr)
        want += len(NumpySetOps.remove(x, (rw,), want_ctr))
    assert got == want
    assert got_ctr.ops == want_ctr.ops


def test_hoisting_applies_to_diamond():
    """The diamond leaf's N0 ∩ N1 does not depend on v2."""
    assert codegen.leaf_hoist(build_plan(diamond(), induced=False)) == 1
    assert codegen.leaf_hoist(build_plan(cycle(4), induced=False)) is None


def test_unreduced_batch_kernel_guards():
    g = build_csr(np.array([[0, 1], [1, 2], [0, 2], [2, 3], [1, 3]]))
    plan = build_plan(diamond(), induced=False)
    ns: dict = {}
    exec(codegen.batch_source(plan, assume_reduced=False), ns)
    tasks = g.edge_tasks("all")
    got = ns["kernel"](
        tasks[:, 0].copy(), tasks[:, 1].copy(), g.indptr, g.indices, g.degrees,
        SegmentedSetOps, Counter(),
    )
    assert got == per_task(plan, g, edge_tasks(plan, g))[0] == 1


@given(g=graphs())
def test_counts_match_networkx(g):
    G = nx_graph(g)
    go = g.orient()
    tri, _ = batch(oriented_clique_plan(3), go, go.edge_tasks("all"))
    assert tri == nx_cliques(G, 3)
    for k in (3, 4):
        want = nx_induced_motifs(G, k)
        for p in motifs(k):
            plan = build_plan(p, induced=True)
            assert batch(plan, g, edge_tasks(plan, g))[0] == want[p.name], p.name


@given(g=graphs())
def test_stats_sweep_batch_equals_tasks(g):
    tasks = g.edge_tasks("gt")
    U, V = tasks[:, 0].copy(), tasks[:, 1].copy()
    a, b = Counter(), Counter()
    got = counting._stats_batch(U, V, g.indptr, g.indices, g.degrees, a)
    want = counting._stats_tasks(U, V, g.indptr, g.indices, g.degrees, NumpySetOps, b)
    assert got == want
    assert a.ops == b.ops
    assert got[0] == 3 * nx_cliques(nx_graph(g), 3)


@pytest.mark.parametrize("k", [4, 5])
@given(g=graphs())
def test_lgs_count_matches(k, g):
    go = g.orient()
    lgs = sum(
        _local_clique_count(go.local_graph(go.neighbors(v)), k - 1) for v in range(go.n)
    )
    tasks = go.edge_tasks("all")
    assert lgs == nx_cliques(nx_graph(g), k)
    assert lgs == batch(oriented_clique_plan(k), go, tasks)[0]
    assert lgs == per_task(oriented_clique_plan(k), go, tasks)[0]
