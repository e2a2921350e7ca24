"""The task slices each Spark task builds inside the worker, without Spark.

``engine_dfs.run_pass`` never ships the task list: each of its S Spark
tasks rebuilds it from the broadcast CSR and keeps its slice. On random
graphs the S slices must be the driver's task list exactly once, split
along whole chunked round-robin bins.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.engine_dfs import DFSConfig, task_slice, worker_tasks
from repro.graph.csr import CSRGraph, build_csr
from repro.sched.policies import assign

NUM_PARTITIONS = DFSConfig().num_partitions


@st.composite
def graphs(draw):
    """Random graphs up to ~6k edge tasks, so bins take several chunks."""
    n = draw(st.integers(min_value=0, max_value=80))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    src, dst = np.triu_indices(n, 1)
    keep = rng.random(len(src)) < p
    return build_csr(np.stack([src[keep], dst[keep]], axis=1), n=n)


def driver_tasks(g: CSRGraph, kind: str) -> tuple[CSRGraph, str, np.ndarray]:
    """(graph, worker task kind, the task list the driver would build)."""
    if kind == "oriented":
        go = g.orient()
        return go, "all", go.edge_tasks("all")
    if kind == "vertex":
        return g, "vertex", np.arange(g.n, dtype=np.int64)
    return g, kind, g.edge_tasks(kind)


def rows_sorted(a: np.ndarray) -> np.ndarray:
    a = a if a.ndim == 2 else a[:, None]
    return a[np.lexsort(a.T[::-1])]


@pytest.mark.parametrize("kind", ["oriented", "all", "lt", "gt", "vertex"])
@pytest.mark.parametrize("S", [1, 3, 4, 16])
@given(g=graphs())
def test_slices_are_whole_bins_of_the_task_list(kind, S, g):
    g, wkind, want = driver_tasks(g, kind)
    # What a Spark task sees: the CSR rebuilt from the broadcast arrays.
    wg = CSRGraph(g.indptr, g.indices, directed=g.directed)
    m = len(want)
    got = [worker_tasks(wg, wkind, s, S, NUM_PARTITIONS) for s in range(S)]
    assert np.array_equal(rows_sorted(np.concatenate(got)), rows_sorted(want))

    idx = [task_slice(m, s, S, NUM_PARTITIONS) for s in range(S)]
    for s in range(S):
        assert np.array_equal(got[s], want[idx[s]])
    flat = np.concatenate(idx)
    assert len(flat) == m and len(np.unique(flat)) == m  # pairwise disjoint

    bins = assign(m, NUM_PARTITIONS, "chunked_rr", chunk=32)
    last = -1
    for ix in idx:
        mine = np.unique(bins[ix])
        assert np.isin(bins, mine).sum() == len(ix)  # whole bins only
        if len(mine):
            assert mine[0] > last  # bins grouped contiguously, in order
            last = mine[-1]


@pytest.mark.parametrize("S", [1, 3, 4, 16])
@given(m=st.integers(min_value=0, max_value=5000))
def test_unchunked_slices_split_contiguously(S, m):
    """Without the chunked schedule a Spark task takes a contiguous range."""
    idx = [task_slice(m, s, S, None) for s in range(S)]
    assert np.array_equal(np.concatenate(idx), np.arange(m))
    assert max(map(len, idx)) - min(map(len, idx)) <= 1
