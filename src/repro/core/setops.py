"""Device primitives for set operations (paper SS6).

The paper's GPM kernels spend 75-92% of their time in three set primitives
over sorted vertex lists: intersection, difference, and bounding. G2Miner
implements them with warp-level SIMD instructions (``__ballot_sync`` /
``__popc``); CPU systems execute them scalar.

This module ports that split:

- ``NumpySetOps``  — vectorised numpy kernels: the SIMD/warp analog used by
                     the G2Miner and GraphZero engine configurations.
- ``PythonSetOps`` — pure-Python two-pointer merges: the scalar-CPU analog
                     used by the Peregrine/DistGraph configurations. The
                     measured gap between the two backends is this
                     reproduction's stand-in for the paper's GPU-vs-CPU
                     throughput gap, so the relative ordering of systems in
                     the evaluation tables emerges from real execution.
- ``SegmentedSetOps`` — the numpy primitives over a slice of tasks at once
                     (G2Miner's batch kernels, the counting sweep, and the
                     LGS build). The dense format of SS6.2 (opt F) is
                     ``CSRGraph.local_graph``.

All sorted-list inputs/outputs are ascending int64 numpy arrays with unique
elements (the CSR invariant). Every op also reports the number of element
touches via the optional ``Counter`` so the multi-GPU scheduling simulation
can use measured per-task work.
"""
from __future__ import annotations

import numpy as np


class Counter:
    """Accumulates element-touch counts (the work metric for scheduling)."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops = 0


class NumpySetOps:
    """Vectorised sorted-list primitives (the SIMD-aware library, SS6.1)."""

    name = "numpy"

    @staticmethod
    def intersect(a: np.ndarray, b: np.ndarray, ctr: Counter | None = None) -> np.ndarray:
        if ctr is not None:
            ctr.ops += len(a) + len(b)
        if len(a) == 0 or len(b) == 0:
            return a[:0]
        # Binary-search formulation (the paper finds binary search least
        # divergent on GPU): probe the smaller list into the larger one.
        if len(a) > len(b):
            a, b = b, a
        idx = np.searchsorted(b, a)
        idx[idx == len(b)] = len(b) - 1
        return a[b[idx] == a]

    @staticmethod
    def difference(a: np.ndarray, b: np.ndarray, ctr: Counter | None = None) -> np.ndarray:
        if ctr is not None:
            ctr.ops += len(a) + len(b)
        if len(a) == 0 or len(b) == 0:
            return a
        idx = np.searchsorted(b, a)
        idx[idx == len(b)] = len(b) - 1
        return a[b[idx] != a]

    @staticmethod
    def bound_upper(a: np.ndarray, y: int, ctr: Counter | None = None) -> np.ndarray:
        """Set bounding: {x in a | x < y} (early exit on sorted lists)."""
        if ctr is not None:
            ctr.ops += int(np.log2(len(a) + 1)) + 1
        return a[: np.searchsorted(a, y)]

    @staticmethod
    def bound_lower(a: np.ndarray, y: int, ctr: Counter | None = None) -> np.ndarray:
        """{x in a | x > y}."""
        if ctr is not None:
            ctr.ops += int(np.log2(len(a) + 1)) + 1
        return a[np.searchsorted(a, y, side="right"):]

    @staticmethod
    def remove(a: np.ndarray, vals, ctr: Counter | None = None) -> np.ndarray:
        """Identity exclusion: drop the (few) explicit values in ``vals``."""
        if len(a) == 0:
            return a
        mask = np.ones(len(a), dtype=bool)
        for v in vals:
            i = np.searchsorted(a, v)
            if i < len(a) and a[i] == v:
                mask[i] = False
        if ctr is not None:
            ctr.ops += len(vals)
        return a[mask]


class PythonSetOps:
    """Scalar two-pointer primitives (the CPU-system analog).

    Deliberately interpreter-bound: each comparison is a Python bytecode,
    mirroring scalar per-element execution on a CPU core versus the
    vectorised (warp) kernels above.
    """

    name = "python"

    @staticmethod
    def intersect(a: np.ndarray, b: np.ndarray, ctr: Counter | None = None) -> np.ndarray:
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        al, bl = a.tolist(), b.tolist()
        while i < la and j < lb:
            x, y = al[i], bl[j]
            if x == y:
                out.append(x)
                i += 1
                j += 1
            elif x < y:
                i += 1
            else:
                j += 1
        if ctr is not None:
            ctr.ops += la + lb
        return np.array(out, dtype=np.int64)

    @staticmethod
    def difference(a: np.ndarray, b: np.ndarray, ctr: Counter | None = None) -> np.ndarray:
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        al, bl = a.tolist(), b.tolist()
        while i < la:
            if j >= lb or al[i] < bl[j]:
                out.append(al[i])
                i += 1
            elif al[i] == bl[j]:
                i += 1
                j += 1
            else:
                j += 1
        if ctr is not None:
            ctr.ops += la + lb
        return np.array(out, dtype=np.int64)

    @staticmethod
    def bound_upper(a: np.ndarray, y: int, ctr: Counter | None = None) -> np.ndarray:
        out = []
        for x in a.tolist():
            if x >= y:
                break  # early exit enabled by the sorted neighbor lists
            out.append(x)
        if ctr is not None:
            ctr.ops += len(out) + 1
        return np.array(out, dtype=np.int64)

    @staticmethod
    def bound_lower(a: np.ndarray, y: int, ctr: Counter | None = None) -> np.ndarray:
        out = [x for x in a.tolist() if x > y]
        if ctr is not None:
            ctr.ops += len(a)
        return np.array(out, dtype=np.int64)

    @staticmethod
    def remove(a: np.ndarray, vals, ctr: Counter | None = None) -> np.ndarray:
        vs = set(int(v) for v in vals)
        out = [x for x in a.tolist() if x not in vs]
        if ctr is not None:
            ctr.ops += len(a)
        return np.array(out, dtype=np.int64)


BACKENDS = {"numpy": NumpySetOps, "python": PythonSetOps}


class SegmentedSetOps:
    """The same primitives over a *slice* of tasks at once (batch kernels).

    A segmented set ``(S, G)`` holds one sorted candidate set per row of a
    slice: ``S`` is the concatenation of the rows' sets and ``G[i]`` the
    row that ``S[i]`` belongs to (non-decreasing). Row operands are arrays
    ``W`` with one data vertex per row. Each op is a few whole-slice numpy
    calls and charges ``ctr`` exactly what ``NumpySetOps`` charges when
    applied row by row, so batch and per-task kernels report equal work.

    A level's first intersection probes the smaller list into the larger;
    membership searches keys built from the distinct operand rows when
    they fit in the slice, and searches inside the CSR rows otherwise,
    never a graph-sized key array.
    """

    #: Flattened elements per slice: the batch kernels' per-partition
    #: buffer, charged to the memory ledger next to the opt-K buffers.
    SLICE = 2048

    @staticmethod
    def gather(ptr: np.ndarray, vals: np.ndarray, rows: np.ndarray):
        """Concatenate ``vals[ptr[r]:ptr[r+1]]`` for each r in ``rows``;
        with a CSR ``(indptr, indices)`` this is the rows' neighbour lists."""
        starts = ptr[rows]
        lens = ptr[rows + 1] - starts
        G = np.repeat(np.arange(len(rows)), lens)
        shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        return vals[np.arange(len(G)) + shift], G

    @staticmethod
    def ptr(G: np.ndarray, nrows: int) -> np.ndarray:
        """Row offsets of a segmented set (its CSR ``indptr``)."""
        out = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(G, minlength=nrows), out=out[1:])
        return out

    @staticmethod
    def parents(G: np.ndarray):
        """``(rows, P)``: the distinct rows of ``G`` and, per element, the
        index of its row in ``rows``."""
        new = np.ones(len(G), dtype=bool)
        new[1:] = G[1:] != G[:-1]
        return G[new], np.cumsum(new) - 1

    @staticmethod
    def chunks(cost: np.ndarray, budget: int):
        """Cut rows into contiguous ``(a, b)`` ranges whose summed ``cost``
        stays within ``budget`` plus one row's cost; every row costs at
        least one, so a range holds at most ``budget`` rows."""
        if len(cost) == 0:
            return []
        cum = np.cumsum(np.maximum(cost, 1))
        cuts = np.searchsorted(cum, np.arange(budget, cum[-1], budget), side="right")
        b = np.unique(np.concatenate(([0], cuts, [len(cost)])))
        return zip(b[:-1].tolist(), b[1:].tolist())

    @classmethod
    def _member(cls, S, G, W, indptr, indices) -> np.ndarray:
        """Mask of ``S[i] in N(W[G[i]])``. When the lists of the distinct
        operand rows of the rows still holding candidates fit in a slice
        plus one row, one ``searchsorted`` against their keys
        ``rank * n + vertex``; else a binary search inside the CSR rows,
        all elements in lockstep, that builds only S-sized arrays."""
        if len(S) == 0:
            return np.zeros(0, dtype=bool)
        rows, P = cls.parents(G)
        u, inv = np.unique(W[rows], return_inverse=True)
        du = indptr[u + 1] - indptr[u]
        if du.sum() <= cls.SLICE + du.max():
            hv, hg = cls.gather(indptr, indices, u)
            if len(hv) == 0:
                return np.zeros(len(S), dtype=bool)
            n = len(indptr) - 1
            keys = hg * n + hv
            q = inv[P] * n + S
            return keys[np.minimum(np.searchsorted(keys, q), len(keys) - 1)] == q
        w = W[G]
        pos, end = indptr[w], indptr[w + 1]
        last = len(indices) - 1
        step = 1 << int((end - pos).max()).bit_length()
        while step := step >> 1:
            nxt = pos + step
            pos = np.where((nxt <= end) & (indices[np.minimum(nxt - 1, last)] < S), nxt, pos)
        return (pos < end) & (indices[np.minimum(pos, last)] == S)

    @staticmethod
    def _touch(ctr: Counter | None, S, indptr, W) -> None:
        if ctr is not None:
            ctr.ops += len(S) + int((indptr[W + 1] - indptr[W]).sum())

    @classmethod
    def gather_intersect(cls, indptr, indices, Wa, Wb, ctr: Counter | None = None):
        """Per row r: N(Wa[r]) ∩ N(Wb[r]), probing the smaller list into
        the larger like ``NumpySetOps.intersect``."""
        da = indptr[Wa + 1] - indptr[Wa]
        db = indptr[Wb + 1] - indptr[Wb]
        if ctr is not None:
            ctr.ops += int(da.sum() + db.sum())
        swap = db < da
        S, G = cls.gather(indptr, indices, np.where(swap, Wb, Wa))
        hit = cls._member(S, G, np.where(swap, Wa, Wb), indptr, indices)
        return S[hit], G[hit]

    @classmethod
    def intersect(cls, S, G, W, indptr, indices, ctr: Counter | None = None):
        """Per row r: S_r ∩ N(W[r])."""
        cls._touch(ctr, S, indptr, W)
        hit = cls._member(S, G, W, indptr, indices)
        return S[hit], G[hit]

    @classmethod
    def difference(cls, S, G, W, indptr, indices, ctr: Counter | None = None):
        """Per row r: S_r - N(W[r])."""
        cls._touch(ctr, S, indptr, W)
        hit = cls._member(S, G, W, indptr, indices)
        return S[~hit], G[~hit]

    @staticmethod
    def _bound_ops(G, nrows: int, ctr: Counter | None) -> None:
        if ctr is not None:
            sizes = np.bincount(G, minlength=nrows)
            ctr.ops += int(np.log2(sizes + 1).astype(np.int64).sum()) + nrows

    @staticmethod
    def bound_upper(S, G, W, ctr: Counter | None = None):
        """Per row r: {x in S_r | x < W[r]}."""
        SegmentedSetOps._bound_ops(G, len(W), ctr)
        keep = S < W[G]
        return S[keep], G[keep]

    @staticmethod
    def bound_lower(S, G, W, ctr: Counter | None = None):
        """Per row r: {x in S_r | x > W[r]}."""
        SegmentedSetOps._bound_ops(G, len(W), ctr)
        keep = S > W[G]
        return S[keep], G[keep]

    @staticmethod
    def remove(S, G, Ws, ctr: Counter | None = None):
        """Per row r: S_r minus the values ``w[r]`` for each w in ``Ws``."""
        if ctr is not None and len(Ws):
            nrows = len(Ws[0])
            ctr.ops += len(Ws) * int(np.count_nonzero(np.bincount(G, minlength=nrows)))
        keep = np.ones(len(S), dtype=bool)
        for W in Ws:
            keep &= S != W[G]
        return S[keep], G[keep]

    # -- counting without materialising: row r reads the segment P[r] of
    # a shared set H, narrowed to the key range [lo, hi) by bounds -------

    @staticmethod
    def ranges(H, GH, HP, P, n: int):
        """Keys ``GH * n + H`` and each row's full range in them
        (``HP = ptr(GH, ...)``)."""
        return GH * n + H, HP[P], HP[P + 1]

    @staticmethod
    def range_upper(K, lo, hi, P, W, n: int, ctr: Counter | None = None):
        """Bound every row's range to values < W[r] (``bound_upper``)."""
        if ctr is not None:
            ctr.ops += int(np.log2(hi - lo + 1).astype(np.int64).sum()) + len(lo)
        hi = np.maximum(np.minimum(hi, np.searchsorted(K, P * n + W)), lo)
        return lo, hi

    @staticmethod
    def range_lower(K, lo, hi, P, W, n: int, ctr: Counter | None = None):
        """Bound every row's range to values > W[r] (``bound_lower``)."""
        if ctr is not None:
            ctr.ops += int(np.log2(hi - lo + 1).astype(np.int64).sum()) + len(lo)
        lo = np.minimum(np.maximum(lo, np.searchsorted(K, P * n + W, side="right")), hi)
        return lo, hi

    @staticmethod
    def range_count(K, lo, hi, P, Ws, n: int, ctr: Counter | None = None) -> int:
        """Total size of the ranges after removing the values ``w[r]`` for
        each w in ``Ws`` (``remove``); the rows' values are distinct."""
        total = int((hi - lo).sum())
        if Ws and ctr is not None:
            ctr.ops += len(Ws) * int(np.count_nonzero(hi > lo))
        for W in Ws:
            q = P * n + W
            pos = np.searchsorted(K, q)
            inside = (pos >= lo) & (pos < hi)
            total -= int(np.count_nonzero(K[pos[inside]] == q[inside]))
        return total
