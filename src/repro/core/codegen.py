"""Pattern-specific code generation (paper SS5).

G2Miner's code generator turns a search plan into pattern-specific CUDA
kernels. This port generates two artifacts from the same ``SearchPlan``:

1. **DFS kernels** — Python source for the nested-loop search program
   (Algorithm 1 shape: one loop per level, set-op calls against the
   primitive library, symmetry-breaking bounds, leaf counted with ``len``),
   compiled with ``exec``. One kernel per (pattern, parallelism mode),
   exactly like one CUDA kernel per pattern. The generated source is kept
   on the function object (``kernel.__source__``) for inspection/tests.

2. **Pattern SQL** — a join-chain query over a symmetric adjacency table
   ``adj(src, dst)`` with NOT EXISTS anti-edges and symmetry predicates.
   The same text runs on Spark Catalyst (the BFS engines build the
   equivalent DataFrame chain) and on DuckDB (the correctness oracle), so
   every engine result is checked against an independently generated and
   independently executed query.
"""
from __future__ import annotations

from repro.core.plan import SearchPlan


def level_ops(plan: SearchPlan, i: int) -> tuple[int, list[tuple[str, object]]]:
    """The set program of level ``i``: its first operand position and the
    ``(op, operand)`` chain applied to it, in execution order. ``operand``
    is a position, or a tuple of positions for ``remove``."""
    conn = plan.conn[i]
    chain: list[tuple[str, object]] = [("intersect", j) for j in conn[1:]]
    if plan.induced:
        chain += [("difference", j) for j in plan.anti[i]]
    chain += [("bound_upper", j) for j in plan.upper[i]]
    chain += [("bound_lower", j) for j in plan.lower[i]]
    if plan.excl[i]:
        chain.append(("remove", tuple(plan.excl[i])))
    return conn[0], chain


def _operands(op: tuple[str, object]) -> tuple[int, ...]:
    return op[1] if op[0] == "remove" else (op[1],)


def _level_body(plan: SearchPlan, i: int, lines: list[str], ind: str,
                needed_nbrs: set[int]) -> None:
    """Emit code computing candidate set ``S{i}`` and the loop/leaf for
    level ``i`` (recursive over levels)."""
    k = plan.k
    first, chain = level_ops(plan, i)
    if not chain:
        lines.append(f"{ind}S{i} = N{first}")
    cur = f"N{first}"
    for op, j in chain:
        if op in ("intersect", "difference"):
            lines.append(f"{ind}S{i} = ops.{op}({cur}, N{j}, ctr)")
        elif op == "remove":
            vals = ", ".join(f"v{x}" for x in j) + ","
            lines.append(f"{ind}S{i} = ops.remove({cur}, ({vals}), ctr)")
        else:
            lines.append(f"{ind}S{i} = ops.{op}({cur}, v{j}, ctr)")
        cur = f"S{i}"
    if i == k - 1:
        # Leaf: the candidate set *is* the matches; count with len (the
        # paper's counting-at-the-leaf, valid for listing timings too
        # since S{i} is materialised).
        lines.append(f"{ind}total += len(S{i})")
        return
    lines.append(f"{ind}for v{i} in S{i}:")
    ind2 = ind + "    "
    if i in needed_nbrs:
        lines.append(f"{ind2}N{i} = indices[indptr[v{i}]:indptr[v{i}+1]]")
    _level_body(plan, i + 1, lines, ind2, needed_nbrs)


def kernel_source(plan: SearchPlan, mode: str, *, assume_reduced: bool = True) -> str:
    """Generate the DFS kernel source for ``plan``.

    ``mode='edge'``: the task is an edge (v0, v1) — G2Miner's default
    edge parallelism (SS5.1(2)). ``mode='vertex'``: the task is a root
    vertex v0 and the kernel owns the v1 loop — the CPU-system default.
    ``assume_reduced`` says the task edgelist already satisfies the v0/v1
    symmetry bound (opt J), so no guard is generated.
    """
    k = plan.k
    needed = {j for i in range(2, k) for j in plan.conn[i]}
    if plan.induced:
        needed |= {j for i in range(2, k) for j in plan.anti[i]}
    lines: list[str] = []
    if mode == "edge":
        lines.append("def kernel(v0, v1, indptr, indices, ops, ctr):")
        lines.append("    total = 0")
        if not assume_reduced:
            for j in plan.upper[1]:
                lines.append(f"    if v1 >= v{j}: return 0")
            for j in plan.lower[1]:
                lines.append(f"    if v1 <= v{j}: return 0")
        for j in sorted(needed & {0, 1}):
            lines.append(f"    N{j} = indices[indptr[v{j}]:indptr[v{j}+1]]")
        if k == 2:
            lines.append("    total += 1")
        else:
            _level_body(plan, 2, lines, "    ", needed)
    elif mode == "vertex":
        lines.append("def kernel(v0, indptr, indices, ops, ctr):")
        lines.append("    total = 0")
        lines.append("    N0 = indices[indptr[v0]:indptr[v0+1]]")
        # Level 1: candidates from N0 plus bounds vs v0.
        cur = "N0"
        for j in plan.upper[1]:
            lines.append(f"    S1 = ops.bound_upper({cur}, v{j}, ctr)")
            cur = "S1"
        for j in plan.lower[1]:
            lines.append(f"    S1 = ops.bound_lower({cur}, v{j}, ctr)")
            cur = "S1"
        if k == 2:
            lines.append(f"    total += len({cur})")
        else:
            lines.append(f"    for v1 in {cur}:")
            if 1 in needed:
                lines.append("        N1 = indices[indptr[v1]:indptr[v1+1]]")
            _level_body(plan, 2, lines, "        ", needed)
    else:
        raise ValueError(f"bad mode {mode!r}")
    lines.append("    return total")
    return "\n".join(lines) + "\n"


def compile_kernel(plan: SearchPlan, mode: str, *, assume_reduced: bool = True):
    """Compile the generated source into a callable; the NVCC step."""
    src = kernel_source(plan, mode, assume_reduced=assume_reduced)
    ns: dict = {}
    exec(compile(src, f"<kernel:{plan.pattern.name or 'pattern'}:{mode}>", "exec"), ns)
    fn = ns["kernel"]
    fn.__source__ = src
    return fn


# -- batch kernels (edge parallelism) -----------------------------------

def leaf_hoist(plan: SearchPlan) -> int | None:
    """Buffer/reuse analysis of the leaf: the number of leading leaf ops
    whose operands do not involve v_{k-2}, so a batch kernel computes them
    once per v_{k-3} prefix instead of once per v_{k-2} candidate. ``None``
    when nothing is gained: k < 4, the leaf's first operand is v_{k-2},
    or no op hoists and a set op with N(v_{k-2}) remains."""
    k = plan.k
    if k < 4:
        return None
    first, chain = level_ops(plan, k - 1)
    if first == k - 2:
        return None
    h = 0
    while h < len(chain) and k - 2 not in _operands(chain[h]):
        h += 1
    if h == 0 and any(op in ("intersect", "difference") for op, _ in chain):
        return None
    return h


def _batch_needs(plan: SearchPlan, i: int) -> set[int]:
    """Earlier positions whose row arrays level ``i`` and deeper read."""
    k = plan.k
    first, chain = level_ops(plan, i)
    h = leaf_hoist(plan) if i == k - 1 else None
    if h is not None:
        first, chain = None, chain[h:]
    need = set().union(*(_operands(o) for o in chain))
    if first is not None:
        need.add(first)
    if i < k - 1:
        need |= _batch_needs(plan, i + 1) - {i}
        h = leaf_hoist(plan) if i == k - 2 else None
        if h is not None:
            lfirst, lchain = level_ops(plan, k - 1)
            need |= {lfirst}.union(*(_operands(o) for o in lchain[:h]))
    return need


def _batch_start(first: int, chain, S: str, G: str, rows, lines: list[str], ind: str):
    """Emit the gather of a level's first operand, fused with its first
    intersection when there is one; returns the chain still to emit."""
    if chain and chain[0][0] == "intersect":
        lines.append(
            f"{ind}{S}, {G} = seg.gather_intersect(indptr, indices, "
            f"{rows[first]}, {rows[chain[0][1]]}, ctr)"
        )
        return chain[1:]
    lines.append(f"{ind}{S}, {G} = seg.gather(indptr, indices, {rows[first]})")
    return chain


def _start_cost(first: int, chain, rows) -> str:
    """Per-row size of the set a level starts from: the smaller list of a
    leading intersection (``_batch_start`` probes it into the larger)."""
    if chain and chain[0][0] == "intersect":
        return f"np.minimum(deg[{rows[first]}], deg[{rows[chain[0][1]]}])"
    return f"deg[{rows[first]}]"


def _batch_ops(chain, S: str, G: str, rows, lines: list[str], ind: str) -> None:
    for op, j in chain:
        if op in ("intersect", "difference"):
            args = f"{rows[j]}, indptr, indices"
        elif op == "remove":
            args = "(" + ", ".join(rows[x] for x in j) + ",)"
        else:
            args = rows[j]
        lines.append(f"{ind}{S}, {G} = seg.{op}({S}, {G}, {args}, ctr)")


def _assign(lines: list[str], ind: str, names, exprs) -> None:
    lines.append(f"{ind}{', '.join(names)} = {', '.join(exprs)}")


def _batch_level(plan: SearchPlan, i: int, lines: list[str], ind: str,
                 rows: dict[int, str], hoist: dict | None) -> None:
    """Emit level ``i`` over the rows in ``rows`` (one array per earlier
    position it or a deeper level reads), recursing into the next level
    per chunk. ``hoist`` names the leaf's shared set when it was hoisted."""
    k = plan.k
    first, chain = level_ops(plan, i)
    if hoist is not None:
        chain = hoist["rest"]
        if all(op not in ("intersect", "difference") for op, _ in chain):
            # Only bounds/removals depend on v_{k-2}: count each row's
            # share of the shared set by key ranges, nothing materialised.
            H, GH, HP, P = hoist["H"], hoist["G"], hoist["HP"], hoist["P"]
            lines.append(f"{ind}K, lo, hi = seg.ranges({H}, {GH}, {HP}, {P}, n)")
            removes: tuple = ()
            for op, j in chain:
                if op == "remove":
                    removes = j
                else:
                    rng = op.replace("bound", "range")
                    lines.append(
                        f"{ind}lo, hi = seg.{rng}(K, lo, hi, {P}, {rows[j]}, n, ctr)"
                    )
            ws = "(" + "".join(f"{rows[x]}, " for x in removes) + ")"
            lines.append(f"{ind}total += seg.range_count(K, lo, hi, {P}, {ws}, n, ctr)")
            return
    # Chunks are cut by the size of the sets each row starts from (above a
    # hoisted leaf, the hoisted set's too); the membership search bounds
    # what it gathers of the other operands' lists itself.
    if hoist is not None:
        P, HP = hoist["P"], hoist["HP"]
        costs = [f"{HP}[{P} + 1] - {HP}[{P}]"]
    else:
        costs = [_start_cost(first, chain, rows)]
    h = leaf_hoist(plan) if i + 1 == k - 1 else None
    if h is not None:
        lfirst, lchain = level_ops(plan, k - 1)
        costs += [c for c in [_start_cost(lfirst, lchain[:h], rows)] if c not in costs]
    lines.append(f"{ind}for a{i}, b{i} in seg.chunks({' + '.join(costs)}, seg.SLICE):")
    ind += "    "
    X = {j: f"X{i}_{j}" for j in rows}
    _assign(lines, ind, X.values(), [f"{rows[j]}[a{i}:b{i}]" for j in X])
    S, G = f"S{i}", f"G{i}"
    if hoist is not None:
        lines.append(
            f"{ind}{S}, {G} = seg.gather({hoist['HP']}, {hoist['H']}, {hoist['P']}[a{i}:b{i}])"
        )
    else:
        chain = _batch_start(first, chain, S, G, X, lines, ind)
    _batch_ops(chain, S, G, X, lines, ind)
    if i == k - 1:
        lines.append(f"{ind}total += len({S})")
        return
    nxt = {j: f"Y{i + 1}_{j}" for j in sorted(_batch_needs(plan, i + 1))}
    _assign(lines, ind, nxt.values(), [f"{X[j]}[{G}]" if j < i else S for j in nxt])
    sub = None
    if h is not None:
        R, P = f"R{i}", f"P{k - 1}"
        lines.append(f"{ind}{R}, {P} = seg.parents({G})")
        used = sorted({lfirst}.union(*(_operands(o) for o in lchain[:h])))
        Z = {j: f"Z{i}_{j}" for j in used}
        _assign(lines, ind, Z.values(), [f"{X[j]}[{R}]" for j in used])
        H, GH = f"H{k - 1}", f"GH{k - 1}"
        rest = _batch_start(lfirst, lchain[:h], H, GH, Z, lines, ind)
        _batch_ops(rest, H, GH, Z, lines, ind)
        HP = f"HP{k - 1}"
        lines.append(f"{ind}{HP} = seg.ptr({GH}, len({R}))")
        sub = {"H": H, "G": GH, "P": P, "HP": HP, "rest": lchain[h:]}
    _batch_level(plan, i + 1, lines, ind, nxt, sub)


def batch_source(plan: SearchPlan, *, assume_reduced: bool = True) -> str:
    """Generate the *batch* kernel for edge parallelism.

    The kernel takes a slice of edge tasks as two arrays and runs every
    level as segmented set ops (``setops.SegmentedSetOps``) over the
    whole slice: each level's candidates become the next level's rows,
    cut into chunks of about ``seg.SLICE`` flattened elements. Leaf ops
    that do not depend on v_{k-2} are hoisted (``leaf_hoist``) and run
    once per prefix; when only bounds and removals remain, the leaf is
    counted from key ranges without materialising per-candidate sets.
    """
    lines = [
        "import numpy as np",
        "",
        "",
        "def kernel(V0, V1, indptr, indices, deg, seg, ctr):",
        "    n = len(indptr) - 1",
        "    total = 0",
    ]
    if not assume_reduced:
        keep = [f"(V1 < V{j})" for j in plan.upper[1]]
        keep += [f"(V1 > V{j})" for j in plan.lower[1]]
        if keep:
            lines.append(f"    keep = {' & '.join(keep)}")
            lines.append("    V0, V1 = V0[keep], V1[keep]")
    if plan.k == 2:
        lines.append("    total += len(V0)")
    else:
        rows = {j: f"V{j}" for j in sorted(_batch_needs(plan, 2))}
        _batch_level(plan, 2, lines, "    ", rows, None)
    lines.append("    return total")
    return "\n".join(lines) + "\n"


# -- SQL generation ------------------------------------------------------

def pattern_sql(plan: SearchPlan, *, adj: str = "adj") -> str:
    """Generate the counting SQL for ``plan`` over a symmetric adjacency
    table ``adj(src, dst)``.

    The query introduces data vertices in matching order: v0, v1 come from
    the first adjacency row; each later level joins one adjacency row per
    pattern edge, adds NOT EXISTS per anti-edge (vertex-induced only),
    and symmetry/exclusion predicates. Returns one row ``cnt``.
    """
    v = {0: "e1.src", 1: "e1.dst"}
    joins = [f"{adj} e1"]
    preds: list[str] = []
    for i in range(2, plan.k):
        conn = plan.conn[i]
        a0 = f"e{i}_{conn[0]}"
        joins.append(f"{adj} {a0}")
        preds.append(f"{a0}.src = {v[conn[0]]}")
        v[i] = f"{a0}.dst"
        for j in conn[1:]:
            al = f"e{i}_{j}"
            joins.append(f"{adj} {al}")
            preds.append(f"{al}.src = {v[j]}")
            preds.append(f"{al}.dst = {v[i]}")
        if plan.induced:
            for j in plan.anti[i]:
                preds.append(
                    f"NOT EXISTS (SELECT 1 FROM {adj} x{i}_{j} "
                    f"WHERE x{i}_{j}.src = {v[j]} AND x{i}_{j}.dst = {v[i]})"
                )
        for j in plan.excl[i]:
            preds.append(f"{v[i]} <> {v[j]}")
    for (i, j) in plan.sym:
        preds.append(f"{v[i]} < {v[j]}")
    where = ("\nWHERE " + "\n  AND ".join(preds)) if preds else ""
    return (
        "SELECT COUNT(*) AS cnt\nFROM "
        + ",\n     ".join(joins)
        + where
    )
