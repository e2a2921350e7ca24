"""Code-generator tests: generated kernels and generated SQL must agree
with each other and with DuckDB, for every pattern and both parallelism
modes — the reproduction's equivalent of validating NVCC kernel output.
"""
import duckdb
import numpy as np
import pytest

from repro.core import codegen
from repro.core.pattern import clique, cycle, diamond, motifs, path, star, tailed_triangle
from repro.core.plan import build_plan
from repro.core.setops import BACKENDS, Counter
from repro.graph.csr import build_csr
from repro.graph.gen import adj_pdf, generate_graph

CASES = (
    [(p, False) for p in [clique(3), clique(4), clique(5), diamond(), cycle(4), path(4)]]
    + [(p, True) for p in motifs(3)]
    + [(p, True) for p in motifs(4)]
)
CASE_IDS = [f"{p.name}-{'vi' if ind else 'ei'}" for p, ind in CASES]


@pytest.fixture(scope="module")
def graph():
    e, _ = generate_graph("tiny")
    return build_csr(e)


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    con.register("adj", adj_pdf("tiny"))
    yield con
    con.close()


def run_kernel(plan, mode, g, backend="numpy"):
    kernel = codegen.compile_kernel(plan, mode, assume_reduced=True)
    ops = BACKENDS[backend]
    ctr = Counter()
    total = 0
    if mode == "edge":
        if (0, 1) in plan.sym:
            tasks = g.edge_tasks("lt")
        elif (1, 0) in plan.sym:
            tasks = g.edge_tasks("gt")
        else:
            tasks = g.edge_tasks("all")
        for v0, v1 in tasks:
            total += kernel(int(v0), int(v1), g.indptr, g.indices, ops, ctr)
    else:
        for v0 in range(g.n):
            total += kernel(v0, g.indptr, g.indices, ops, ctr)
    return total


@pytest.mark.parametrize("p,induced", CASES, ids=CASE_IDS)
def test_kernel_edge_matches_duckdb(graph, duck, p, induced):
    plan = build_plan(p, induced=induced)
    want = duck.execute(codegen.pattern_sql(plan)).fetchone()[0]
    assert run_kernel(plan, "edge", graph) == want


@pytest.mark.parametrize("p,induced", CASES, ids=CASE_IDS)
def test_kernel_vertex_matches_edge(graph, p, induced):
    plan = build_plan(p, induced=induced)
    assert run_kernel(plan, "vertex", graph) == run_kernel(plan, "edge", graph)


@pytest.mark.parametrize(
    "p,induced", [(clique(4), False), (diamond(), True), (cycle(4), False)],
    ids=["4cl", "diamond-vi", "c4"],
)
def test_python_backend_matches_numpy(graph, p, induced):
    plan = build_plan(p, induced=induced)
    assert run_kernel(plan, "edge", graph, "python") == run_kernel(
        plan, "edge", graph, "numpy"
    )


def test_unreduced_kernel_guards(graph):
    """Without opt J the kernel must re-check the v0/v1 bound itself."""
    plan = build_plan(clique(3), induced=False)
    kernel = codegen.compile_kernel(plan, "edge", assume_reduced=False)
    ops = BACKENDS["numpy"]
    total = 0
    for v0, v1 in graph.edge_tasks("all"):
        total += kernel(int(v0), int(v1), graph.indptr, graph.indices, ops, Counter())
    reduced = run_kernel(plan, "edge", graph)
    assert total == reduced


def test_kernel_source_attached():
    plan = build_plan(diamond(), induced=False)
    k = codegen.compile_kernel(plan, "edge")
    assert "def kernel(" in k.__source__
    assert "ops.intersect" in k.__source__


def test_kernel_source_leaf_counts_with_len():
    plan = build_plan(clique(4), induced=False)
    src = codegen.kernel_source(plan, "edge")
    assert "total += len(" in src, "counting at the leaf (no innermost loop)"


def test_kernel_source_has_bounds_for_symmetry():
    plan = build_plan(clique(4), induced=False)
    src = codegen.kernel_source(plan, "edge", assume_reduced=True)
    assert "bound" in src, "symmetry order compiled into bound ops"


def test_bad_mode_rejected():
    plan = build_plan(clique(3), induced=False)
    with pytest.raises(ValueError):
        codegen.kernel_source(plan, "cta")


def test_pattern_sql_shape():
    plan = build_plan(diamond(), induced=True)
    sql = codegen.pattern_sql(plan)
    assert sql.startswith("SELECT COUNT(*) AS cnt")
    assert "NOT EXISTS" in sql, "anti-edge for vertex-induced diamond"


def test_pattern_sql_non_induced_has_no_anti():
    plan = build_plan(diamond(), induced=False)
    assert "NOT EXISTS" not in codegen.pattern_sql(plan)


@pytest.mark.parametrize("name", ["tiny_skew", "tiny_dense"])
def test_kernels_on_other_graphs(name):
    e, _ = generate_graph(name)
    g = build_csr(e)
    con = duckdb.connect()
    con.register("adj", adj_pdf(name))
    try:
        for p, induced in [(clique(4), False), (diamond(), True)]:
            plan = build_plan(p, induced=induced)
            want = con.execute(codegen.pattern_sql(plan)).fetchone()[0]
            assert run_kernel(plan, "edge", g) == want
    finally:
        con.close()
