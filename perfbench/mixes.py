"""The benchmark's query mixes and the seed that shapes their graphs.

A query is one ``run_cell`` call: (system, workload, graph), the unit of
the paper's Tables 4-9. ``expect`` is the outcome status the query must
return; a count is checked on top of an ``ok`` status.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro import paper_numbers as paper
from repro.graph import gen

#: The seed that reproduces the committed graphs (``GraphSpec.seed`` as-is).
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Query:
    system: str
    workload: tuple
    graph: str
    group: str
    expect: str = "ok"

    @property
    def label(self) -> str:
        w = "/".join(str(x) for x in self.workload)
        return f"{self.system}:{w}:{self.graph}"


def _g2(workload: tuple, graph: str, group: str) -> Query:
    return Query("G2Miner", workload, graph, group)


#: Long DFS queries on the large, skewed graphs: the mapInPandas kernel
#: stage dominates, and hub skew exercises the chunked round-robin schedule.
DFS_HEAVY = [
    _g2(("tc",), "Uk", "heavy"),
    _g2(("tc",), "Tw4", "heavy"),
    _g2(("kcl", 4), "Tw4", "heavy"),
    _g2(("sl", "diamond"), "Tw2", "heavy"),
    _g2(("counting", "diamond"), "Tw4", "heavy"),
    _g2(("counting", "4-motif"), "Lj", "heavy"),
]

#: Short DFS queries: the fixed per-call Spark cost dominates. Also the
#: vertex-parallel mode with per-call (GraphZero) and scalar (Peregrine)
#: set ops.
DFS_LIGHT = [
    _g2(("tc",), "Lj", "light"),
    _g2(("tc",), "Or", "light"),
    _g2(("tc",), "Fr", "light"),
    _g2(("kcl", 4), "Lj", "light"),
    _g2(("kcl", 5), "Fr", "light"),
    _g2(("sl", "diamond"), "Fr", "light"),
    _g2(("mc", 3), "Lj", "light"),
    _g2(("counting", "3-motif"), "Or", "light"),
    Query("GraphZero", ("tc",), "Lj", "light"),
    Query("Peregrine", ("tc",), "Lj", "light"),
]

#: Spark SQL joins and distinct aggregates carry the work: no query enters
#: the DFS kernel, and Pangolin TC on Tw4 pins the OoM frontier.
CATALYST = [
    Query("Pangolin", ("tc",), "Lj", "catalyst"),
    Query("Pangolin", ("mc", 3), "Lj", "catalyst"),
    Query("Pangolin", ("tc",), "Tw4", "catalyst", expect="OoM"),
    Query("PBE", ("tc",), "Lj", "catalyst"),
    _g2(("fsm", paper.SIGMA_SCALE[300]), "Mi", "catalyst"),
    _g2(("fsm", paper.SIGMA_SCALE[500]), "Pa", "catalyst"),
    Query("DistGraph", ("fsm", paper.SIGMA_SCALE[300]), "Mi", "catalyst"),
]

#: The benchmark's workloads. The heavy and light DFS queries share one
#: workload so that one Spark start and warm-up serve both; their groups
#: are reported apart in traced runs.
MIXES: dict[str, list[Query]] = {"dfs": DFS_HEAVY + DFS_LIGHT, "catalyst": CATALYST}

#: Pass time of each mix on 4 cores when the benchmark was defined. It
#: fixes how many passes fit in ``--seconds``, independent of how fast the
#: program under test is.
NOMINAL_PASS_S = {"dfs": 34.0, "catalyst": 30.0}

def warmup_queries(mix: list[Query]) -> list[Query]:
    """One query per distinct (system, workload kind) of ``mix``, on a
    test-size graph, so Python workers and the Spark plans of each engine
    path are warm before timing."""
    seen: dict[tuple, Query] = {}
    for q in mix:
        graph = "tiny_labeled" if q.workload[0] == "fsm" else "tiny"
        seen.setdefault((q.system, q.workload[0]), Query(q.system, q.workload, graph, "warm-up"))
    return list(seen.values())


def apply_seed(seed: int) -> None:
    """Derive every ``GraphSpec.seed`` from the benchmark seed.

    Must run before any graph is generated: ``harness.get_csr`` caches by
    name. ``DEFAULT_SEED`` leaves the committed specs untouched.
    """
    if seed == DEFAULT_SEED:
        return
    for table in (gen.GRAPHS, gen.LABELED_GRAPHS, gen.TEST_GRAPHS):
        for name, spec in table.items():
            derived = np.random.SeedSequence([spec.seed, seed]).generate_state(1)[0]
            table[name] = dataclasses.replace(spec, seed=int(derived))
