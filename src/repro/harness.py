"""Evaluation harness: runs one (system, workload, graph) cell the way the
paper's experiment scripts do, with wall-clock timing, a hard timeout and
OoM capture, and builds the one cell record (``cell_record``) that the
per-table benchmarks (``benchmarks/``), the spark-submit jobs (``jobs/``)
and the EXPERIMENTS.md generator all read.
"""
from __future__ import annotations

import time
from functools import lru_cache

import pandas as pd
from pyspark.sql import SparkSession

from repro import memory as memmod
from repro import paper_numbers as paper
from repro.core import counting, fsm as fsmmod
from repro.core.motifs import count_motifs
from repro.core.pattern import Pattern, clique, cycle, diamond
from repro.graph.csr import CSRGraph, build_csr
from repro.graph import gen
from repro.systems import SYSTEMS
from repro.timeout import CellResult, TimeoutError_, run_with_timeout

#: The one per-cell timeout: the paper's 8 h GPU / 30 h CPU budgets at
#: ~1/1000 time scale. The committed results were recorded with it.
DEFAULT_TIMEOUT_S = 45.0


@lru_cache(maxsize=None)
def get_csr(name: str) -> CSRGraph:
    """Build (and cache) the CSR for a named data graph."""
    edges, labels = gen.generate_graph(name)
    lab = labels if labels.any() else None
    return build_csr(edges, labels=lab)


def sl_pattern(name: str) -> Pattern:
    return {"diamond": diamond(), "4-cycle": cycle(4)}[name]


def run_cell(
    spark: SparkSession,
    system_name: str,
    workload: tuple,
    graph: str,
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> CellResult:
    """Run one evaluation cell.

    ``workload`` is one of: ('tc',), ('kcl', k), ('sl', pattern_name),
    ('mc', k), ('fsm', sigma), ('counting', which) with which in
    {'diamond', '3-motif', '4-motif'}. The graph is loaded and the cell's
    ledger (``MemoryMeter`` of the system's budget) opened before the clock
    starts, so ``seconds`` never includes generation or CSR build; every
    engine call of the cell charges that one ledger.
    """
    sys = SYSTEMS[system_name]
    kind = workload[0]
    if kind not in sys.supports:
        return CellResult(status="n/a", detail=f"{system_name} lacks {kind}")
    csr = get_csr(graph)
    meter = memmod.MemoryMeter(sys.memory_budget)

    def body():
        if kind == "fsm":
            return len(fsmmod.fsm3(spark, csr, workload[1], variant=sys.fsm_variant,
                                   meter=meter))
        engine = sys.make_engine()
        if kind == "tc":
            return engine.count(spark, csr, clique(3), meter=meter)
        if kind == "kcl":
            return engine.count(spark, csr, clique(workload[1]), meter=meter)
        if kind == "sl":
            return engine.count(spark, csr, sl_pattern(workload[1]), meter=meter)
        if kind == "mc":
            return count_motifs(spark, csr, workload[1], engine, meter=meter)
        if kind == "counting":
            which, backend = workload[1], engine.cfg.setops
            if which == "diamond":
                return counting.diamond_counting_only(spark, csr, backend=backend)
            if which == "3-motif":
                return counting.count3_counting_only(spark, csr, engine=engine,
                                                     meter=meter)
            if which == "4-motif":
                return counting.count4_counting_only(
                    spark, csr, engine=engine, backend=backend, meter=meter
                )
        raise ValueError(f"unknown workload {workload!r}")

    t0 = time.perf_counter()

    def result(status: str, **kw) -> CellResult:
        return CellResult(status=status, seconds=time.perf_counter() - t0,
                          peak_bytes=meter.peak, **kw)

    try:
        return result("ok", value=run_with_timeout(spark, body, timeout_s))
    except memmod.OutOfMemoryError as e:
        return result("OoM", detail=str(e), oom_what=e.what)
    except TimeoutError_ as e:
        return result("TO", detail=str(e))


def fmt_cell(r) -> str:
    """Our side of a cell: a ``CellResult`` or a cell-record row."""
    return f"{r.seconds:.2f}" if r.status == "ok" else r.status


def fmt_paper(v) -> str:
    """The paper's side of a cell: seconds, or its OoM/TO/'-' marker."""
    try:
        return f"{float(v):g}"
    except (TypeError, ValueError):
        return str(v)


def workload_name(workload: tuple) -> str:
    """The workload column of a cell record, e.g. ``"kcl/4"``."""
    return "/".join(str(w) for w in workload)


def cell_record(system: str, workload: tuple, graph: str, r: CellResult) -> dict:
    """The one cell record, with the columns of ``benchmarks/results/*.csv``."""
    paper_tbl = TABLES[TABLE_OF[workload[0]]][1]
    return {
        "system": system,
        "workload": workload_name(workload),
        "graph": graph,
        "status": r.status,
        "seconds": round(r.seconds, 3),
        "value": sum(r.value.values()) if isinstance(r.value, dict) else r.value,
        "paper": paper_tbl.get(system, {}).get(paper_key(workload, graph), "-"),
    }


def run_table(
    spark: SparkSession,
    cells: list[tuple[str, tuple, str]],
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> pd.DataFrame:
    """Run a list of (system, workload, graph) cells into a frame of cell
    records."""
    return pd.DataFrame(
        [
            cell_record(s, w, g, run_cell(spark, s, w, g, timeout_s=timeout_s))
            for s, w, g in cells
        ]
    )


# -- per-table cell lists (one entry per cell of the paper's tables) -----

TC_GRAPHS = ["Lj", "Or", "Tw2", "Tw4", "Fr", "Uk"]
KCL_CELLS = [(4, g) for g in ["Lj", "Or", "Tw2", "Tw4", "Fr"]] + [
    (5, g) for g in ["Lj", "Or", "Fr"]
]
SL_CELLS = [("diamond", g) for g in ["Lj", "Or", "Tw2", "Tw4", "Fr"]] + [
    ("4-cycle", g) for g in ["Lj", "Or", "Fr"]
]
MC_CELLS = [(3, g) for g in ["Lj", "Or", "Tw2", "Tw4", "Fr"]] + [
    (4, g) for g in ["Lj", "Or", "Fr"]
]
FSM_CELLS = [
    (g, s) for g in ["Mi", "Pa", "Yo"] for s in [300, 500, 1000, 5000]
]
COUNTING_CELLS = [(w, g) for w in ["diamond", "3-motif"]
                  for g in ["Lj", "Or", "Tw2", "Tw4", "Fr"]] + [
    ("4-motif", g) for g in ["Lj", "Or", "Fr"]
]


def table4_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "Pangolin", "PBE", "Peregrine", "GraphZero"]
    return [(s, ("tc",), g) for s in systems for g in TC_GRAPHS]


def table5_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "Pangolin", "PBE", "Peregrine", "GraphZero"]
    return [(s, ("kcl", k), g) for s in systems for (k, g) in KCL_CELLS]


def table6_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "PBE", "Peregrine", "GraphZero"]
    return [(s, ("sl", p), g) for s in systems for (p, g) in SL_CELLS]


def table7_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "Pangolin", "Peregrine", "GraphZero"]
    return [(s, ("mc", k), g) for s in systems for (k, g) in MC_CELLS]


def table8_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "Pangolin", "Peregrine", "DistGraph"]
    return [
        (s, ("fsm", paper.SIGMA_SCALE[sig]), g)
        for s in systems
        for (g, sig) in FSM_CELLS
    ]


def table9_cells() -> list[tuple[str, tuple, str]]:
    systems = ["G2Miner", "Peregrine"]
    return [(s, ("counting", w), g) for s in systems for (w, g) in COUNTING_CELLS]


def paper_key(workload: tuple, graph: str) -> tuple | str:
    """The paper table's key for a cell."""
    kind = workload[0]
    if kind == "tc":
        return graph
    if kind == "fsm":
        inv = {v: k for k, v in paper.SIGMA_SCALE.items()}
        return (graph, inv[workload[1]])
    return (workload[1], graph)


TABLES = {
    4: (table4_cells, paper.TABLE4, "Triangle counting (TC)"),
    5: (table5_cells, paper.TABLE5, "k-clique listing (k-CL)"),
    6: (table6_cells, paper.TABLE6, "Subgraph listing (SL)"),
    7: (table7_cells, paper.TABLE7, "k-motif counting (k-MC)"),
    8: (table8_cells, paper.TABLE8, "3-FSM (σ scaled ÷100)"),
    9: (table9_cells, paper.TABLE9, "Counting-only pruning enabled"),
}

#: The table each workload kind belongs to.
TABLE_OF = {"tc": 4, "kcl": 5, "sl": 6, "mc": 7, "fsm": 8, "counting": 9}


def print_side_by_side(df: pd.DataFrame) -> str:
    """Render measured-vs-paper lines from cell records: one per cell."""
    lines = [
        f"{row.system:>10s} {row.workload:>10s} {row.graph:>4s} "
        f"ours={fmt_cell(row):>8s} paper={fmt_paper(row.paper):>8s}"
        for row in df.itertuples()
    ]
    out = "\n".join(lines)
    print(out)
    return out
