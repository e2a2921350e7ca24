"""Harness tests: run_cell dispatch, statuses, and table running on the
tiny test graphs (the bench graphs are exercised by benchmarks/)."""
import dataclasses
import time

import pytest

from repro import memory as memmod
from repro import paper_numbers as paper
from repro.graph import gen
from repro.harness import (
    fmt_cell, fmt_paper, get_csr, run_cell, run_table, sl_pattern, workload_name,
)
from repro.systems import SYSTEMS
from repro.timeout import CellResult

#: One workload of every kind, sized for the test graphs.
WORKLOADS = [("tc",), ("kcl", 4), ("sl", "diamond"), ("mc", 3), ("fsm", 3),
             ("counting", "4-motif")]
#: Every system x every workload kind it supports.
CELLS = [(s, w) for s in sorted(SYSTEMS) for w in WORKLOADS if w[0] in SYSTEMS[s].supports]


def _alias(monkeypatch, graph: str, alias: str) -> None:
    """Register ``alias`` as a copy of test graph ``graph`` under a name
    ``get_csr`` has not cached yet."""
    spec = gen.TEST_GRAPHS[graph]
    monkeypatch.setitem(gen.TEST_GRAPHS, alias, dataclasses.replace(spec, name=alias))


def test_get_csr_cached():
    assert get_csr("tiny") is get_csr("tiny")


def test_sl_patterns():
    assert sl_pattern("diamond").name == "diamond"
    assert sl_pattern("4-cycle").name == "4-cycle"


def test_run_cell_tc(spark):
    r = run_cell(spark, "G2Miner", ("tc",), "tiny", timeout_s=60)
    assert r.status == "ok" and r.value > 0


def test_run_cell_kcl(spark):
    r = run_cell(spark, "G2Miner", ("kcl", 4), "tiny", timeout_s=60)
    assert r.status == "ok"


def test_run_cell_sl(spark):
    r = run_cell(spark, "GraphZero", ("sl", "diamond"), "tiny", timeout_s=60)
    assert r.status == "ok"


def test_run_cell_mc(spark):
    r = run_cell(spark, "G2Miner", ("mc", 3), "tiny", timeout_s=60)
    assert r.status == "ok" and len(r.value) == 2


def test_run_cell_fsm(spark):
    r = run_cell(spark, "G2Miner", ("fsm", 3), "tiny_labeled", timeout_s=60)
    assert r.status == "ok" and r.value > 0


def test_run_cell_counting(spark):
    r = run_cell(spark, "G2Miner", ("counting", "diamond"), "tiny", timeout_s=60)
    assert r.status == "ok"


def test_unsupported_workload_is_na(spark):
    r = run_cell(spark, "PBE", ("mc", 3), "tiny")
    assert r.status == "n/a"
    r = run_cell(spark, "Pangolin", ("sl", "diamond"), "tiny")
    assert r.status == "n/a"


def test_run_table_frame(spark):
    df = run_table(
        spark,
        [("G2Miner", ("tc",), "tiny"), ("GraphZero", ("tc",), "tiny")],
        timeout_s=60,
    )
    assert list(df.columns) == [
        "system", "workload", "graph", "status", "seconds", "value", "paper",
    ]
    assert (df["status"] == "ok").all()
    assert df["value"].nunique() == 1, "systems agree"
    assert (df["paper"] == "-").all(), "tiny is in no paper table"


def test_cell_seconds_exclude_graph_generation(spark, monkeypatch):
    """Generation and CSR build happen before the clock starts."""
    sleep_s = 2.0
    real = gen.generate_graph

    def slow(name):
        time.sleep(sleep_s)
        return real(name)

    _alias(monkeypatch, "tiny", "tiny_slow_gen")
    monkeypatch.setattr(gen, "generate_graph", slow)
    warm = run_cell(spark, "G2Miner", ("tc",), "tiny", timeout_s=60)
    r = run_cell(spark, "G2Miner", ("tc",), "tiny_slow_gen", timeout_s=60)
    assert r.status == "ok" and r.value == warm.value
    assert r.seconds < sleep_s


def test_fsm_cells_generate_their_graph_once(spark, monkeypatch):
    """FSM cells read the cached CSR: two cells, one generation in total."""
    calls = []
    real = gen.generate_graph

    def counted(name):
        calls.append(name)
        return real(name)

    _alias(monkeypatch, "tiny_labeled", "tiny_labeled_once")
    monkeypatch.setattr(gen, "generate_graph", counted)
    for system in ("G2Miner", "DistGraph"):
        r = run_cell(spark, system, ("fsm", 3), "tiny_labeled_once", timeout_s=60)
        assert r.status == "ok" and r.value > 0
    assert calls == ["tiny_labeled_once"]


@pytest.mark.parametrize("tiny_budget", [False, True], ids=["ok", "OoM"])
@pytest.mark.parametrize("system,workload", CELLS,
                         ids=lambda v: v if isinstance(v, str) else workload_name(v))
def test_cell_ledger_ends_empty(spark, monkeypatch, system, workload, tiny_budget):
    """``run_cell`` opens one ledger of the system's budget per cell; on the
    ok and the OoM path it ends with 0 bytes resident, and the cell result
    carries its peak and the structure that tripped."""
    meters = []

    class Recorded(memmod.MemoryMeter):
        def __init__(self, *args):
            super().__init__(*args)
            meters.append(self)

    monkeypatch.setattr(memmod, "MemoryMeter", Recorded)
    if tiny_budget:
        tiny = dataclasses.replace(SYSTEMS[system], memory_budget=64)
        monkeypatch.setitem(SYSTEMS, system, tiny)
    graph = "tiny_labeled" if workload[0] == "fsm" else "tiny"
    r = run_cell(spark, system, workload, graph, timeout_s=60)
    (meter,) = meters
    assert meter.budget == SYSTEMS[system].memory_budget
    assert meter.resident == 0 and meter.ledger == {}
    assert r.peak_bytes == meter.peak > 0
    if tiny_budget:
        assert r.status == "OoM"
        assert r.oom_what == ("graph" if workload[0] == "fsm" else "csr")
    else:
        assert r.status == "ok" and r.oom_what == ""


def test_fmt_helpers():
    assert fmt_cell(CellResult(status="ok", seconds=1.234)) == "1.23"
    assert fmt_cell(CellResult(status="OoM")) == "OoM"
    assert fmt_paper(paper.OOM) == "OoM"
    assert fmt_paper(5.1) == "5.1"


def test_paper_tables_well_formed():
    for tbl in [paper.TABLE4, paper.TABLE5, paper.TABLE6, paper.TABLE7,
                paper.TABLE8, paper.TABLE9]:
        for system, cells in tbl.items():
            assert cells, system
            for v in cells.values():
                assert isinstance(v, (int, float)) or v in (paper.OOM, paper.TO)


def test_sigma_scaling_table():
    assert paper.SIGMA_SCALE == {300: 3, 500: 5, 1000: 10, 5000: 50}
