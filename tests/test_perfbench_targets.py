"""The benchmark tracer (``perfbench/spans.py``) patches the program's
names from outside. A refactor that renames or moves one must fail here,
not crash ``perfbench/run.py --trace 1``."""
import dataclasses
import importlib.util
import os
import sys

import pytest

from repro import harness, memory
from repro.systems import SYSTEMS

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _load(name: str):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations through it
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    spans = _load("spans")
    for owner, attr, name in spans.TARGETS:
        assert attr in owner.__dict__, (owner, attr, name)
    # perfbench/run.py calls these directly.
    assert {"run_cell", "get_csr"} <= set(harness.__dict__)


def test_every_mix_system_has_a_kind():
    mixes = _load("mixes")
    for mix in mixes.MIXES.values():
        for q in mix:
            assert SYSTEMS[q.system].kind in ("dfs", "bfs"), q


def test_cell_body_is_second_positional_argument(monkeypatch):
    """The tracer wraps ``run_with_timeout``'s second positional argument
    as the cell body."""
    seen = []

    def fake(*args, **kwargs):
        seen.append(args)
        return 0

    monkeypatch.setattr(harness, "run_with_timeout", fake)
    assert harness.run_cell(None, "G2Miner", ("tc",), "tiny").status == "ok"
    (args,) = seen
    assert len(args) >= 2 and callable(args[1])


def test_ledger_hook_names_resolve():
    """The tracer wraps ``MemoryMeter.alloc`` on the class and reads
    ``OutOfMemoryError.what`` and ``.meter.peak``; if one moved,
    ``memory.ledger_peak_bytes`` would silently read 0."""
    assert "alloc" in memory.MemoryMeter.__dict__
    meter = memory.MemoryMeter(10)
    with pytest.raises(memory.OutOfMemoryError) as e:
        meter.alloc("x", 11)
    assert e.value.what == "x" and e.value.meter.peak == 11


@pytest.mark.parametrize("budget", [None, 64], ids=["ok", "OoM"])
def test_traced_cell_charges_through_alloc(spark, monkeypatch, budget):
    """Under the tracer (``--trace 1``), a cell's charges reach the wrapped
    ``MemoryMeter.alloc``: the traced peak and OoM structure are the cell's."""
    spans = _load("spans")
    if budget is not None:
        monkeypatch.setitem(SYSTEMS, "G2Miner",
                            dataclasses.replace(SYSTEMS["G2Miner"], memory_budget=budget))
    tracer = spans.Tracer(spark)
    tracer.install()
    try:
        tracer.begin("tc", "test", True)
        r = harness.run_cell(spark, "G2Miner", ("tc",), "tiny", timeout_s=60)
        q = tracer.end()
    finally:
        tracer.uninstall()
    assert "alloc" in memory.MemoryMeter.__dict__
    assert r.status == ("ok" if budget is None else "OoM")
    assert q.ledger_peak == r.peak_bytes > 0
    assert q.oom_what == r.oom_what
