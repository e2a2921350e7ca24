"""The benchmark tracer (``perfbench/spans.py``) patches the program's
names from outside. A refactor that renames or moves one must fail here,
not crash ``perfbench/run.py --trace 1``."""
import importlib.util
import os
import sys

from repro import harness
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
