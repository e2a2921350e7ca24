"""Common system-facade machinery.

A ``System`` bundles an engine factory with the capability flags the paper
reports in Table 1 (which workloads each system supports), its memory
budget (GPU or CPU, ``repro.memory``) and its FSM variant. The harness
opens one ledger of that budget per cell; engines never choose a budget.
Registration happens at import of each ``repro.systems.<name>`` module.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class System:
    """One evaluated system (a row of the paper's Table 1)."""

    name: str
    kind: str  # 'dfs' | 'bfs'
    make_engine: Callable  # () -> DFSEngine | BFSEngine
    supports: frozenset[str]  # of {'tc','kcl','sl','mc','fsm','counting'}
    memory_budget: int  # bytes of one cell's ledger (``repro.memory``)
    fsm_variant: str | None = None


SYSTEMS: dict[str, System] = {}


def register(system: System) -> System:
    SYSTEMS[system.name] = system
    return system
