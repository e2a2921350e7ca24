"""Scaled device-memory model (paper SS7.2; OoM cells of Tables 4-8).

The paper's V100 has 32 GB; its CPU host has 190 GB. Graphs here are
~1/2000 of the paper's edge counts, so budgets scale by the same factor
and are expressed in bytes of actually-materialised numpy/DataFrame state.
Every engine *accounts* its resident structures (CSR, task edgelist,
subgraph lists, FSM embedding lists) against a ``MemoryMeter`` and the
ledger raises ``OutOfMemoryError`` the moment it exceeds its budget — so
the OoM pattern in the tables is produced by real intermediate sizes, not
by a lookup table.

Who owns what: each system facade names its budget once
(``System.memory_budget``: GPU_MEM_BYTES for G2Miner, Pangolin and PBE,
CPU_MEM_BYTES for the CPU systems). ``harness.run_cell`` opens one ledger
per cell with that budget and passes it to every engine call the cell
makes; an engine or ``fsm3`` called without one gets an unbounded ledger.
An engine charges inside ``with meter.scope():``, which frees everything
charged in the block on any exit (result, OoM, error or a cancelled
Spark job), so a cell's ledger is back to 0 bytes when the cell ends.

Budget calibration (documented in DESIGN.md SS2): GPU_MEM_BYTES is set so
that for triangle counting the *oriented* structures of our Fr fit while
Tw4/Uk do not (Pangolin's Table 4 frontier), and the CPU budget is larger
by the paper's 190/32 ratio.
"""
from __future__ import annotations

import math
from contextlib import contextmanager

#: V100's 32 GB, scaled to the synthetic graph sizes. Calibrated (see the
#: calibration constraints in DESIGN.md SS2) so the paper's capacity
#: frontier reproduces from real structure sizes: oriented Fr fits for
#: Pangolin-TC while Tw4/Uk do not; Lj/Or triangle lists fit for
#: Pangolin-4CL while Tw2+ do not; Lj's 4-clique list does not fit for
#: 5-CL; symmetric Tw2 fits for 3-MC while Tw4/Fr do not.
GPU_MEM_BYTES = int(8.45 * 1024 * 1024)
#: The CPU host's 190 GB, scaled by the paper's own 190/32 ratio.
CPU_MEM_BYTES = int(GPU_MEM_BYTES * 190 / 32)


class OutOfMemoryError(RuntimeError):
    """Raised when an engine's materialised state exceeds its budget."""

    def __init__(self, meter: "MemoryMeter", what: str):
        self.meter = meter
        self.what = what
        super().__init__(
            f"OoM allocating {what}: resident {meter.resident} B "
            f"> budget {meter.budget} B (peak {meter.peak} B)"
        )


class MemoryMeter:
    """Byte ledger for one cell (unbounded when no budget is given)."""

    def __init__(self, budget: float = math.inf):
        self.budget = budget
        self.resident = 0
        self.peak = 0
        self.ledger: dict[str, int] = {}

    def alloc(self, what: str, nbytes: int) -> None:
        self.resident += int(nbytes)
        self.ledger[what] = self.ledger.get(what, 0) + int(nbytes)
        self.peak = max(self.peak, self.resident)
        if self.resident > self.budget:
            raise OutOfMemoryError(self, what)

    def free(self, what: str) -> None:
        self.resident -= self.ledger.pop(what, 0)

    @contextmanager
    def scope(self):
        """On any exit, restore the ledger to its state at entry: every byte
        charged inside the block is freed."""
        held = dict(self.ledger)
        try:
            yield self
        finally:
            self.ledger = held
            self.resident = sum(held.values())
