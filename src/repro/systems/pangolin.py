"""Pangolin baseline (VLDB'20): the only prior GPM system on GPU.

BFS order with fully materialised per-level subgraph lists (the memory
wall of SS2.3: >40 GB for 5-clique on LiveJournal), orientation for
cliques only (Table 2 row A: the one optimization it shares), no edgelist
reduction, no input awareness. GPU memory budget — the OoM cells in
Tables 4, 5, 7 and 8 come from the ledger of that budget that the harness
opens per cell.

Pangolin does not support SL (paper SS8), and its FSM variant materialises
embedding lists without label-frequency pruning.
"""
from repro import memory as memmod
from repro.core.engine_bfs import BFSConfig, BFSEngine
from repro.systems.base import System, register


def make_engine() -> BFSEngine:
    return BFSEngine(
        BFSConfig(
            materialize=True,
            adj_partitions=0,
            orientation=True,
        )
    )


SYSTEM = register(
    System(
        name="Pangolin",
        kind="bfs",
        make_engine=make_engine,
        supports=frozenset({"tc", "kcl", "mc", "fsm"}),
        memory_budget=memmod.GPU_MEM_BYTES,
        fsm_variant="pangolin",
    )
)
