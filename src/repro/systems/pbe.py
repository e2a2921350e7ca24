"""PBE baseline (SIGMOD'20): GPU subgraph enumeration on partitioned graphs.

BFS order over a P-way partitioned adjacency: every extension consults all
partitions and reshuffles the intermediate (the cross-partition
communication the paper blames for PBE being 3.8x slower than Pangolin),
no orientation, block-streamed intermediates so it never OoMs — it
handles every graph but times out on the hardest cells (Tw4 4-CL).

PBE is a subgraph-matching solver: no k-MC, no FSM (paper SS8).
"""
from repro import memory as memmod
from repro.core.engine_bfs import BFSConfig, BFSEngine
from repro.systems.base import System, register

#: Number of graph partitions (the paper's PBE partitions large graphs;
#: fixed small P keeps the per-level fan-out overhead representative).
ADJ_PARTITIONS = 2


def make_engine() -> BFSEngine:
    return BFSEngine(
        BFSConfig(
            materialize=False,
            adj_partitions=ADJ_PARTITIONS,
            orientation=False,
        )
    )


SYSTEM = register(
    System(
        name="PBE",
        kind="bfs",
        make_engine=make_engine,
        supports=frozenset({"tc", "kcl", "sl"}),
        memory_budget=memmod.GPU_MEM_BYTES,
    )
)
