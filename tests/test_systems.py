"""System-facade tests: the registry must encode the paper's Table 1, and
all systems must agree on counts (they differ only in how, not what)."""
import pytest

from repro.core.pattern import clique, cycle, diamond
from repro.graph.csr import build_csr
from repro.graph.gen import generate_graph
from repro.systems import SYSTEMS

ALL = ["G2Miner", "Pangolin", "PBE", "Peregrine", "GraphZero", "DistGraph"]


def test_registry_complete():
    assert set(SYSTEMS) == set(ALL)


# Table 1 / SS8 support matrix.
@pytest.mark.parametrize(
    "name,workload,supported",
    [
        ("G2Miner", "fsm", True),
        ("G2Miner", "counting", True),
        ("Pangolin", "sl", False),  # "Pangolin does not support SL"
        ("Pangolin", "fsm", True),
        ("PBE", "mc", False),  # "PBE does not support k-MC and FSM"
        ("PBE", "fsm", False),
        ("PBE", "sl", True),
        ("Peregrine", "mc", True),
        ("GraphZero", "fsm", False),  # "GraphZero does not support FSM"
        ("GraphZero", "kcl", True),
        ("DistGraph", "fsm", True),
        ("DistGraph", "tc", False),
    ],
)
def test_support_matrix_matches_paper(name, workload, supported):
    assert (workload in SYSTEMS[name].supports) == supported


def test_fsm_variants_wired():
    assert SYSTEMS["G2Miner"].fsm_variant == "g2miner"
    assert SYSTEMS["Pangolin"].fsm_variant == "pangolin"
    assert SYSTEMS["Peregrine"].fsm_variant == "peregrine"
    assert SYSTEMS["DistGraph"].fsm_variant == "distgraph"
    assert SYSTEMS["GraphZero"].fsm_variant is None


def test_distgraph_engine_is_fsm_only():
    with pytest.raises(NotImplementedError):
        SYSTEMS["DistGraph"].make_engine()


@pytest.mark.parametrize("p", [clique(3), clique(4), diamond(), cycle(4)],
                         ids=lambda p: p.name)
def test_all_systems_agree_on_counts(spark, p):
    """The systems implement different execution strategies for the same
    semantics; with unconstrained memory they must return equal counts."""
    e, _ = generate_graph("tiny")
    g = build_csr(e)
    counts = {}
    for name in ["G2Miner", "Pangolin", "PBE", "Peregrine", "GraphZero"]:
        counts[name] = SYSTEMS[name].make_engine().count(spark, g, p)
    assert len(set(counts.values())) == 1, counts


def test_g2miner_uses_gpu_budget():
    from repro import memory as memmod

    gpu = {n for n, s in SYSTEMS.items() if s.memory_budget == memmod.GPU_MEM_BYTES}
    cpu = {n for n, s in SYSTEMS.items() if s.memory_budget == memmod.CPU_MEM_BYTES}
    assert gpu == {"G2Miner", "Pangolin", "PBE"}
    assert cpu == {"Peregrine", "GraphZero", "DistGraph"}
