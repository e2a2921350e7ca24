"""FSM tests: every system variant must return exactly the frequent
(pattern, support) table that DuckDB computes from the same generated SQL."""
import pandas as pd
import pytest

from repro import memory as memmod
from repro.core import fsm as fsmmod
from repro.graph.gen import adj_pdf, labels_pdf
from repro.harness import get_csr
from repro.oracle import assert_equivalent

VARIANTS = ["g2miner", "pangolin", "peregrine", "distgraph"]
BIG = memmod.MemoryMeter(1 << 40)


@pytest.fixture(scope="module")
def data():
    return adj_pdf("tiny_labeled"), labels_pdf("tiny_labeled")


@pytest.fixture(scope="module")
def csr():
    return get_csr("tiny_labeled")


def test_frames_from_csr_equal_generated_frames(csr, data):
    """fsm3 reads the cached CSR; its tables must be the generator's, row
    for row and dtype for dtype, so every ledger charge stays the same."""
    adj, labels = fsmmod.frames(csr)
    pd.testing.assert_frame_equal(adj, data[0])
    pd.testing.assert_frame_equal(labels, data[1])
    assert len(labels) == len(csr.labels)
    assert adj.values.nbytes + labels.values.nbytes == (
        data[0].values.nbytes + data[1].values.nbytes
    )


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("sigma", [3, 8])
def test_variant_matches_duckdb_oracle(spark, csr, data, variant, sigma):
    adj, labels = data
    got = fsmmod.fsm3(
        spark, csr, sigma, variant=variant,
        meter=memmod.MemoryMeter(1 << 40),
    )
    sql = (
        "WITH allsup AS ("
        + " UNION ALL ".join(
            f"SELECT * FROM ({fsmmod.support_sql(k)})"
            for k in ("edge", "wedge", "tri")
        )
        + f") SELECT pattern, support FROM allsup WHERE support >= {sigma}"
    )
    assert_equivalent(
        spark.createDataFrame(got), sql, adj=adj, labels=labels
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_sigma_monotone(spark, csr, variant):
    lo = fsmmod.fsm3(spark, csr, 3, variant=variant,
                     meter=memmod.MemoryMeter(1 << 40))
    hi = fsmmod.fsm3(spark, csr, 10, variant=variant,
                     meter=memmod.MemoryMeter(1 << 40))
    assert len(hi) <= len(lo)
    assert set(hi["pattern"]) <= set(lo["pattern"])


def test_pattern_families_present(spark, csr):
    out = fsmmod.fsm3(spark, csr, 3, meter=memmod.MemoryMeter(1 << 40))
    kinds = {p[0] for p in out["pattern"]}
    assert "E" in kinds and "W" in kinds


def test_supports_respect_sigma(spark, csr):
    out = fsmmod.fsm3(spark, csr, 6, meter=memmod.MemoryMeter(1 << 40))
    assert (out["support"] >= 6).all()


def test_pangolin_oom_on_tiny_budget(spark, csr):
    with pytest.raises(memmod.OutOfMemoryError):
        fsmmod.fsm3(spark, csr, 3, variant="pangolin",
                    meter=memmod.MemoryMeter(4096))


def test_distgraph_oom_on_tiny_budget(spark, csr):
    with pytest.raises(memmod.OutOfMemoryError):
        fsmmod.fsm3(spark, csr, 3, variant="distgraph",
                    meter=memmod.MemoryMeter(4096))


@pytest.mark.parametrize("variant", VARIANTS)
def test_oom_leaves_no_bytes(spark, csr, variant):
    meter = memmod.MemoryMeter(4096)
    with pytest.raises(memmod.OutOfMemoryError):
        fsmmod.fsm3(spark, csr, 3, variant=variant, meter=meter)
    assert meter.resident == 0 and meter.ledger == {}


def test_label_pruning_is_lossless(spark, csr):
    """Opt N must not change results: g2miner (prunes) vs pangolin (not)."""
    a = fsmmod.fsm3(spark, csr, 12, variant="g2miner",
                    meter=memmod.MemoryMeter(1 << 40))
    b = fsmmod.fsm3(spark, csr, 12, variant="pangolin",
                    meter=memmod.MemoryMeter(1 << 40))
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True), check_dtype=False
    )


def test_unknown_variant_rejected(spark, csr):
    with pytest.raises(ValueError):
        fsmmod.fsm3(spark, csr, 3, variant="nope")


def test_support_sql_rejects_bad_kind():
    with pytest.raises(ValueError):
        fsmmod.support_sql("square")
