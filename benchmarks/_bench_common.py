"""Shared cell-benchmark body for the per-table benchmark modules."""
from __future__ import annotations

from repro.harness import cell_record, run_cell


def bench_cell(
    spark, benchmark, record, table: str,
    system: str, workload: tuple, graph: str, timeout_s: float,
) -> None:
    """Run one table cell under pytest-benchmark (single round) and record
    its cell record. OoM/TO are valid outcomes (they ARE the paper's cells);
    only unexpected errors fail the benchmark."""
    result = benchmark.pedantic(
        lambda: run_cell(spark, system, workload, graph, timeout_s=timeout_s),
        rounds=1,
        iterations=1,
    )
    record(table, cell_record(system, workload, graph, result))
    assert result.status in ("ok", "OoM", "TO"), result.detail
    if result.status == "ok":
        assert result.value is not None
