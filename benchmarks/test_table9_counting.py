"""Table 9 reproduction: counting-only pruning."""
import pytest

from _bench_common import bench_cell
from repro.harness import table9_cells, workload_name

CELLS = table9_cells()
IDS = [f"{s}-{workload_name(w)}-{g}" for (s, w, g) in CELLS]


@pytest.mark.parametrize("system,workload,graph", CELLS, ids=IDS)
def test_table9(spark, benchmark, record, cell_timeout, system, workload, graph):
    bench_cell(spark, benchmark, record, "table9", system, workload, graph, cell_timeout)
