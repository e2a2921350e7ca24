"""Table 5 reproduction: k-clique listing."""
import pytest

from _bench_common import bench_cell
from repro.harness import table5_cells, workload_name

CELLS = table5_cells()
IDS = [f"{s}-{workload_name(w)}-{g}" for (s, w, g) in CELLS]


@pytest.mark.parametrize("system,workload,graph", CELLS, ids=IDS)
def test_table5(spark, benchmark, record, cell_timeout, system, workload, graph):
    bench_cell(spark, benchmark, record, "table5", system, workload, graph, cell_timeout)
