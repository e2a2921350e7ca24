"""Table 6 reproduction: subgraph listing."""
import pytest

from _bench_common import bench_cell
from repro.harness import table6_cells, workload_name

CELLS = table6_cells()
IDS = [f"{s}-{workload_name(w)}-{g}" for (s, w, g) in CELLS]


@pytest.mark.parametrize("system,workload,graph", CELLS, ids=IDS)
def test_table6(spark, benchmark, record, cell_timeout, system, workload, graph):
    bench_cell(spark, benchmark, record, "table6", system, workload, graph, cell_timeout)
