"""Table 8 reproduction: 3-FSM."""
import pytest

from _bench_common import bench_cell
from repro.harness import table8_cells, workload_name

CELLS = table8_cells()
IDS = [f"{s}-{workload_name(w)}-{g}" for (s, w, g) in CELLS]


@pytest.mark.parametrize("system,workload,graph", CELLS, ids=IDS)
def test_table8(spark, benchmark, record, cell_timeout, system, workload, graph):
    bench_cell(spark, benchmark, record, "table8", system, workload, graph, cell_timeout)
