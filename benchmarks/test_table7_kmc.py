"""Table 7 reproduction: k-motif counting."""
import pytest

from _bench_common import bench_cell
from repro.harness import table7_cells, workload_name

CELLS = table7_cells()
IDS = [f"{s}-{workload_name(w)}-{g}" for (s, w, g) in CELLS]


@pytest.mark.parametrize("system,workload,graph", CELLS, ids=IDS)
def test_table7(spark, benchmark, record, cell_timeout, system, workload, graph):
    bench_cell(spark, benchmark, record, "table7", system, workload, graph, cell_timeout)
