"""Simulation harness: scenarios, metrics, experiment contexts and the
runners that regenerate every table and figure of the paper."""

from .experiment import (
    GRID_ALGORITHMS,
    AlgorithmResult,
    ExperimentContext,
    make_grid_algorithm,
)
from .figures import (
    DEFAULT_ALGORITHMS,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    format_results,
)
from .metrics import CostSummary, improvement_percentage
from .parallel import (
    ChaosCell,
    ChaosCellResult,
    ContextFactory,
    SweepCell,
    SweepCellResult,
    cell_seed,
    default_workers,
    plan_cells,
    run_cells,
    run_chaos_cells,
)
from .report import (
    ascii_chart,
    chart_improvement,
    phase_table,
    results_to_rows,
    rows_to_csv,
    slo_table,
    stage_waterfall,
    worker_table,
)
from .scenario import (
    Scenario,
    build_evaluation_scenario,
    build_preliminary_scenario,
)
from .tables import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    TableRowSpec,
    format_table,
    run_table,
    run_table_row,
)

__all__ = [
    "GRID_ALGORITHMS",
    "AlgorithmResult",
    "ExperimentContext",
    "make_grid_algorithm",
    "DEFAULT_ALGORITHMS",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "format_results",
    "CostSummary",
    "improvement_percentage",
    "ChaosCell",
    "ChaosCellResult",
    "ContextFactory",
    "SweepCell",
    "SweepCellResult",
    "cell_seed",
    "default_workers",
    "plan_cells",
    "run_cells",
    "run_chaos_cells",
    "ascii_chart",
    "chart_improvement",
    "phase_table",
    "results_to_rows",
    "rows_to_csv",
    "slo_table",
    "stage_waterfall",
    "worker_table",
    "Scenario",
    "build_evaluation_scenario",
    "build_preliminary_scenario",
    "TABLE1_ROWS",
    "TABLE2_ROWS",
    "TableRowSpec",
    "format_table",
    "run_table",
    "run_table_row",
]
