"""Integration-level tests for scenarios, the experiment context and the
table/figure runners (on reduced sizes)."""

import numpy as np
import pytest

from repro.network import TransitStubParams
from repro.sim import (
    ExperimentContext,
    TableRowSpec,
    build_evaluation_scenario,
    build_preliminary_scenario,
    figure7,
    figure8,
    figure10,
    figure11,
    format_results,
    format_table,
    run_table_row,
)

from tests.helpers import BruteForceMatcher

SMALL_PARAMS = TransitStubParams(
    n_transit_blocks=3,
    transit_nodes_per_block=2,
    stubs_per_transit=1,
    nodes_per_stub=6,
)


@pytest.fixture(scope="module")
def eval_ctx():
    scenario = build_evaluation_scenario(
        modes=1, n_subscriptions=80, params=SMALL_PARAMS, seed=1
    )
    return ExperimentContext(scenario, n_events=40)


class TestScenarioBuilders:
    def test_evaluation_scenario_consistent(self, eval_ctx):
        scenario = eval_ctx.scenario
        assert scenario.subscriptions.space is scenario.space
        assert scenario.cell_pmf.shape == (scenario.space.n_cells,)
        assert scenario.cell_pmf.sum() == pytest.approx(1.0)

    def test_evaluation_modes_validated(self):
        with pytest.raises(ValueError):
            build_evaluation_scenario(modes=2)

    def test_events_reproducible(self, eval_ctx):
        scenario = eval_ctx.scenario
        e1 = scenario.sample_events(10, np.random.default_rng(5))
        e2 = scenario.sample_events(10, np.random.default_rng(5))
        assert [e.point for e in e1] == [e.point for e in e2]
        assert [e.publisher for e in e1] == [e.publisher for e in e2]

    def test_preliminary_scenario_small(self):
        scenario = build_preliminary_scenario(
            n_nodes=100, n_subscriptions=60, variant="uniform", seed=2
        )
        assert scenario.space.dimensions[0].name == "region"
        assert scenario.space.dimensions[0].n_cells == scenario.topology.n_stubs
        assert len(scenario.subscriptions) == 60


class TestExperimentContext:
    def test_reference_costs_ordering(self, eval_ctx):
        unicast, broadcast, ideal = eval_ctx.reference_costs("dense")
        assert ideal <= unicast + 1e-9
        assert ideal <= broadcast + 1e-9
        assert unicast > 0 and broadcast > 0

    def test_alm_ideal_at_least_dense_ideal(self, eval_ctx):
        _, _, ideal_dense = eval_ctx.reference_costs("dense")
        _, _, ideal_alm = eval_ctx.reference_costs("alm")
        assert ideal_alm >= ideal_dense - 1e-9

    def test_cells_cached(self, eval_ctx):
        assert eval_ctx.cells(50) is eval_ctx.cells(50)
        assert len(eval_ctx.cells(50)) <= 50

    def test_unicast_baseline_is_zero_improvement(self, eval_ctx):
        summary = eval_ctx.evaluate_matcher(
            BruteForceMatcher(eval_ctx.scenario.subscriptions), "dense"
        )
        assert summary.improvement == pytest.approx(0.0, abs=1e-6)
        assert summary.wasted_deliveries == 0.0

    @pytest.mark.parametrize("name", ["kmeans", "forgy", "mst", "pairs"])
    def test_grid_algorithm_cost_bounds(self, eval_ctx, name):
        """Achieved cost can never beat the per-event ideal.  (On a tiny
        network like this one it can exceed unicast — exactly the
        section 3 observation that multicast benefits depend on the
        network configuration — so no upper bound is asserted here; the
        positive-improvement check lives in test_integration.py on a
        realistic network size.)"""
        result = eval_ctx.run_grid_algorithm(name, 12, max_cells=200)[0]
        assert result.summary.achieved >= result.summary.ideal - 1e-6
        assert result.summary.unicast > result.summary.ideal

    def test_schemes_both_evaluated(self, eval_ctx):
        results = eval_ctx.run_grid_algorithm(
            "forgy", 8, max_cells=150, schemes=("dense", "alm")
        )
        assert [r.scheme for r in results] == ["dense", "alm"]
        dense, alm = results
        # same clustering, costlier overlay delivery
        assert alm.summary.achieved >= dense.summary.achieved - 1e-9

    def test_noloss_runs_and_never_wastes(self, eval_ctx):
        result = eval_ctx.run_noloss(10, n_keep=200, iterations=2)[0]
        assert result.summary.wasted_deliveries == 0.0
        assert result.improvement >= 0.0

    def test_unknown_algorithm(self, eval_ctx):
        with pytest.raises(ValueError):
            eval_ctx.run_grid_algorithm("agglomerative-magic", 5)

    def test_fit_seconds_recorded(self, eval_ctx):
        result = eval_ctx.run_grid_algorithm("forgy", 8, max_cells=150)[0]
        assert result.fit_seconds >= 0.0


class TestTableRunners:
    def test_run_table_row_shape(self):
        row = run_table_row(
            TableRowSpec(100, 60, "uniform"),
            regionalism=0.4,
            n_events=20,
            seed=0,
        )
        assert row["unicast"] > 0
        assert row["broadcast"] > 0
        assert row["ideal"] <= row["unicast"] + 1e-9
        assert row["ideal"] <= row["broadcast"] + 1e-9

    def test_format_table(self):
        rows = [
            {
                "n_nodes": 100,
                "n_subscriptions": 60,
                "distribution": "uniform",
                "regionalism": 0.4,
                "unicast": 1234.5,
                "broadcast": 567.8,
                "ideal": 321.0,
            }
        ]
        text = format_table(rows, "Table 1")
        assert "Table 1" in text
        assert "uniform" in text
        assert "1234" in text


class TestFigureRunners:
    def test_figure7_reduced(self, eval_ctx):
        results = figure7(
            group_counts=(4, 8),
            algorithms=("forgy",),
            schemes=("dense",),
            cell_budgets={"forgy": 150},
            noloss=False,
            n_events=40,
            scenario=eval_ctx.scenario,
        )
        assert len(results) == 2
        assert {r.n_groups for r in results} == {4, 8}
        text = format_results(results)
        assert "forgy" in text

    def test_figure8_reduced(self, eval_ctx):
        rows = figure8(
            keep_counts=(50, 150),
            iteration_counts=(1, 2),
            n_groups=8,
            n_events=40,
            scenario=eval_ctx.scenario,
        )
        sweeps = {r["sweep"] for r in rows}
        assert sweeps == {"rectangles", "iterations"}
        assert len(rows) == 4

    def test_figure10_and_11_reduced(self, eval_ctx):
        rows = figure10(
            cell_budgets=(80, 160),
            algorithms=("forgy", "kmeans"),
            n_groups=8,
            n_events=40,
            scenario=eval_ctx.scenario,
        )
        assert len(rows) == 4
        for row in rows:
            assert row["n_cells"] <= row["cell_budget"]
            assert row["fit_seconds"] >= 0
        rows11 = figure11(
            cell_budgets=(80, 160),
            algorithms=("forgy", "kmeans"),
            n_groups=8,
            n_events=40,
            scenario=eval_ctx.scenario,
        )
        times = [r["fit_seconds"] for r in rows11]
        assert times == sorted(times)


class TestSparseSchemeIntegration:
    def test_sparse_evaluation(self, eval_ctx):
        """The sparse (shared-tree) scheme prices plans end to end."""
        results = eval_ctx.run_grid_algorithm(
            "forgy", 8, max_cells=150, schemes=("dense", "sparse")
        )
        dense, sparse = results
        assert sparse.scheme == "sparse"
        assert sparse.summary.achieved > 0
        # sparse ideal reference includes the core detour
        assert sparse.summary.ideal >= dense.summary.ideal - 1e-9

    def test_sparse_references_cached(self, eval_ctx):
        a = eval_ctx.reference_costs("sparse")
        b = eval_ctx.reference_costs("sparse")
        assert a == b


class TestCliFigures:
    def test_fig9_command(self, capsys):
        from repro.sim.cli import main

        assert main(["fig9", "--seeds", "0", "--groups", "4",
                     "--events", "5"]) == 0
        out = capsys.readouterr().out
        assert "network seed 0" in out

    def test_fig11_command(self, capsys):
        from repro.sim.cli import main

        assert main(["fig11", "--cells", "60", "--groups", "4",
                     "--events", "5"]) == 0
        out = capsys.readouterr().out
        assert "improve%" in out

    def test_fig7_csv_and_chart(self, capsys, tmp_path):
        from repro.sim.cli import main

        csv_path = tmp_path / "rows.csv"
        assert main([
            "fig7", "--groups", "4", "--algorithms", "forgy",
            "--events", "5", "--no-noloss", "--chart",
            "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "multicast groups" in out  # the chart axis
        assert csv_path.exists()
