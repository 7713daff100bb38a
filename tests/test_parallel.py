"""Serial-vs-parallel equivalence for the process-pool sweep engine.

The engine's contract is bit-exactness: for any worker count the
per-cell :class:`~repro.sim.CostSummary` / degradation reports must be
byte-identical to a serial run (timing fields excluded), and the merged
observability totals must match.  These tests lock that in on the small
session scenario.
"""

import multiprocessing
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import FaultSchedule
from repro.fleet import FleetConfig, run_fleet
from repro.network import RoutingTables
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
)
from repro.sim import (
    ChaosCell,
    ExperimentContext,
    Scenario,
    cell_seed,
    default_workers,
    plan_cells,
    run_cells,
    run_chaos_cells,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def sweep_ctx(small_topology, small_subscriptions, small_publications):
    scenario = Scenario(
        name="parallel-equivalence",
        topology=small_topology,
        routing=RoutingTables(small_topology.graph),
        space=small_subscriptions.space,
        subscriptions=small_subscriptions,
        publications=small_publications,
        seed=5,
    )
    return ExperimentContext(scenario, n_events=25)


@pytest.fixture(scope="module")
def sweep_cells():
    return plan_cells(
        (3, 6),
        ("kmeans", "pairs"),
        cell_budgets={"kmeans": 80, "pairs": 80},
        noloss=True,
        noloss_keep=200,
        noloss_iterations=2,
    )


def _comparable(outcomes):
    """Everything but wall-clock timing, per result row."""
    rows = []
    for outcome in outcomes:
        for r in outcome.results:
            rows.append(
                (
                    outcome.cell.index,
                    r.algorithm,
                    r.scheme,
                    r.n_groups,
                    r.n_cells,
                    tuple(sorted(r.summary.as_row().items())),
                )
            )
    return rows


class TestSeedSpawning:
    def test_cell_seed_matches_seedsequence_spawn(self):
        parent = np.random.SeedSequence(42)
        children = parent.spawn(6)
        for index, child in enumerate(children):
            local = cell_seed(42, index)
            assert local.generate_state(4).tolist() == \
                child.generate_state(4).tolist()

    def test_cell_seed_is_position_only(self):
        # the derivation must not depend on any shared mutable state:
        # asking for cell 3 first and cell 0 later changes nothing
        late = cell_seed(7, 0).generate_state(2).tolist()
        _ = cell_seed(7, 3)
        assert cell_seed(7, 0).generate_state(2).tolist() == late

    def test_distinct_cells_get_distinct_streams(self):
        states = {
            tuple(cell_seed(0, i).generate_state(2).tolist())
            for i in range(8)
        }
        assert len(states) == 8


class TestSerialParallelEquivalence:
    def test_serial_is_deterministic(self, sweep_ctx, sweep_cells):
        first = run_cells(sweep_ctx, sweep_cells, workers=1)
        second = run_cells(sweep_ctx, sweep_cells, workers=1)
        assert _comparable(first) == _comparable(second)

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial(self, sweep_ctx, sweep_cells, workers):
        serial = run_cells(sweep_ctx, sweep_cells, workers=1)
        parallel = run_cells(sweep_ctx, sweep_cells, workers=workers)
        assert _comparable(parallel) == _comparable(serial)

    @needs_fork
    def test_legacy_seed_mode_matches_too(self, sweep_ctx, sweep_cells):
        serial = run_cells(
            sweep_ctx, sweep_cells, workers=1, seed_mode="legacy"
        )
        parallel = run_cells(
            sweep_ctx, sweep_cells, workers=2, seed_mode="legacy"
        )
        assert _comparable(parallel) == _comparable(serial)

    @needs_fork
    def test_cells_actually_ran_in_workers(self, sweep_ctx, sweep_cells):
        outcomes = run_cells(sweep_ctx, sweep_cells, workers=2)
        pids = {outcome.pid for outcome in outcomes}
        assert os.getpid() not in pids
        assert all(outcome.seconds >= 0.0 for outcome in outcomes)

    def test_rejects_unknown_seed_mode(self, sweep_ctx, sweep_cells):
        with pytest.raises(ValueError):
            run_cells(sweep_ctx, sweep_cells, seed_mode="wallclock")

    def test_default_workers_resolution(self):
        assert default_workers(3) == 3
        assert default_workers(1) == 1
        assert default_workers(0) >= 1
        assert default_workers(None) >= 1


class TestObservabilityMerge:
    #: counters whose totals must not depend on the worker count
    INVARIANT = (
        "clustering_distance_evals_total",
        "clustering_fit_total",
        "matching_events_total",
    )

    @staticmethod
    def _totals(registry):
        totals = {}
        for record in registry.snapshot():
            if record["type"] != "counter":
                continue
            totals[record["name"]] = totals.get(record["name"], 0.0) + float(
                record["value"]
            )
        return totals

    @needs_fork
    def test_merged_counter_totals_match_serial(self, sweep_ctx, sweep_cells):
        # prewarm so both runs see the same cached context state (a cold
        # serial run prices the reference costs a forked worker inherits
        # for free)
        run_cells(sweep_ctx, sweep_cells, workers=1)
        saved = get_registry()
        try:
            serial_registry = set_registry(MetricsRegistry())
            run_cells(sweep_ctx, sweep_cells, workers=1)
            serial_totals = self._totals(serial_registry)

            parallel_registry = set_registry(MetricsRegistry())
            run_cells(sweep_ctx, sweep_cells, workers=2)
            parallel_totals = self._totals(parallel_registry)
        finally:
            set_registry(saved)
        for name in self.INVARIANT:
            assert name in serial_totals
            assert parallel_totals.get(name) == serial_totals[name], name

    @needs_fork
    def test_worker_spans_merge_into_parent(self, sweep_ctx, sweep_cells):
        saved = get_tracer()
        try:
            tracer = set_tracer(Tracer(enabled=True))
            outcomes = run_cells(sweep_ctx, sweep_cells[:2], workers=2)
        finally:
            set_tracer(saved)
        names = [span.name for span in tracer.spans()]
        assert names.count("sim.run_algorithm") == len(outcomes) == 2
        # ids were remapped on ingest: unique, parents precede children
        ids = [span.span_id for span in tracer.spans()]
        assert len(ids) == len(set(ids))
        for span in tracer.spans():
            if span.parent_id is not None:
                assert span.parent_id in ids


    @staticmethod
    def _series(registry):
        """Counter totals and histogram counts, per labelled series."""
        series = {}
        for record in registry.snapshot():
            key = (record["name"], tuple(sorted(record["labels"].items())))
            if record["type"] == "counter":
                series[key] = record["value"]
            elif record["type"] == "histogram":
                series[key] = record["count"]
        return series

    def _series_at(self, workers, run):
        saved = get_registry()
        try:
            registry = set_registry(MetricsRegistry())
            run(workers)
        finally:
            set_registry(saved)
        return self._series(registry)

    @needs_fork
    def test_fleet_pool_merges_like_inline(self):
        def run(workers):
            run_fleet(
                FleetConfig(
                    n_events=600, seed=7, n_nodes=100, n_subscriptions=120,
                    n_groups=12, shards=4, workers=workers,
                )
            )

        inline = self._series_at(1, run)
        pooled = self._series_at(2, run)
        assert inline[("matching_events_total", (("matcher", "grid"),))] > 0
        assert pooled == inline

    @needs_fork
    def test_chaos_pool_merges_like_inline(self):
        cells = TestChaosCells._cells()
        inline = self._series_at(
            1, lambda workers: run_chaos_cells(cells, workers=workers)
        )
        pooled = self._series_at(
            2, lambda workers: run_chaos_cells(cells, workers=workers)
        )
        assert inline
        assert pooled == inline


class TestSpawnRoute:
    """Under ``spawn`` a pool worker's context is a pickle of the live one."""

    @pytest.mark.parametrize("aggregate", [False, True])
    def test_pickled_context_gives_the_same_summaries(
        self, sweep_ctx, sweep_cells, aggregate
    ):
        context = ExperimentContext(
            sweep_ctx.scenario, n_events=25, aggregate=aggregate
        )
        built = run_cells(context, sweep_cells)
        copied = pickle.loads(pickle.dumps(context))
        assert _comparable(run_cells(copied, sweep_cells)) == \
            _comparable(built)

    def test_spawn_pool_matches_serial(
        self, monkeypatch, sweep_ctx, sweep_cells
    ):
        import repro.sim.parallel as parallel_module

        cells = sweep_cells[:2]
        serial = run_cells(sweep_ctx, cells, workers=1)
        monkeypatch.setattr(parallel_module, "_start_method", lambda: "spawn")
        spawned = run_cells(sweep_ctx, cells, workers=2)
        assert os.getpid() not in {outcome.pid for outcome in spawned}
        assert _comparable(spawned) == _comparable(serial)


class TestChaosCells:
    @staticmethod
    def _cells():
        scenario_kwargs = (
            ("n_nodes", 100), ("n_subscriptions", 80), ("seed", 3),
        )
        from repro.sim import build_preliminary_scenario

        schedule = FaultSchedule.generate(
            build_preliminary_scenario(
                n_nodes=100, n_subscriptions=80, seed=3
            ).topology,
            horizon=50.0,
            seed=3,
            node_fraction=0.05,
            n_churn=2,
            n_subscribers=80,
        )
        common = dict(
            scenario_kwargs=scenario_kwargs,
            horizon=50.0,
            config_kwargs=(("n_groups", 8), ("rebalance_after", 10**9)),
            n_events=30,
            seed=3,
        )
        return [
            ChaosCell(
                index=0, label="faulted",
                events=tuple(schedule.as_dicts()), **common,
            ),
            ChaosCell(index=1, label="baseline", events=(), **common),
        ]

    #: an objective every faulted replay breaches (it loses deliveries)
    SLO_SPEC = (
        (
            ("name", "no-loss"), ("signal", "lost_rate"), ("stat", "max"),
            ("threshold", 0.0), ("window", 10.0),
        ),
    )

    @needs_fork
    @pytest.mark.parametrize("observed", [False, True], ids=["bare", "flight-slo"])
    def test_chaos_parallel_matches_serial(self, observed):
        cells = self._cells()
        if observed:
            cells = [
                replace(cell, flight=True, slo_spec=self.SLO_SPEC)
                for cell in cells
            ]
        serial = run_chaos_cells(cells, workers=1)
        parallel = run_chaos_cells(cells, workers=2)
        assert {o.pid for o in parallel} != {os.getpid()}
        for a, b in zip(serial, parallel):
            assert a.cell.label == b.cell.label
            assert a.report.per_event_costs == b.report.per_event_costs
            for field in (
                "n_publications", "n_delivered", "n_degraded", "n_lost",
                "total_cost", "expected_deliveries", "lost_deliveries",
                "n_rebuilds", "n_full_rebuilds",
                "cause_chains", "slo_breaches",
            ):
                assert getattr(a.report, field) == getattr(b.report, field), field
        if observed:
            assert serial[0].report.cause_chains
            assert serial[0].report.slo_breaches


class TestFloat32WasteMatrix:
    """Regression guard for the float32 fast path of the waste matrix."""

    def test_matches_float64_reference(self, rng):
        from repro.clustering.distance import pairwise_waste_matrix

        membership = rng.random((40, 60)) < 0.3
        probs = rng.random(40)
        probs /= probs.sum()
        fast = pairwise_waste_matrix(membership, probs)

        sizes = membership.sum(axis=1).astype(np.float64)
        inter = membership.astype(np.float64) @ membership.astype(np.float64).T
        reference = (
            probs[:, None] * (sizes[None, :] - inter)
            + probs[None, :] * (sizes[:, None] - inter)
        )
        np.fill_diagonal(reference, 0.0)

        assert fast.dtype == np.float32
        assert np.allclose(fast, reference, rtol=1e-5, atol=1e-4)
        # the decisions downstream algorithms take from the matrix (which
        # pair merges next) must agree with the float64 reference
        off = reference + np.diag(np.full(len(reference), np.inf))
        fast_off = fast.astype(np.float64) + np.diag(
            np.full(len(fast), np.inf)
        )
        assert np.unravel_index(np.argmin(fast_off), fast_off.shape) == \
            np.unravel_index(np.argmin(off), off.shape)
        assert np.allclose(fast, fast.T)
