"""Unit + golden tests for subscription aggregation (repro.aggregation).

The aggregation pass is exact by construction: collapsing identical
rectangles into weighted aggregates must never change a single observed
value — interest sets, hyper-cell sets, fitted clusterings, delivery
plans, sweep rows and online soak reports are all required to come out
byte-identical with aggregation on or off.  These tests lock that in at
every layer, on a hand-built duplicate-heavy workload (the scenario
generators draw continuous bounds and therefore never produce exact
duplicates — ratio 1.0 is itself a covered boundary case).
"""

import multiprocessing

import numpy as np
import pytest

from repro.aggregation import (
    AggregateView,
    OnlineAggregator,
    aggregate_subscriptions,
    build_aggregate_cells,
    expand_cell_set,
)
from repro.broker import BrokerConfig, ContentBroker
from repro.clustering import Clustering, NoLossAlgorithm
from repro.geometry import Dimension, EventSpace, Interval, Rectangle
from repro.grid import build_cell_set
from repro.matching import BruteForceMatcher, GridMatcher, NoLossMatcher
from repro.network import RoutingTables
from repro.obs import get_registry
from repro.sim import ExperimentContext, Scenario, plan_cells, run_cells
from repro.sim.experiment import GRID_ALGORITHMS, make_grid_algorithm
from repro.workload import MixturePublicationModel, single_mode_mixture

from tests.helpers import make_subscription_set, publish_one

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fork start method unavailable"
)


# ----------------------------------------------------------------------
# fixtures: a duplicate-heavy workload on a small exhaustive space
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def space():
    return EventSpace([Dimension("x", 0, 7), Dimension("y", 0, 7)])


#: distinct rectangle specs; index = spec id used below
RECT_SPECS = [
    [(-1, 7), (-1, 7)],  # 0: the whole space (contains everything)
    [(-1, 3), (-1, 3)],  # 1: contained in 0
    [(0, 2), (0, 2)],    # 2: contained in 1 (and 0)
    [(3, 7), (3, 7)],    # 3: contained in 0, disjoint from 1/2
    [(3, 5), (4, 6)],    # 4: contained in 3
    [(-1, 3), (3, 7)],   # 5: contained in 0 only
    [(2, 3), (2, 3)],    # 6: degenerate-ish thin rectangle inside 1
]

#: one spec id per subscriber — heavy duplication, interleaved order
DUP_ASSIGNMENT = [0, 1, 2, 1, 3, 0, 4, 1, 5, 3, 2, 0, 6, 1, 3, 5, 0, 2]


@pytest.fixture(scope="module")
def dup_subs(space):
    return make_subscription_set(
        space,
        [(i % 5, RECT_SPECS[spec]) for i, spec in enumerate(DUP_ASSIGNMENT)],
    )


@pytest.fixture(scope="module")
def uniform_pmf(space):
    return np.full(space.n_cells, 1.0 / space.n_cells)


@pytest.fixture(scope="module")
def probe_points(space):
    """Every lattice cell value, plus interior and out-of-space points."""
    points = [space.cell_value(c) for c in range(space.n_cells)]
    rng = np.random.default_rng(99)
    points += [tuple(rng.uniform(-1, 8, size=2)) for _ in range(40)]
    points += [(-5.0, -5.0), (100.0, 100.0)]
    return points


def spec_rect(spec):
    return Rectangle(tuple(Interval.make(lo, hi) for lo, hi in spec))


# ----------------------------------------------------------------------
# the aggregation pass itself
# ----------------------------------------------------------------------
class TestAggregateSubscriptions:
    @pytest.fixture(scope="class")
    def agg(self, dup_subs):
        return aggregate_subscriptions(dup_subs)

    def test_one_aggregate_per_distinct_rectangle(self, agg):
        assert agg.n_aggregates == len(RECT_SPECS)
        assert agg.n_subscriptions == len(DUP_ASSIGNMENT)
        assert agg.aggregation_ratio == pytest.approx(
            len(DUP_ASSIGNMENT) / len(RECT_SPECS)
        )

    def test_multiplicities_sum_to_m(self, agg):
        assert int(agg.multiplicity.sum()) == len(DUP_ASSIGNMENT)
        assert np.all(agg.multiplicity >= 1)

    def test_members_partition_the_rows(self, agg):
        seen = np.concatenate(agg.members)
        np.testing.assert_array_equal(
            np.sort(seen), np.arange(len(DUP_ASSIGNMENT))
        )
        for a, member_rows in enumerate(agg.members):
            assert np.all(np.diff(member_rows) > 0)  # ascending, unique
            np.testing.assert_array_equal(agg.agg_of_row[member_rows], a)
            assert len(member_rows) == agg.multiplicity[a]

    def test_members_share_their_aggregate_bounds(self, agg, dup_subs):
        los, his = dup_subs.bounds()
        for a, member_rows in enumerate(agg.members):
            for row in member_rows:
                np.testing.assert_array_equal(los[row], agg.los[a])
                np.testing.assert_array_equal(his[row], agg.his[a])

    def test_min_owner_ordering(self, agg):
        """Aggregates are sorted by smallest member subscriber id — the
        ordering the hypercell-equivalence proof relies on."""
        min_owners = [int(owners.min()) for owners in agg.owners]
        assert min_owners == sorted(min_owners)

    def test_expand_rows_round_trip(self, agg, dup_subs):
        los, his = dup_subs.bounds()
        rlos, rhis = agg.expand_rows(len(los))
        np.testing.assert_array_equal(rlos, los)
        np.testing.assert_array_equal(rhis, his)

    def test_subscriber_map(self, agg, dup_subs):
        sub_map = agg.subscriber_map(dup_subs.n_subscribers)
        assert np.all(sub_map >= 0)
        for sub, a in enumerate(sub_map):
            assert sub in agg.owners[a]

    def test_deactivation_excludes_rows(self, space, dup_subs):
        subs = make_subscription_set(
            space,
            [
                (i % 5, RECT_SPECS[spec])
                for i, spec in enumerate(DUP_ASSIGNMENT)
            ],
        )
        subs.deactivate(0)   # the only uses of spec 0 at rows 0,5,11,16
        subs.deactivate(5)
        subs.deactivate(11)
        subs.deactivate(16)
        subs.deactivate(12)  # the single spec-6 subscription
        agg = aggregate_subscriptions(subs)
        assert agg.n_aggregates == len(RECT_SPECS) - 2
        assert agg.n_subscriptions == len(DUP_ASSIGNMENT) - 5
        assert int(agg.multiplicity.sum()) == agg.n_subscriptions
        for row in (0, 5, 11, 16, 12):
            assert agg.agg_of_row[row] == -1
        # the departed rows come back blanked from expand_rows
        rlos, rhis = agg.expand_rows(len(DUP_ASSIGNMENT))
        los, his = subs.bounds()
        np.testing.assert_array_equal(rlos, los)
        np.testing.assert_array_equal(rhis, his)

    def test_empty_set(self, space):
        subs = make_subscription_set(space, [(0, RECT_SPECS[0])])
        subs.deactivate(0)
        agg = aggregate_subscriptions(subs)
        assert agg.n_aggregates == 0
        assert agg.n_subscriptions == 0
        assert agg.aggregation_ratio == 1.0
        assert np.all(agg.agg_of_row == -1)


# ----------------------------------------------------------------------
# interest queries through the aggregate view
# ----------------------------------------------------------------------
class TestAggregateView:
    @pytest.fixture(scope="class")
    def view(self, dup_subs):
        return AggregateView(dup_subs)

    def test_interested_subscribers_match(self, view, dup_subs, probe_points):
        for point in probe_points:
            np.testing.assert_array_equal(
                view.batch_interested_subscribers([point])[0],
                dup_subs.interested_subscribers(point),
            )

    def test_batch_interested_subscribers_match(
        self, view, dup_subs, probe_points
    ):
        mine = view.batch_interested_subscribers(probe_points)
        theirs = dup_subs.batch_interested_subscribers(probe_points)
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            np.testing.assert_array_equal(a, b)

    def test_empty_batch(self, view):
        assert view.batch_interested_subscribers([]) == []


# ----------------------------------------------------------------------
# grid build: weighted aggregate cells + exact expansion
# ----------------------------------------------------------------------
class TestCellExpansion:
    @pytest.fixture(scope="class")
    def built(self, space, dup_subs, uniform_pmf):
        agg = aggregate_subscriptions(dup_subs)
        agg_cells, expanded = build_aggregate_cells(
            space, dup_subs, agg, uniform_pmf
        )
        direct = build_cell_set(space, dup_subs, uniform_pmf)
        return agg, agg_cells, expanded, direct

    @staticmethod
    def assert_cell_ids_equal(a, b):
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca, cb)

    def test_expansion_is_byte_identical(self, built):
        _, _, expanded, direct = built
        np.testing.assert_array_equal(expanded.membership, direct.membership)
        np.testing.assert_array_equal(expanded.probs, direct.probs)
        self.assert_cell_ids_equal(expanded.cell_ids, direct.cell_ids)
        np.testing.assert_array_equal(
            expanded.hypercell_of_cell, direct.hypercell_of_cell
        )

    def test_expansion_is_c_contiguous(self, built):
        """The packed-bitset mirror requires C-contiguous rows; the
        column gather of the expansion would naturally come out
        Fortran-ordered."""
        _, _, expanded, _ = built
        assert expanded.membership.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(
            expanded.packed.words.sum(axis=1) >= 0, True
        )  # packing must not raise

    def test_weighted_sizes_equal_expanded_sizes(self, built):
        _, agg_cells, expanded, _ = built
        assert agg_cells.weights is not None
        assert int(agg_cells.weights.sum()) == expanded.n_subscribers
        np.testing.assert_array_equal(agg_cells.sizes, expanded.sizes)

    def test_budgeted_build_matches_too(self, space, dup_subs, uniform_pmf):
        agg = aggregate_subscriptions(dup_subs)
        agg_cells, expanded = build_aggregate_cells(
            space, dup_subs, agg, uniform_pmf, max_cells=20
        )
        direct = build_cell_set(space, dup_subs, uniform_pmf, max_cells=20)
        np.testing.assert_array_equal(expanded.membership, direct.membership)
        np.testing.assert_array_equal(expanded.probs, direct.probs)
        self.assert_cell_ids_equal(expanded.cell_ids, direct.cell_ids)
        assert len(agg_cells) == len(expanded)

    def test_expand_rejects_departed_subscribers(self, built):
        _, agg_cells, _, _ = built
        bad_map = np.array([0, 1, -1], dtype=np.int64)
        with pytest.raises(ValueError, match="departed"):
            expand_cell_set(agg_cells, bad_map)


# ----------------------------------------------------------------------
# fits: weighted aggregate columns produce the identical clustering
# ----------------------------------------------------------------------
class TestFitEquivalence:
    @pytest.fixture(scope="class")
    def built(self, space, dup_subs, uniform_pmf):
        agg = aggregate_subscriptions(dup_subs)
        agg_cells, expanded = build_aggregate_cells(
            space, dup_subs, agg, uniform_pmf
        )
        return agg_cells, expanded

    @pytest.mark.parametrize("name", GRID_ALGORITHMS)
    @pytest.mark.parametrize("n_groups", [2, 4])
    def test_fit_matches_direct(self, built, name, n_groups):
        agg_cells, expanded = built
        direct = make_grid_algorithm(name).fit(
            expanded, n_groups, rng=np.random.default_rng(5)
        )
        fitted = make_grid_algorithm(name).fit(
            agg_cells, n_groups, rng=np.random.default_rng(5)
        )
        via_agg = Clustering(expanded, fitted.assignment)
        np.testing.assert_array_equal(via_agg.assignment, direct.assignment)
        np.testing.assert_array_equal(
            via_agg.group_membership, direct.group_membership
        )
        assert via_agg.total_expected_waste() == pytest.approx(
            direct.total_expected_waste()
        )
        # the aggregate-level waste accounting is subscriber-exact
        assert fitted.total_expected_waste() == pytest.approx(
            direct.total_expected_waste()
        )


# ----------------------------------------------------------------------
# matchers: identical delivery plans through all four implementations
# ----------------------------------------------------------------------
class TestMatcherEquivalence:
    @pytest.fixture(scope="class")
    def clusterings(self, space, dup_subs, uniform_pmf):
        agg = aggregate_subscriptions(dup_subs)
        agg_cells, expanded = build_aggregate_cells(
            space, dup_subs, agg, uniform_pmf
        )
        direct = make_grid_algorithm("kmeans").fit(
            expanded, 3, rng=np.random.default_rng(2)
        )
        fitted = make_grid_algorithm("kmeans").fit(
            agg_cells, 3, rng=np.random.default_rng(2)
        )
        return Clustering(expanded, fitted.assignment), direct

    @staticmethod
    def assert_plans_equal(pa, pb):
        np.testing.assert_array_equal(pa.interested, pb.interested)
        assert pa.group_ids == pb.group_ids
        for ma, mb in zip(pa.group_members, pb.group_members):
            np.testing.assert_array_equal(ma, mb)
        np.testing.assert_array_equal(
            pa.unicast_subscribers, pb.unicast_subscribers
        )

    def test_brute_force(self, dup_subs, probe_points):
        view = AggregateView(dup_subs)
        matcher = BruteForceMatcher(dup_subs)
        via_agg = matcher.match_batch(
            probe_points,
            interested=view.batch_interested_subscribers(probe_points),
        )
        direct = matcher.match_batch(probe_points)
        for pa, pb in zip(via_agg, direct):
            self.assert_plans_equal(pa, pb)

    def test_grid_matcher(self, clusterings, dup_subs, probe_points):
        via_agg, direct = clusterings
        a = GridMatcher(via_agg, dup_subs).match_batch(probe_points)
        b = GridMatcher(direct, dup_subs).match_batch(probe_points)
        for pa, pb in zip(a, b):
            self.assert_plans_equal(pa, pb)
            pa.audit()

    def test_noloss_matcher(self, dup_subs, uniform_pmf, probe_points):
        result = NoLossAlgorithm(n_keep=100, iterations=2).fit(
            dup_subs, uniform_pmf, 3, rng=np.random.default_rng(0)
        )
        matcher = NoLossMatcher(result, dup_subs)
        view = AggregateView(dup_subs)
        via_agg = matcher.match_batch(
            probe_points,
            interested=view.batch_interested_subscribers(probe_points),
        )
        direct = matcher.match_batch(probe_points)
        for pa, pb in zip(via_agg, direct):
            self.assert_plans_equal(pa, pb)


# ----------------------------------------------------------------------
# end-to-end: experiment context, sweep engine, CLI
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_scenario(small_topology, small_subscriptions, small_publications):
    return Scenario(
        name="aggregation-golden",
        topology=small_topology,
        routing=RoutingTables(small_topology.graph),
        space=small_subscriptions.space,
        subscriptions=small_subscriptions,
        publications=small_publications,
        seed=5,
    )


@pytest.fixture(scope="module")
def ctx_pair(golden_scenario):
    return (
        ExperimentContext(golden_scenario, n_events=25, aggregate=True),
        ExperimentContext(golden_scenario, n_events=25, aggregate=False),
    )


class TestExperimentContextGolden:
    def test_cells_byte_identical(self, ctx_pair):
        on, off = ctx_pair
        a, b = on.cells(80), off.cells(80)
        np.testing.assert_array_equal(a.membership, b.membership)
        np.testing.assert_array_equal(a.probs, b.probs)
        TestCellExpansion.assert_cell_ids_equal(a.cell_ids, b.cell_ids)
        np.testing.assert_array_equal(
            a.hypercell_of_cell, b.hypercell_of_cell
        )

    @pytest.mark.parametrize("name", GRID_ALGORITHMS)
    def test_algorithm_summaries_identical(self, ctx_pair, name):
        on, off = ctx_pair
        a = on.run_grid_algorithm(name, 4, max_cells=80)
        b = off.run_grid_algorithm(name, 4, max_cells=80)
        assert len(a) == len(b) == 1
        assert a[0].summary.as_row() == b[0].summary.as_row()
        assert a[0].n_cells == b[0].n_cells

    def test_unicast_baseline_identical(self, ctx_pair):
        on, off = ctx_pair
        assert (
            on.run_unicast_baseline().summary.as_row()
            == off.run_unicast_baseline().summary.as_row()
        )

    def test_noloss_identical(self, ctx_pair):
        on, off = ctx_pair
        a = on.run_noloss(3, n_keep=200, iterations=2)
        b = off.run_noloss(3, n_keep=200, iterations=2)
        assert a[0].summary.as_row() == b[0].summary.as_row()

    def test_agg_cells_guard(self, ctx_pair):
        on, off = ctx_pair
        cells = on.agg_cells(80)
        if on.aggregates.n_aggregates < on.aggregates.n_subscriptions:
            np.testing.assert_array_equal(
                cells.weights, on.aggregates.multiplicity
            )
        else:
            # nothing collapsed: all-ones weights are dropped so the
            # fits keep the packed-bitset kernels
            assert cells.weights is None
        with pytest.raises(ValueError, match="aggregation is off"):
            off.agg_cells(80)

    def test_manifest_stamps_aggregation(self, ctx_pair):
        on, off = ctx_pair
        stamped = on.manifest().config
        assert stamped["aggregate"] is True
        assert stamped["n_aggregates"] == on.aggregates.n_aggregates
        assert stamped["aggregation_ratio"] == pytest.approx(
            on.aggregates.aggregation_ratio
        )
        plain = off.manifest().config
        assert plain["aggregate"] is False
        assert "n_aggregates" not in plain

    def test_batch_gauges_exported(self, ctx_pair):
        on, _ = ctx_pair
        registry = get_registry()
        gauge = registry.gauge(
            "aggregation_aggregates",
            "distinct subscription rectangles after aggregation",
        )
        assert gauge.labels(path="batch").value == pytest.approx(
            on.aggregates.n_aggregates
        )
        ratio = registry.gauge(
            "aggregation_ratio", "live subscriptions per aggregate"
        )
        assert ratio.labels(path="batch").value == pytest.approx(
            on.aggregates.aggregation_ratio
        )


def _comparable(outcomes):
    """Sweep rows minus wall-clock timing."""
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


class TestSweepGolden:
    @pytest.fixture(scope="class")
    def sweep_cells(self):
        return plan_cells(
            (3, 6), ("kmeans", "pairs"),
            cell_budgets={"kmeans": 80, "pairs": 80},
        )

    def test_serial_sweep_identical(self, ctx_pair, sweep_cells):
        on, off = ctx_pair
        assert _comparable(
            run_cells(on, sweep_cells, workers=1)
        ) == _comparable(run_cells(off, sweep_cells, workers=1))

    @needs_fork
    def test_parallel_aggregated_sweep_identical(self, ctx_pair, sweep_cells):
        on, off = ctx_pair
        parallel_on = run_cells(on, sweep_cells, workers=4)
        serial_off = run_cells(off, sweep_cells, workers=1)
        assert _comparable(parallel_on) == _comparable(serial_off)


class TestCLIGolden:
    """`sim sweep` / `sim serve` with --aggregate on vs off."""

    SWEEP_ARGV = [
        "sweep", "--subs", "120", "--events", "15",
        "--groups", "4", "--algorithms", "kmeans,pairs",
        "--max-cells", "60",
    ]
    SERVE_ARGV = [
        "serve", "--events", "400", "--subs", "100",
        "--groups", "12", "--max-cells", "300", "--churn", "0.15",
    ]

    def _sweep_rows(self, argv, tmp_path, name):
        import csv

        from repro.sim.cli import main

        path = tmp_path / name
        assert main(argv + ["--csv", str(path)]) == 0
        return [
            {k: v for k, v in row.items() if k != "fit_seconds"}
            for row in csv.DictReader(path.open())
        ]

    def test_sweep_rows_identical(self, capsys, tmp_path):
        plain = self._sweep_rows(self.SWEEP_ARGV, tmp_path, "plain.csv")
        agg = self._sweep_rows(
            self.SWEEP_ARGV + ["--aggregate"], tmp_path, "agg.csv"
        )
        capsys.readouterr()
        assert len(plain) == len(agg) == 2
        assert plain == agg

    @needs_fork
    def test_sweep_rows_identical_with_workers(self, capsys, tmp_path):
        plain = self._sweep_rows(self.SWEEP_ARGV, tmp_path, "plain.csv")
        agg = self._sweep_rows(
            self.SWEEP_ARGV + ["--aggregate", "--workers", "4"],
            tmp_path,
            "agg.csv",
        )
        capsys.readouterr()
        assert plain == agg

    def test_serve_report_byte_identical(self, capsys):
        from repro.sim.cli import main

        assert main(self.SERVE_ARGV) == 0
        plain = capsys.readouterr().out
        assert main(self.SERVE_ARGV + ["--aggregate"]) == 0
        aggregated = capsys.readouterr().out
        assert aggregated == plain


# ----------------------------------------------------------------------
# online: the broker's incremental aggregate maintenance
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def broker_env(small_topology):
    publications = MixturePublicationModel(
        small_topology, single_mode_mixture()
    )
    return {
        "routing": RoutingTables(small_topology.graph),
        "space": publications.space,
        "pmf": publications.cell_pmf(),
        "topology": small_topology,
    }


def make_broker(env, **config_kwargs):
    defaults = dict(n_groups=4, max_cells=200, rebalance_after=10**9)
    defaults.update(config_kwargs)
    return ContentBroker(
        env["routing"], env["space"], env["pmf"],
        config=BrokerConfig(**defaults),
    )


def duplicate_rectangles(env, n_distinct=5, seed=3):
    rng = np.random.default_rng(seed)
    space = env["space"]
    rects = []
    for _ in range(n_distinct):
        los, his = [], []
        for dim in space.dimensions:
            lo = rng.uniform(dim.lo - 1, dim.hi - 2)
            los.append(lo)
            his.append(lo + rng.uniform(1, (dim.hi - dim.lo) / 2 + 1))
        rects.append(Rectangle.from_bounds(los, his))
    return rects


class TestOnlineAggregator:
    def test_duplicate_tracking(self, broker_env):
        rects = duplicate_rectangles(broker_env, n_distinct=3)
        aggregator = OnlineAggregator()
        handles = []
        for h in range(10):
            aggregator.add(h, rects[h % 3])
            handles.append(h)
        snap = aggregator.snapshot(sorted(handles))
        assert snap.n_aggregates == 3
        assert snap.n_subscriptions == 10
        assert snap.aggregation_ratio == pytest.approx(10 / 3)
        assert int(snap.multiplicity.sum()) == 10
        # reps are the first (lowest) handle per distinct rectangle
        assert list(snap.reps) == [0, 1, 2]
        # removing a rep promotes the next member; removing every
        # member of a rectangle (2, 5, 8) drops its aggregate
        aggregator.remove(0)
        aggregator.remove(2)
        aggregator.remove(5)
        aggregator.remove(8)
        snap = aggregator.snapshot(sorted(set(handles) - {0, 2, 5, 8}))
        assert snap.n_aggregates == 2
        assert snap.n_subscriptions == 6
        assert list(snap.reps) == [1, 3]
        np.testing.assert_array_equal(snap.multiplicity, [3, 3])

    def test_duplicate_handle_rejected(self, broker_env):
        rects = duplicate_rectangles(broker_env, n_distinct=1)
        aggregator = OnlineAggregator()
        aggregator.add(0, rects[0])
        with pytest.raises(KeyError):
            aggregator.add(0, rects[0])
        # removing the sole member dissolves the aggregate; removing an
        # unknown handle is an error
        assert aggregator.remove(0)
        with pytest.raises(KeyError):
            aggregator.remove(0)

    def test_snapshot_matches_batch_aggregation(self, broker_env):
        """The incrementally-maintained snapshot agrees with a fresh
        batch aggregation of the same live set."""
        rects = duplicate_rectangles(broker_env, n_distinct=4)
        space = broker_env["space"]
        aggregator = OnlineAggregator()
        assignment = [0, 1, 0, 2, 1, 3, 0, 2, 1, 0]
        for h, spec in enumerate(assignment):
            aggregator.add(h, rects[spec])
        snap = aggregator.snapshot(list(range(len(assignment))))
        from repro.workload import Subscription, SubscriptionSet

        subs = SubscriptionSet(
            space,
            [
                Subscription(h, 0, rects[spec])
                for h, spec in enumerate(assignment)
            ],
        )
        batch = aggregate_subscriptions(subs)
        assert snap.n_aggregates == batch.n_aggregates
        np.testing.assert_array_equal(snap.multiplicity, batch.multiplicity)
        np.testing.assert_array_equal(
            snap.agg_of, batch.subscriber_map(len(assignment))
        )


class TestBrokerAggregation:
    def _populate(self, env, broker, rng_seed=11, n_subs=30):
        rng = np.random.default_rng(rng_seed)
        rects = duplicate_rectangles(env, n_distinct=5)
        stub_nodes = env["topology"].stub_nodes()
        handles = []
        for i in range(n_subs):
            node = int(rng.choice(stub_nodes))
            handles.append(broker.subscribe(node, rects[i % 5]))
        return handles

    def _probe(self, env, broker, n_points=30, seed=21):
        rng = np.random.default_rng(seed)
        space = env["space"]
        receipts = []
        publisher = int(env["topology"].stub_nodes()[0])
        for _ in range(n_points):
            point = tuple(
                rng.uniform(dim.lo, dim.hi) for dim in space.dimensions
            )
            receipts.append(publish_one(broker, point, publisher))
        return receipts

    def test_rebuild_and_delivery_identical(self, broker_env):
        plain = make_broker(broker_env, aggregate=False)
        agg = make_broker(broker_env, aggregate=True)
        self._populate(broker_env, plain)
        self._populate(broker_env, agg)
        plain.rebuild(full=True)
        agg.rebuild(full=True)
        np.testing.assert_array_equal(
            agg.clustering.assignment, plain.clustering.assignment
        )
        np.testing.assert_array_equal(
            agg.clustering.group_membership,
            plain.clustering.group_membership,
        )
        for ra, rb in zip(
            self._probe(broker_env, agg), self._probe(broker_env, plain)
        ):
            assert ra == rb

    def test_identity_survives_churn(self, broker_env):
        plain = make_broker(broker_env, aggregate=False)
        agg = make_broker(broker_env, aggregate=True)
        hp = self._populate(broker_env, plain)
        ha = self._populate(broker_env, agg)
        plain.rebuild(full=True)
        agg.rebuild(full=True)
        rng = np.random.default_rng(17)
        rects = duplicate_rectangles(broker_env, n_distinct=5)
        stub_nodes = broker_env["topology"].stub_nodes()
        for step in range(6):
            victim = int(rng.integers(len(hp)))
            plain.unsubscribe(hp.pop(victim))
            agg.unsubscribe(ha.pop(victim))
            node = int(rng.choice(stub_nodes))
            rect = rects[int(rng.integers(5))]
            hp.append(plain.subscribe(node, rect))
            ha.append(agg.subscribe(node, rect))
            plain.rebuild(full=False)
            agg.rebuild(full=False)
            np.testing.assert_array_equal(
                agg.clustering.assignment, plain.clustering.assignment
            )
        for ra, rb in zip(
            self._probe(broker_env, agg), self._probe(broker_env, plain)
        ):
            assert ra == rb

    def test_weighted_cells_and_ratio(self, broker_env):
        broker = make_broker(broker_env, aggregate=True)
        self._populate(broker_env, broker, n_subs=30)
        broker.rebuild(full=True)
        snap = broker._aggregator.snapshot(broker._external_of)
        assert snap.n_aggregates == 5
        assert snap.aggregation_ratio == pytest.approx(6.0)
        gauge = get_registry().gauge(
            "aggregation_ratio", "live subscriptions per aggregate"
        )
        assert gauge.labels(path="online").value == pytest.approx(6.0)

    def test_flight_records_expand_stage(self, broker_env):
        from repro.obs import get_flight_recorder

        broker = make_broker(broker_env, aggregate=True)
        self._populate(broker_env, broker)
        flight = get_flight_recorder()
        flight.enable()
        try:
            with flight.event(0, 0.0):
                broker.rebuild(full=True)
            records = flight.records()
        finally:
            flight.disable()
            flight.clear()
        expand = [r for r in records if r.stage == "expand"]
        assert len(expand) == 1
        assert expand[0].attrs["aggregates"] == 5
        assert expand[0].attrs["subscriptions"] == 30
