"""Fault injection: schedules, recovery machinery and chaos replay.

Locks in the tentpole invariants:

* conservation — every publication is delivered, degraded or explicitly
  lost; nothing is ever silently dropped (property-based);
* recovery — after a balanced schedule and the final full rebuild,
  delivery costs are byte-identical to a broker that never saw a fault
  (property-based);
* a golden chaos regression pinning exact degraded/lost/rebuild counts
  for one seeded scenario + schedule.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broker import BrokerConfig, ContentBroker, DeliveryStats, RebuildScheduler
from repro.faults import KINDS, ChaosRunner, DegradationReport, FaultEvent, FaultSchedule
from repro.network import Graph, RoutingTables, TransitStubGenerator, TransitStubParams
from repro.obs import get_registry
from repro.sim.scenario import build_evaluation_scenario

from tests.helpers import (
    cached_sources,
    chaos_price,
    edge_cost,
    has_edge,
    record_one,
)

# ----------------------------------------------------------------------
# fixtures: everything fault tests touch is mutated in place, so all
# topology-bearing fixtures are function-scoped and freshly built
# ----------------------------------------------------------------------

SMALL_PARAMS = TransitStubParams(
    n_transit_blocks=3,
    transit_nodes_per_block=2,
    stubs_per_transit=1,
    nodes_per_stub=4,
)

FAST_CONFIG = BrokerConfig(
    n_groups=8,
    max_cells=200,
    rebalance_after=10**9,  # rebuilds are schedule-driven in chaos runs
    rebuild_debounce=2.0,
    rebuild_backoff_base=1.0,
)


def make_scenario(seed=7, n_subscriptions=40):
    """A fresh ~30-node scenario; never shared across mutating tests."""
    return build_evaluation_scenario(
        modes=1,
        n_subscriptions=n_subscriptions,
        params=SMALL_PARAMS,
        seed=seed,
    )


@pytest.fixture
def topology():
    return TransitStubGenerator(
        SMALL_PARAMS, np.random.default_rng(7)
    ).generate()


@pytest.fixture
def routing(topology):
    return RoutingTables(topology.graph)


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(0.0, "meteor_strike", node=3)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent(-1.0, "node_down", node=3)

    def test_node_events_require_target(self):
        with pytest.raises(ValueError, match="node target"):
            FaultEvent(0.0, "node_down")

    def test_link_normalised_to_sorted_endpoints(self):
        event = FaultEvent(1.0, "link_down", link=(9, 2))
        assert event.link == (2, 9)

    def test_self_loop_link_rejected(self):
        with pytest.raises(ValueError, match="link"):
            FaultEvent(1.0, "link_down", link=(4, 4))

    def test_dict_round_trip(self):
        for event in (
            FaultEvent(1.5, "node_down", node=3),
            FaultEvent(2.0, "link_up", link=(5, 1)),
            FaultEvent(3.0, "sub_leave", subscriber=12),
            FaultEvent(4.0, "sub_join", node=6),
        ):
            assert FaultEvent.from_dict(event.as_dict()) == event


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule(
            [
                FaultEvent(5.0, "node_up", node=1),
                FaultEvent(1.0, "node_down", node=1),
            ]
        )
        assert [e.time for e in schedule] == [1.0, 5.0]

    def test_horizon_defaults_to_last_event(self):
        schedule = FaultSchedule([FaultEvent(4.0, "node_down", node=1)])
        assert schedule.horizon == 4.0

    def test_horizon_before_last_event_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            FaultSchedule(
                [FaultEvent(4.0, "node_down", node=1)], horizon=2.0
            )

    def test_counts_zero_filled(self):
        counts = FaultSchedule().counts()
        assert set(counts) == set(KINDS)
        assert all(v == 0 for v in counts.values())

    def test_generate_is_balanced_and_deterministic(self, topology):
        kwargs = dict(
            horizon=50.0,
            seed=3,
            node_fraction=0.2,
            n_link_faults=4,
            n_churn=3,
            n_subscribers=60,
        )
        schedule = FaultSchedule.generate(topology, **kwargs)
        counts = schedule.counts()
        assert counts["node_down"] == counts["node_up"] > 0
        assert counts["link_down"] == counts["link_up"] == 4
        assert counts["sub_leave"] == counts["sub_join"] == 3
        assert all(0.0 <= e.time <= 50.0 for e in schedule)
        again = FaultSchedule.generate(topology, **kwargs)
        assert schedule.as_dicts() == again.as_dicts()

    def test_generate_only_fails_stub_nodes(self, topology):
        schedule = FaultSchedule.generate(
            topology, horizon=50.0, seed=1, node_fraction=0.5
        )
        stubs = set(topology.stub_nodes())
        for event in schedule:
            if event.kind == "node_down":
                assert event.node in stubs

    def test_generate_respects_protect(self, topology):
        protected = topology.stub_nodes()[:5]
        schedule = FaultSchedule.generate(
            topology,
            horizon=50.0,
            seed=1,
            node_fraction=1.0,
            protect=protected,
        )
        downed = {e.node for e in schedule if e.kind == "node_down"}
        assert downed.isdisjoint(protected)

    def test_every_down_has_an_up_inside_horizon(self, topology):
        schedule = FaultSchedule.generate(
            topology, horizon=30.0, seed=9, node_fraction=0.3,
            n_link_faults=5,
        )
        open_nodes, open_links = set(), set()
        for event in schedule:
            if event.kind == "node_down":
                open_nodes.add(event.node)
            elif event.kind == "node_up":
                assert event.node in open_nodes
                open_nodes.discard(event.node)
            elif event.kind == "link_down":
                open_links.add(event.link)
            elif event.kind == "link_up":
                assert event.link in open_links
                open_links.discard(event.link)
        assert not open_nodes and not open_links

    def test_json_round_trip(self, topology, tmp_path):
        schedule = FaultSchedule.generate(
            topology, horizon=25.0, seed=2, node_fraction=0.2,
            n_link_faults=2, n_churn=1, n_subscribers=10,
        )
        path = tmp_path / "schedule.json"
        schedule.to_json(path)
        loaded = FaultSchedule.from_json(path)
        assert loaded.horizon == schedule.horizon
        assert loaded.as_dicts() == schedule.as_dicts()
        # the file itself is plain JSON, inspectable by hand
        payload = json.loads(path.read_text())
        assert payload["horizon"] == 25.0


# ----------------------------------------------------------------------
# graph-level removal / restoration
# ----------------------------------------------------------------------


class TestGraphFaults:
    def make_triangle(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(0, 2, 5.0)
        g.add_edge(2, 3, 1.0)
        return g

    def test_remove_restore_edge_round_trip(self):
        g = self.make_triangle()
        version = g.version
        cost = g.remove_edge(0, 1)
        assert cost == 1.0
        assert not has_edge(g, 0, 1)
        assert g.version > version
        g.restore_edge(0, 1, cost)
        assert edge_cost(g, 0, 1) == 1.0
        assert g.n_edges == 4

    def test_remove_missing_edge_raises(self):
        g = self.make_triangle()
        with pytest.raises(KeyError):
            g.remove_edge(0, 3)

    def test_node_down_detaches_and_restores_edges(self):
        g = self.make_triangle()
        detached = g.remove_node(2)
        assert detached == 3
        assert g.failed_nodes == frozenset({2})
        assert g.n_edges == 1
        assert g.degree(3) == 0
        g.restore_node(2)
        assert g.failed_nodes == frozenset()
        assert g.n_edges == 4
        assert edge_cost(g, 2, 3) == 1.0

    def test_add_edge_to_down_node_rejected(self):
        g = self.make_triangle()
        g.remove_node(2)
        with pytest.raises(ValueError, match="failed node"):
            g.add_edge(2, 3, 1.0)

    def test_overlapping_node_faults_any_restore_order(self):
        # the 1-2 edge must survive both endpoints being down at once,
        # whichever endpoint recovers first
        for first, second in ((1, 2), (2, 1)):
            g = self.make_triangle()
            g.remove_node(1)
            g.remove_node(2)
            assert g.n_edges == 0
            g.restore_node(first)
            assert not has_edge(g, 1, 2)
            g.restore_node(second)
            assert edge_cost(g, 1, 2) == 2.0
            assert g.n_edges == 4

    def test_link_fault_on_down_node_stays_removed_after_recovery(self):
        g = self.make_triangle()
        g.remove_node(2)
        cost = g.remove_edge(2, 3)  # fails while stashed
        assert cost == 1.0
        g.restore_node(2)
        assert not has_edge(g, 2, 3)
        g.restore_edge(2, 3, cost)
        assert edge_cost(g, 2, 3) == 1.0

    def test_restore_edge_parks_on_down_endpoint(self):
        g = self.make_triangle()
        g.remove_edge(1, 2)
        g.remove_node(2)
        g.restore_edge(1, 2, 2.0)  # endpoint 2 still down: parked
        assert not has_edge(g, 1, 2)
        g.restore_node(2)
        assert edge_cost(g, 1, 2) == 2.0


# ----------------------------------------------------------------------
# routing: selective invalidation
# ----------------------------------------------------------------------


class TestRoutingFaults:
    def test_fail_link_invalidates_only_trees_using_it(self, routing):
        graph = routing.graph
        n = graph.n_nodes
        for source in range(n):
            routing.shortest_paths(source)
        u, v, _ = next(graph.edges())
        users = {
            s
            for s in range(n)
            if routing.shortest_paths(s).pred[v] == u
            or routing.shortest_paths(s).pred[u] == v
        }
        cost = routing.fail_link(u, v)
        survivors = set(cached_sources(routing))
        assert survivors == set(range(n)) - users
        assert routing.down_links == {(min(u, v), max(u, v)): cost}

    def test_distances_correct_after_fail_and_heal(self, routing):
        graph = routing.graph
        n = graph.n_nodes
        before = np.array(routing.distance_matrix(), copy=True)
        u, v, _ = next(graph.edges())
        routing.fail_link(u, v)
        reference = RoutingTables(graph).distance_matrix()
        assert np.array_equal(routing.distance_matrix(), reference)
        routing.heal_link(u, v)
        assert np.array_equal(routing.distance_matrix(), before)

    def test_fail_node_unreaches_it_heal_restores(self, routing):
        before = np.array(routing.distance_matrix(), copy=True)
        victim = int(routing.graph.n_nodes - 1)
        routing.fail_node(victim)
        assert victim in routing.failed_nodes
        source = 0 if victim != 0 else 1
        assert math.isinf(routing.shortest_paths(source).dist[victim])
        routing.heal_node(victim)
        assert routing.failed_nodes == frozenset()
        assert np.array_equal(routing.distance_matrix(), before)

    def test_heal_unknown_link_raises(self, routing):
        with pytest.raises(KeyError, match="not down"):
            routing.heal_link(0, 1)

    def test_mixed_node_link_faults_recover_exactly(self, routing):
        """Interleaved node and link faults through the stash: fail a
        node, fail one of its (stashed) incident links, heal the node,
        then heal the link — the distance matrix and the edge set must
        come back bit-for-bit."""
        graph = routing.graph
        before = np.array(routing.distance_matrix(), copy=True)
        edges_before = sorted(graph.edges())
        victim = next(
            u
            for u in range(graph.n_nodes)
            if len(list(graph.neighbors(u))) >= 2
        )
        neighbor, link_cost = sorted(graph.neighbors(victim))[0]

        routing.fail_node(victim)
        # the incident link fails while parked in the node's stash
        assert routing.fail_link(victim, neighbor) == link_cost
        routing.heal_node(victim)
        # the node is back, but the separately-failed link must not be
        assert victim not in routing.failed_nodes
        assert not has_edge(graph, victim, neighbor)
        key = (min(victim, neighbor), max(victim, neighbor))
        assert routing.down_links == {key: link_cost}

        routing.heal_link(victim, neighbor)
        assert routing.failed_nodes == frozenset()
        assert routing.down_links == {}
        assert sorted(graph.edges()) == edges_before
        assert np.array_equal(routing.distance_matrix(), before)

    def test_topology_version_tracks_mutations(self, routing):
        v0 = routing.topology_version
        u, v, _ = next(routing.graph.edges())
        routing.fail_link(u, v)
        v1 = routing.topology_version
        routing.heal_link(u, v)
        assert v0 < v1 < routing.topology_version


# ----------------------------------------------------------------------
# rebuild policy
# ----------------------------------------------------------------------


class TestRebuildScheduler:
    def test_not_due_without_changes(self):
        scheduler = RebuildScheduler(debounce=1.0)
        assert not scheduler.due(100.0)

    def test_debounce_coalesces_a_burst(self):
        scheduler = RebuildScheduler(debounce=5.0)
        for t in (0.0, 1.0, 2.0):
            scheduler.note_change(t)
        assert scheduler.pending_weight == 3
        assert not scheduler.due(3.0)  # burst still settling
        assert not scheduler.due(6.9)  # 4.9 quiet < debounce
        assert scheduler.due(7.0)  # one rebuild absorbs all three
        scheduler.fired(7.0)
        assert scheduler.pending_weight == 0
        assert not scheduler.due(7.0)

    def test_change_weights_accumulate(self):
        scheduler = RebuildScheduler()
        scheduler.note_change(0.0, weight=4)
        scheduler.note_change(1.0, weight=3)
        assert scheduler.pending_weight == 7

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            RebuildScheduler().note_change(0.0, weight=-1)

    def test_backoff_escalates_under_sustained_churn(self):
        scheduler = RebuildScheduler(
            backoff_base=1.0, backoff_factor=2.0, backoff_max=8.0
        )
        scheduler.note_change(0.0)
        assert scheduler.due(0.0)
        scheduler.fired(0.0)
        assert scheduler._backoff == 1.0
        # a second rebuild hot on the first escalates the gate
        scheduler.note_change(1.0)
        assert not scheduler.due(0.5)
        assert scheduler.due(1.0)
        scheduler.fired(1.0)
        assert scheduler._backoff == 2.0
        scheduler.note_change(2.0)
        assert not scheduler.due(2.0)  # gated until 1.0 + 2.0
        assert scheduler.due(3.0)
        scheduler.fired(3.0)
        assert scheduler._backoff == 4.0

    def test_backoff_caps_and_resets_after_quiet_spell(self):
        scheduler = RebuildScheduler(
            backoff_base=1.0, backoff_factor=10.0, backoff_max=5.0
        )
        now = 0.0
        for _ in range(4):
            scheduler.note_change(now)
            now = max(now, scheduler.not_before)
            assert scheduler.due(now)
            scheduler.fired(now)
        assert scheduler._backoff == 5.0  # capped
        # quiet longer than backoff_max resets to base
        quiet = now + 100.0
        scheduler.note_change(quiet)
        scheduler.fired(quiet)
        assert scheduler._backoff == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RebuildScheduler(debounce=-1.0)
        with pytest.raises(ValueError):
            RebuildScheduler(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RebuildScheduler(backoff_base=2.0, backoff_max=1.0)


class TestBrokerRebuildPolicy:
    def test_tick_fires_only_when_due(self):
        scenario = make_scenario()
        broker = ContentBroker(
            scenario.routing,
            scenario.space,
            scenario.cell_pmf,
            config=FAST_CONFIG,
        )
        nodes = scenario.subscriptions.subscriber_nodes
        for i, rect in enumerate(scenario.subscriptions.rectangles()):
            broker.subscribe(int(nodes[i]), rect)
        broker.rebuild()
        rebuilds = broker.stats.n_rebuilds
        assert not broker.tick(0.0)  # nothing pending
        broker.notify_change(1.0)
        assert not broker.tick(2.0)  # inside the 2.0 debounce
        assert broker.tick(3.5)
        assert broker.stats.n_rebuilds == rebuilds + 1

    def test_heavy_burst_forces_full_rebuild(self):
        scenario = make_scenario()
        broker = ContentBroker(
            scenario.routing,
            scenario.space,
            scenario.cell_pmf,
            config=FAST_CONFIG,
        )
        nodes = scenario.subscriptions.subscriber_nodes
        for i, rect in enumerate(scenario.subscriptions.rectangles()):
            broker.subscribe(int(nodes[i]), rect)
        broker.rebuild()
        # weight >= full_rebuild_fraction (0.3) of 40 subscribers
        broker.notify_change(0.0, weight=20)
        assert broker.tick(10.0)
        assert broker.stats.n_full_rebuilds == 1
        # a light change warm-starts instead
        broker.notify_change(20.0, weight=1)
        assert broker.tick(30.0)
        assert broker.stats.n_full_rebuilds == 1
        assert broker.stats.n_rebuilds >= 3


# ----------------------------------------------------------------------
# delivery stats: fault outcomes and overlapping rebuilds
# ----------------------------------------------------------------------


class TestDeliveryStatsFaults:
    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcome"):
            record_one(
                DeliveryStats(), 1.0, 1.0, 1.0, True, 1, 0,
                outcome="vanished",
            )

    def test_outcomes_and_availability(self):
        stats = DeliveryStats()
        record_one(stats, 5.0, 6.0, 4.0, True, 10, 0)
        record_one(
            stats, 3.0, 4.0, 2.0, True, 10, 0,
            outcome="degraded", lost_deliveries=2,
            degraded_groups=1, fallback_cost=1.5,
        )
        record_one(
            stats, 0.0, 0.0, 0.0, False, 5, 0,
            outcome="lost", lost_deliveries=5,
        )
        assert (stats.n_delivered, stats.n_degraded, stats.n_lost) == (1, 1, 1)
        assert stats.expected_deliveries == 25
        assert stats.lost_deliveries == 7
        assert stats.availability == pytest.approx(1.0 - 7 / 25)
        assert stats.n_degraded_groups == 1
        assert stats.unicast_fallback_cost == pytest.approx(1.5)
        snapshot = stats.as_dict()
        assert snapshot["availability"] == stats.availability
        assert snapshot["lost_deliveries"] == 7

    def test_availability_is_one_with_no_traffic(self):
        assert DeliveryStats().availability == 1.0

    def test_outcomes_mirror_into_registry(self):
        registry = get_registry()
        counter = registry.counter(
            "broker_publications_total",
            "publication outcomes under fault injection",
        )
        before = counter.value
        stats = DeliveryStats()
        record_one(stats, 1.0, 1.0, 1.0, True, 1, 0, outcome="degraded")
        assert counter.value == before + 1

    def test_record_rebuild_overlapping_debounce_windows(self):
        # two rebuilds racing through one coalesced change burst: each
        # call folds its own deltas, nothing is keyed on "the" rebuild
        stats = DeliveryStats()
        stats.record_rebuild(0.25, 3, full=True)
        stats.record_rebuild(0.50, 5)
        stats.record_rebuild(0.125, 0, full=True)
        assert stats.n_rebuilds == 3
        assert stats.n_full_rebuilds == 2
        assert stats.total_rebuild_seconds == pytest.approx(0.875)
        assert stats.group_membership_changes == 8

    def test_rebuild_kind_counters_sum_in_registry(self):
        registry = get_registry()
        counter = registry.counter(
            "broker_rebuilds_total", "grouping rebuilds performed"
        )
        before = counter.value
        stats = DeliveryStats()
        stats.record_rebuild(0.1, 0, full=True)
        stats.record_rebuild(0.1, 0, full=False)
        # .value sums the full/incremental label children
        assert counter.value == before + 2


# ----------------------------------------------------------------------
# golden chaos regression
# ----------------------------------------------------------------------


def golden_run():
    scenario = make_scenario()
    schedule = FaultSchedule.generate(
        scenario.topology,
        horizon=40.0,
        seed=5,
        node_fraction=0.1,
        n_link_faults=2,
        n_churn=2,
        n_subscribers=40,
    )
    runner = ChaosRunner(
        scenario, schedule, config=FAST_CONFIG, n_events=30, seed=5
    )
    return runner, runner.run()


class TestChaosGolden:
    def test_exact_degradation_counts(self):
        _, report = golden_run()
        assert report.n_publications == 30
        assert report.n_delivered == 23
        assert report.n_degraded == 5
        assert report.n_lost == 2
        assert report.silently_lost == 0
        assert report.expected_deliveries == 84
        assert report.lost_deliveries == 12
        assert report.availability == pytest.approx(1.0 - 12 / 84)
        assert report.n_degraded_groups == 5
        assert report.n_rebuilds == 5
        assert report.n_full_rebuilds == 1
        assert report.unicast_fallback_cost > 0.0

    def test_golden_run_is_reproducible(self):
        _, first = golden_run()
        _, second = golden_run()
        assert first.per_event_costs == second.per_event_costs
        a, b = first.as_dict(), second.as_dict()
        # wall-clock rebuild timing is the only nondeterministic field
        for volatile in ("total_rebuild_seconds", "mean_rebuild_seconds"):
            a.pop(volatile), b.pop(volatile)
        assert a == b

    def test_topology_fully_healed_after_run(self):
        runner, _ = golden_run()
        routing = runner.scenario.routing
        assert routing.failed_nodes == frozenset()
        assert routing.down_links == {}

    def test_report_format_and_jsonl(self, tmp_path):
        _, report = golden_run()
        text = report.format()
        assert "availability" in text and "rebuilds" in text
        path = tmp_path / "degradation.jsonl"
        n_records = report.write_jsonl(path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == n_records == 1 + report.n_publications
        assert lines[0]["kind"] == "degradation_report"
        assert lines[0]["silently_lost"] == 0
        costs = [r["cost"] for r in lines[1:]]
        assert costs == report.per_event_costs

    def test_no_fault_run_matches_baseline_byte_identically(self):
        def baseline():
            return ChaosRunner(
                make_scenario(),
                FaultSchedule(horizon=40.0),
                config=FAST_CONFIG,
                n_events=30,
                seed=5,
            ).run()

        first, second = baseline(), baseline()
        assert first.per_event_costs == second.per_event_costs
        assert first.n_delivered == 30
        assert first.n_degraded == first.n_lost == 0
        assert first.availability == 1.0
        assert first.unicast_fallback_cost == 0.0


class TestChaosPinnedCosts:
    """The golden run's prices under faults, pinned per multicast scheme.

    ``TestChaosGolden`` pins counts; these pin every per-event cost (as
    the sha256 of the ``repr`` of the cost list, total and fallback) so a
    pricing change across topology mutations cannot hide behind
    unchanged degradation counts.
    """

    PINNED = {
        "dense": (
            4779.331609108325,
            "fe17267171b29fd1e475ac299ad9997aba3f15bbd83a7479fe3e96903d056169",
        ),
        "sparse": (
            5730.395404150957,
            "2472105ab28482251032c6543694d91142abbfcc5b2703be2f2a693469912501",
        ),
        "alm": (
            5489.042972855908,
            "0672ca063eeee98065688407aff7a792988924e404310d4c4bb659b0b6ae273a",
        ),
        "overlay": (
            5893.113499633029,
            "63a62a2be3d1f356d7de7320f890d624d5210cd326bccbf6ac5ce48d38965f4b",
        ),
    }

    @pytest.mark.parametrize("scheme", sorted(PINNED))
    def test_costs_under_faults(self, scheme):
        scenario = make_scenario()
        schedule = FaultSchedule.generate(
            scenario.topology,
            horizon=40.0,
            seed=5,
            node_fraction=0.1,
            n_link_faults=2,
            n_churn=2,
            n_subscribers=40,
        )
        config = dataclasses.replace(FAST_CONFIG, scheme=scheme)
        report = ChaosRunner(
            scenario, schedule, config=config, n_events=30, seed=5
        ).run()
        total, digest = self.PINNED[scheme]
        assert report.total_cost == total
        assert report.unicast_fallback_cost == 1390.320448155559
        blob = repr(
            (
                report.per_event_costs,
                report.total_cost,
                report.unicast_fallback_cost,
            )
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


class TestChaosPinnedReports:
    """Whole flight-recorded, SLO-observed chaos reports, pinned.

    Each case replays faults plus subscriber churn with a flight
    recorder and an SLO engine, and pins the sha256 of the report's
    canonical JSON: every count, ``per_event_costs``, ``cause_chains``,
    ``slo_breaches`` and ``slo_summary`` (wall-clock ``*_seconds`` keys
    dropped).  ``dense-lazy`` rebuilds at the first publication after
    each churn (``rebalance_after=1``).
    """

    PINNED = {
        "dense": "7cfed9d0431a38bf6af5a85f78b961371d79e149e88c4f49b2d21cd284e68f30",
        "dense-lazy": "d1766347a848d1fe522e630166917bf67455b5c24c17f7932e7e0e3e5548122e",
        "sparse": "76e6c83547ef36240287bf4d6487f4292a9024c36f23bbecb8cf53f50369a9ba",
    }

    SLO_SPEC = [
        {"name": "no-loss", "signal": "lost_rate", "stat": "max",
         "threshold": 0.0, "window": 10.0},
        {"name": "loss-mean", "signal": "lost_rate", "stat": "mean",
         "threshold": 0.05, "window": 5.0, "min_count": 3},
    ]

    @staticmethod
    def _report(case):
        from repro.obs import load_slo_spec
        from repro.obs.slo import SloEngine

        scheme, _, lazy = case.partition("-")
        scenario = make_scenario()
        schedule = FaultSchedule.generate(
            scenario.topology,
            horizon=40.0,
            seed=5,
            node_fraction=0.1,
            n_link_faults=2,
            n_churn=4,
            n_subscribers=40,
        )
        config = dataclasses.replace(
            FAST_CONFIG, scheme=scheme,
            rebalance_after=1 if lazy else FAST_CONFIG.rebalance_after,
        )
        return ChaosRunner(
            scenario, schedule, config=config, n_events=40, seed=5,
            flight=True,
            slo=SloEngine(load_slo_spec(TestChaosPinnedReports.SLO_SPEC)),
        ).run()

    @staticmethod
    def _canonical(report):
        record = {
            key: value
            for key, value in report.as_dict().items()
            if not key.endswith("_seconds")
        }
        record.update(
            per_event_costs=report.per_event_costs,
            cause_chains=report.cause_chains,
            slo_breaches=report.slo_breaches,
            slo_summary=report.slo_summary,
        )
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_report_digest(self, case):
        report = self._report(case)
        assert report.cause_chains and report.slo_breaches
        assert report.n_rebuilds >= 2
        digest = hashlib.sha256(self._canonical(report).encode()).hexdigest()
        assert digest == self.PINNED[case]


# ----------------------------------------------------------------------
# property suite (hypothesis)
# ----------------------------------------------------------------------

# scenario topologies are restored in place by every balanced run (the
# runner heals all leftover faults), so one prototype per property class
# is safe to share across examples
CHAOS_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def shared_scenario():
    return make_scenario()


@pytest.fixture(scope="module")
def baseline_costs():
    """Recovered-state pricing reference: a broker that never saw a fault."""
    scenario = make_scenario()
    runner = ChaosRunner(
        scenario,
        FaultSchedule(horizon=40.0),
        config=FAST_CONFIG,
        n_events=10,
        seed=17,
    )
    runner.run()
    events = scenario.sample_events(25, np.random.default_rng(99))
    return events, chaos_price(runner, events)


class TestConservationProperty:
    """No publication is ever silently dropped, whatever the schedule."""

    @CHAOS_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        node_fraction=st.floats(min_value=0.0, max_value=0.3),
        n_link_faults=st.integers(min_value=0, max_value=4),
        n_churn=st.integers(min_value=0, max_value=3),
    )
    def test_every_publication_accounted_for(
        self, shared_scenario, seed, node_fraction, n_link_faults, n_churn
    ):
        schedule = FaultSchedule.generate(
            shared_scenario.topology,
            horizon=40.0,
            seed=seed,
            node_fraction=node_fraction,
            n_link_faults=n_link_faults,
            n_churn=n_churn,
            n_subscribers=40,
        )
        runner = ChaosRunner(
            shared_scenario,
            schedule,
            config=FAST_CONFIG,
            n_events=12,
            seed=seed,
        )
        report = runner.run()
        assert report.n_publications == 12
        assert (
            report.n_delivered + report.n_degraded + report.n_lost
            == report.n_publications
        )
        assert report.silently_lost == 0
        assert 0 <= report.lost_deliveries <= report.expected_deliveries
        assert 0.0 <= report.availability <= 1.0
        # the balanced schedule plus end-of-horizon recovery always
        # hands the shared topology back pristine
        routing = shared_scenario.routing
        assert routing.failed_nodes == frozenset()
        assert routing.down_links == {}


class TestRecoveryIdentityProperty:
    """After recovery, pricing is byte-identical to a never-faulted run."""

    @CHAOS_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        node_fraction=st.floats(min_value=0.0, max_value=0.3),
        n_link_faults=st.integers(min_value=0, max_value=4),
    )
    def test_post_recovery_costs_byte_identical(
        self, shared_scenario, baseline_costs, seed, node_fraction,
        n_link_faults,
    ):
        # fault-only schedules: churn changes the subscriber population,
        # which is a different system, not a recovered one
        schedule = FaultSchedule.generate(
            shared_scenario.topology,
            horizon=40.0,
            seed=seed,
            node_fraction=node_fraction,
            n_link_faults=n_link_faults,
        )
        runner = ChaosRunner(
            shared_scenario,
            schedule,
            config=FAST_CONFIG,
            n_events=10,
            seed=17,
        )
        runner.run()
        events, reference = baseline_costs
        recovered = chaos_price(runner, events)
        assert np.array_equal(recovered, reference)


# ----------------------------------------------------------------------
# degradation report arithmetic
# ----------------------------------------------------------------------


class TestDegradationReport:
    def make_report(self, **overrides):
        base = dict(
            scenario="unit", horizon=10.0,
            n_faults={k: 0 for k in KINDS},
        )
        base.update(overrides)
        return DegradationReport(**base)

    def test_silently_lost_arithmetic(self):
        report = self.make_report(
            n_publications=10, n_delivered=6, n_degraded=2, n_lost=1
        )
        assert report.silently_lost == 1

    def test_extra_cost_requires_baseline(self):
        report = self.make_report(total_cost=120.0)
        assert report.extra_cost is None
        report.baseline_cost = 100.0
        assert report.extra_cost == pytest.approx(20.0)

    def test_mean_rebuild_seconds_guards_zero(self):
        assert self.make_report().mean_rebuild_seconds == 0.0
