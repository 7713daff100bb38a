"""Sharded multi-broker fleet: partitioning, budget split, determinism.

The load-bearing claims under test:

* one shard, one epoch is the single-broker soak — report bytes and all,
  with the fleet's arrival-order leave resolution even when churn sheds;
* worker count never changes a byte of any fleet report;
* the replicate and forward policies register the same subscriptions at
  the same shards (deliveries identical), differing only in the member
  flag — and the runtime's churn counters conserve accordingly;
* re-sharding (any N → any M, either strategy) preserves the global
  subscriber multiset and every publication's per-subscriber delivery
  receipt (property-based);
* the coordinator's proportional split conserves K exactly and the
  rebalance trigger follows the drift protocol;
* shard checkpoints and the fleet manifest round-trip.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import (
    FleetConfig,
    FleetCoordinator,
    FleetJoin,
    FleetLeave,
    ShardMap,
    proportional_split,
    route_fleet_stream,
    run_fleet,
)
from repro.online.service import ChurnJoin, ChurnLeave, Publish
from repro.online.soak import SoakConfig, generate_stream, run_soak
from repro.sim.scenario import build_preliminary_scenario

SMALL = dict(
    n_events=800,
    seed=7,
    n_nodes=100,
    n_subscriptions=120,
    n_groups=12,
)


@pytest.fixture(scope="module")
def scenario():
    return build_preliminary_scenario(
        n_nodes=100, n_subscriptions=120, seed=7
    )


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
class TestShardMap:
    def test_single_shard_owns_everything(self, scenario):
        smap = ShardMap(scenario.space, 1)
        assert not smap.cell_to_shard.any()

    def test_strategies_cover_all_shards(self, scenario):
        for strategy in ("hash", "region"):
            smap = ShardMap(scenario.space, 4, strategy)
            counts = smap.shard_cell_counts()
            assert len(counts) == 4
            assert counts.sum() == scenario.space.n_cells
            assert counts.min() > 0

    def test_map_is_deterministic(self, scenario):
        a = ShardMap(scenario.space, 5, "hash")
        b = ShardMap(scenario.space, 5, "hash")
        assert np.array_equal(a.cell_to_shard, b.cell_to_shard)

    def test_region_slabs_are_contiguous(self, scenario):
        smap = ShardMap(scenario.space, 3, "region")
        # ownership along the flat index never decreases: true slabs
        assert (np.diff(smap.cell_to_shard) >= 0).all()

    def test_point_routing_matches_cell_routing(self, scenario):
        smap = ShardMap(scenario.space, 4)
        point = [d.lo + 0.5 for d in scenario.space.dimensions]
        cell = scenario.space.locate(point)
        assert smap.shard_of_point(point) == smap.shard_of_cell(cell)

    def test_home_shard_follows_publication_mass(self, scenario):
        smap = ShardMap(scenario.space, 4)
        cells = np.arange(12)
        pmf = np.zeros(scenario.space.n_cells)
        # all mass on one covered cell: home must be its owner
        pmf[cells[5]] = 1.0
        assert smap.home_shard(cells, pmf) == smap.shard_of_cell(cells[5])
        assert smap.home_shard(np.empty(0, dtype=int), pmf) == 0

    def test_consistent_hash_moves_few_cells(self, scenario):
        before = ShardMap(scenario.space, 4, "hash").cell_to_shard
        after = ShardMap(scenario.space, 5, "hash").cell_to_shard
        moved = np.mean(before != after)
        # adding a shard should move roughly 1/5 of the cells, not all
        # of them (the whole point of the ring); allow generous slack
        assert moved < 0.45

    def test_rejects_bad_parameters(self, scenario):
        with pytest.raises(ValueError):
            ShardMap(scenario.space, 0)
        with pytest.raises(ValueError):
            ShardMap(scenario.space, 2, "mystery")


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class TestProportionalSplit:
    def test_conserves_total_exactly(self):
        for weights in ([1, 1, 1], [5, 0, 0], [0.1, 0.7, 0.2], [0, 0, 0]):
            split = proportional_split(30, weights)
            assert sum(split) == 30
            assert min(split) >= 1

    def test_proportionality(self):
        assert proportional_split(12, [3.0, 1.0]) == [9, 3]
        assert proportional_split(4, [0.0, 0.0, 0.0, 0.0]) == [1, 1, 1, 1]

    def test_remainder_ties_break_low(self):
        # equal weights, indivisible spare: lower shard ids win
        assert proportional_split(5, [1.0, 1.0, 1.0]) == [2, 2, 1]

    def test_rejects_budget_below_floor(self):
        with pytest.raises(ValueError):
            proportional_split(2, [1.0, 1.0, 1.0])


class TestFleetCoordinator:
    def test_initial_split_is_equal(self):
        assert FleetCoordinator(4, 30).split == [8, 8, 7, 7]

    def test_aligned_waste_never_rebalances(self):
        coord = FleetCoordinator(2, 10, rebalance_threshold=1.01)
        for step in range(5):
            assert coord.note_epoch(float(step), [2.0, 2.0]) is None
        assert coord.rebalances == 0

    def test_misaligned_waste_rebalances_once_due(self):
        coord = FleetCoordinator(2, 10, rebalance_threshold=1.25)
        new = coord.note_epoch(1.0, [9.0, 1.0])
        assert new is not None
        assert sum(new) == 10
        assert new[0] > new[1]
        assert coord.rebalances == 1

    def test_misalignment_of_zero_waste_is_unity(self):
        coord = FleetCoordinator(3, 9)
        assert coord.misalignment([0.0, 0.0, 0.0]) == 1.0

    def test_rejects_undersized_budget(self):
        with pytest.raises(ValueError):
            FleetCoordinator(4, 3)


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def _plan(scenario, shards=3, policy="replicate", strategy="hash", **kw):
    config = FleetConfig(
        shards=shards, fleet_policy=policy, sharding=strategy,
        **{**SMALL, **kw},
    )
    smap = ShardMap(scenario.space, shards, strategy)
    return config, smap, route_fleet_stream(config, scenario, smap)


class TestRouting:
    def test_event_conservation(self, scenario):
        """Every stream event routes somewhere; pubs route exactly once."""
        config, _, plan = _plan(scenario)
        events = generate_stream(config, scenario)
        n_pubs = sum(
            1 for e in events if isinstance(e.payload, Publish)
        )
        routed_pubs = sum(
            1
            for per_shard in plan.events
            for shard_events in per_shard
            for e in shard_events
            if isinstance(e.payload, Publish)
        )
        assert routed_pubs == n_pubs
        n_churn = sum(
            1 for e in events if not isinstance(e.payload, Publish)
        )
        assert (
            plan.n_joins + plan.n_leaves + plan.n_noop_leaves == n_churn
        )

    def test_leave_resolution_matches_single_broker_order(self, scenario):
        """The global registry replays churn in arrival order with the
        stream's ``index % len(live)`` arithmetic."""
        config, _, plan = _plan(scenario, shards=1)
        events = sorted(
            generate_stream(config, scenario),
            key=lambda e: (e.time, e.stream != "churn"),
        )
        live = list(range(config.n_subscriptions))
        nxt = config.n_subscriptions
        expected = []
        for event in events:
            if isinstance(event.payload, ChurnJoin):
                live.append(nxt)
                nxt += 1
            elif isinstance(event.payload, ChurnLeave):
                if live:
                    expected.append(
                        live.pop(event.payload.index % len(live))
                    )
        routed = [
            e.payload.gid
            for e in plan.events[0][0]
            if isinstance(e.payload, FleetLeave) and e.payload.gid >= 0
        ]
        assert routed == expected

    def test_policies_route_identically_except_membership(self, scenario):
        """Replicate and forward register the same gids at the same
        shards — deliveries are policy-independent; only the member
        flag (who pays group cost where) differs."""
        _, _, rep = _plan(scenario, policy="replicate")
        _, _, fwd = _plan(scenario, policy="forward")
        for shard in range(3):
            a = [
                (e.time, e.payload.gid)
                for e in rep.events[0][shard]
                if isinstance(e.payload, (FleetJoin, FleetLeave))
            ]
            b = [
                (e.time, e.payload.gid)
                for e in fwd.events[0][shard]
                if isinstance(e.payload, (FleetJoin, FleetLeave))
            ]
            assert a == b

    def test_forward_homes_are_unique(self, scenario):
        _, _, plan = _plan(scenario, policy="forward")
        member_shards = {}
        for shard in range(3):
            for event in plan.events[0][shard]:
                if isinstance(event.payload, FleetJoin):
                    if event.payload.member:
                        member_shards.setdefault(
                            event.payload.gid, []
                        ).append(shard)
        assert member_shards, "no joins routed"
        assert all(len(s) == 1 for s in member_shards.values())


# ----------------------------------------------------------------------
# determinism and degenerate equivalence (the acceptance gates)
# ----------------------------------------------------------------------
class TestFleetDeterminism:
    def test_single_shard_matches_single_broker_soak(self):
        shedding = dict(
            queue_capacity=2, service_rate=200, churn_fraction=0.6
        )
        for kw in (
            {},
            dict(shedding, policy="shed-oldest"),
            dict(shedding, policy="shed-lowest-priority"),
        ):
            fleet = run_fleet(FleetConfig(shards=1, **SMALL, **kw))
            soak = run_soak(SoakConfig(**SMALL, **kw))
            assert (
                fleet.deterministic_report() == soak.deterministic_report()
            )
            if kw:
                # leaves resolve in arrival order at routing time, so a
                # leave aimed at a shed join is a no-op at the broker
                assert soak.service.n_shed["churn"] > 0
                assert soak.service.leaves < soak.plan.n_leaves

    def test_worker_count_never_changes_a_byte(self):
        config = FleetConfig(shards=4, workers=1, **SMALL)
        serial = run_fleet(config).deterministic_report()
        parallel = run_fleet(
            FleetConfig(shards=4, workers=4, **SMALL)
        ).deterministic_report()
        assert serial == parallel

    def test_repeated_runs_are_byte_identical(self):
        config = FleetConfig(
            shards=3, fleet_policy="forward", sharding="region", **SMALL
        )
        assert (
            run_fleet(config).deterministic_report()
            == run_fleet(config).deterministic_report()
        )

    def test_policy_conservation_counters(self, scenario):
        """Same routed stream, two cost models: every routed join is a
        member join on one side and a member-or-forward join on the
        other; publications process identically."""
        rep = run_fleet(
            FleetConfig(shards=3, fleet_policy="replicate", **SMALL)
        )
        fwd = run_fleet(
            FleetConfig(shards=3, fleet_policy="forward", **SMALL)
        )
        assert fwd.total_forwards > 0
        assert rep.total_forwards == 0
        for a, b in zip(rep.shards, fwd.shards):
            assert (
                a.service.n_processed["pub"]
                == b.service.n_processed["pub"]
            )
            assert a.service.n_processed["churn"] == (
                b.service.n_processed["churn"]
            )
            # member joins + match-only joins conserve across policies
            assert a.service.joins + a.forward_joins == (
                b.service.joins + b.forward_joins
            )
            assert a.service.leaves + a.forward_leaves == (
                b.service.leaves + b.forward_leaves
            )

    def test_epochs_rebalance_under_skew(self):
        """A hair-trigger threshold plus region sharding (skewed waste)
        must exercise the coordinator's resplit path."""
        result = run_fleet(
            FleetConfig(
                shards=3, sharding="region", epochs=3,
                rebalance_threshold=1.0001, **SMALL,
            )
        )
        assert len(result.splits) == 3
        assert all(sum(split) == SMALL["n_groups"] for split in result.splits)
        # with any rebalance the later splits differ from the first
        if result.rebalances:
            assert result.splits[-1] != result.splits[0]

    def test_slo_spec_reaches_every_shard(self):
        spec = [{
            "name": "lat-p95", "signal": "latency", "stat": "p95",
            "threshold": 1e-9, "window": 5.0,
        }]
        result = run_fleet(
            FleetConfig(shards=2, **SMALL), slo_spec=spec
        )
        for shard in result.shards:
            assert shard.service.slo_summary
            assert shard.service.slo_breaches


# ----------------------------------------------------------------------
# re-sharding property: the fleet is transparent to subscribers
# ----------------------------------------------------------------------
@st.composite
def reshardings(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(
        st.integers(min_value=1, max_value=5).filter(lambda v: v != n)
    )
    strategy = draw(st.sampled_from(["hash", "region"]))
    return n, m, strategy


class TestReshardingProperties:
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(reshardings())
    def test_resharding_preserves_receipts(self, scenario, params):
        """For any N -> M re-sharding: the live subscriber multiset at
        every epoch boundary is unchanged, every publication routes to
        exactly one shard (the owner of its landing cell), and the gids
        of every publication's delivery receipt were all registered at
        that owner before the event -- so per-subscriber delivery
        receipts are sharding-invariant."""
        n, m, strategy = params
        kw = dict(SMALL, n_events=300)

        # ground truth from the unrouted stream: the live gid set and
        # rectangle per gid at every publication, replayed the way the
        # router resolves churn (arrival order, positional index)
        stream = sorted(
            generate_stream(FleetConfig(shards=1, **kw), scenario),
            key=lambda e: (e.time, e.stream != "churn"),
        )
        rects = {
            gid: rect
            for gid, rect in enumerate(
                scenario.subscriptions.rectangles()
            )
        }
        live = list(range(kw["n_subscriptions"]))
        nxt = len(live)
        receipts = {}
        for event in stream:
            payload = event.payload
            if isinstance(payload, ChurnJoin):
                rects[nxt] = payload.rectangle
                live.append(nxt)
                nxt += 1
            elif isinstance(payload, ChurnLeave):
                if live:
                    live.pop(payload.index % len(live))
            else:
                receipts[(event.time, payload.point)] = frozenset(
                    gid
                    for gid in live
                    if rects[gid].contains(payload.point)
                )

        for shards in (n, m):
            config = FleetConfig(shards=shards, sharding=strategy, **kw)
            smap = ShardMap(scenario.space, shards, strategy)
            plan = route_fleet_stream(config, scenario, smap)

            # live multiset at epoch boundaries is sharding-invariant
            assert [r.gid for r in plan.live_at_epoch[0]] == list(
                range(kw["n_subscriptions"])
            )

            # where each gid is registered, per the routed joins
            reg_shards = {
                r.gid: set(r.shards) for r in plan.live_at_epoch[0]
            }
            routed_pubs = {}
            for per_shard in plan.events:
                for shard, shard_events in enumerate(per_shard):
                    for event in shard_events:
                        payload = event.payload
                        if isinstance(payload, FleetJoin):
                            reg_shards.setdefault(
                                payload.gid, set()
                            ).add(shard)
                        elif isinstance(payload, Publish):
                            routed_pubs.setdefault(
                                (event.time, payload.point), []
                            ).append(shard)

            assert set(routed_pubs) == set(receipts)
            for key, shards_hit in routed_pubs.items():
                owner = smap.shard_of_point(key[1])
                # exactly-once routing, to the owner
                assert shards_hit == [owner]
                # receipt completeness: every matching subscriber is
                # registered at the owner shard
                for gid in receipts[key]:
                    assert owner in reg_shards[gid], (
                        f"gid {gid} missing at owner {owner} "
                        f"({shards} shards, {strategy})"
                    )


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
class TestFleetPersistence:
    def test_checkpoints_round_trip(self, tmp_path):
        from repro.persistence import (
            load_fleet_state,
            load_shard_checkpoint,
        )

        config = FleetConfig(
            shards=2, fleet_policy="forward", queue_rate=900.0,
            checkpoint_dir=str(tmp_path), **SMALL,
        )
        run_fleet(config)
        for shard in range(2):
            state = load_shard_checkpoint(
                tmp_path / f"shard-{shard}.npz"
            )
            assert state.shard == shard
            assert state.k >= 1
            assert state.policy == "forward"
            assert state.busy_until > 0.0
            assert state.handle_of_gid
            assert state.token_states
            for _, tokens, refill in state.token_states:
                assert len(tokens) == 2 and len(refill) == 2
        fleet = load_fleet_state(tmp_path / "fleet.npz")
        assert fleet.n_shards == 2
        assert sum(fleet.split) == SMALL["n_groups"]
        rebuilt = ShardMap(
            build_preliminary_scenario(
                n_nodes=100, n_subscriptions=120, seed=7
            ).space,
            fleet.n_shards,
            fleet.strategy,
            fleet.vnodes,
        )
        assert np.array_equal(
            fleet.cell_to_shard, rebuilt.cell_to_shard
        )

    def test_shard_state_resumes_a_service(self, tmp_path):
        """A loaded checkpoint restores clock, registry and bucket."""
        from repro.persistence import load_shard_checkpoint

        config = FleetConfig(
            shards=2, queue_rate=900.0,
            checkpoint_dir=str(tmp_path), **SMALL,
        )
        run_fleet(config)
        state = load_shard_checkpoint(tmp_path / "shard-0.npz")
        scenario = build_preliminary_scenario(
            n_nodes=100, n_subscriptions=120, seed=7
        )
        from repro.broker import BrokerConfig, ContentBroker
        from repro.online import (
            BrokerService,
            ClusterMaintainer,
            QueueConfig,
            ServiceConfig,
        )

        broker = ContentBroker(
            scenario.routing, scenario.space, scenario.cell_pmf,
            config=BrokerConfig(n_groups=state.k),
        )
        handles = {}
        for gid, rectangle in enumerate(
            scenario.subscriptions.rectangles()
        ):
            handles[gid] = broker.subscribe(0, rectangle)
        broker.rebuild()
        maintainer = ClusterMaintainer(broker)
        service = BrokerService(
            broker, maintainer,
            ServiceConfig(
                churn_queue=QueueConfig(rate=900.0),
                pub_queue=QueueConfig(rate=900.0),
            ),
            shard_id=state.shard,
        )
        state.apply(service)
        assert service.busy_until == state.busy_until
        assert service.handle_of_gid == state.handle_of_gid
        assert (
            service._queues["churn"].token_state()
            == tuple(
                s[1:] for s in state.token_states if s[0] == "churn"
            )[0]
        )
