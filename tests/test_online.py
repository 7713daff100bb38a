"""Tests for the online streaming runtime: incremental maintenance,
bounded queues, the backpressured service and the soak driver."""

import math

import numpy as np
import pytest

from repro.broker import BrokerConfig, ContentBroker, RebuildScheduler
from repro.delivery import Dispatcher
from repro.geometry import Rectangle
from repro.network import RoutingTables
from repro.online import (
    BoundedQueue,
    BrokerService,
    ClusterMaintainer,
    FleetJoin,
    FleetLeave,
    Publish,
    QueueConfig,
    ServiceConfig,
    SoakConfig,
    StreamEvent,
    run_soak,
)
from repro.workload import MixturePublicationModel, single_mode_mixture

from tests.helpers import match_one, publish_one


# ----------------------------------------------------------------------
# scheduler: drift trigger + hardened validation (config validation)
# ----------------------------------------------------------------------
class TestSchedulerDrift:
    def test_drift_threshold_makes_rebuild_due(self):
        scheduler = RebuildScheduler(drift_threshold=1.2)
        assert not scheduler.due(0.0)
        scheduler.note_drift(1.0, 1.1)
        assert not scheduler.due(1.0)
        scheduler.note_drift(2.0, 1.3)
        assert scheduler.due(2.0)
        scheduler.fired(2.0)
        assert scheduler.pending_drift == 0.0
        assert not scheduler.due(2.0)

    def test_drift_does_not_restart_debounce(self):
        scheduler = RebuildScheduler(debounce=5.0, drift_threshold=2.0)
        scheduler.note_change(0.0)
        scheduler.note_drift(4.0, 1.0)  # measurement, not churn
        assert scheduler.due(5.0)

    def test_drift_retains_worst_ratio(self):
        scheduler = RebuildScheduler(drift_threshold=1.5)
        scheduler.note_drift(0.0, 1.8)
        scheduler.note_drift(1.0, 1.1)
        assert scheduler.pending_drift == 1.8

    def test_drift_gated_by_backoff(self):
        scheduler = RebuildScheduler(
            backoff_base=4.0, drift_threshold=1.1
        )
        scheduler.note_change(0.0)
        scheduler.fired(0.0)
        scheduler.note_drift(1.0, 5.0)
        assert not scheduler.due(1.0)  # backoff gate holds
        assert scheduler.due(4.0)

    def test_negative_inflation_rejected(self):
        with pytest.raises(ValueError, match="inflation"):
            RebuildScheduler().note_drift(0.0, -0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"debounce": float("nan")},
            {"debounce": float("inf")},
            {"backoff_base": float("nan")},
            {"backoff_factor": float("nan")},
            {"backoff_max": float("inf")},
            {"drift_threshold": 0.5},
            {"drift_threshold": float("nan")},
            {"drift_threshold": float("inf")},
        ],
    )
    def test_non_finite_and_bad_params_rejected(self, kwargs):
        # a NaN debounce would silently never fire (NaN comparisons are
        # all False) — the constructor must refuse it loudly
        with pytest.raises(ValueError):
            RebuildScheduler(**kwargs)

    def test_broker_config_passes_drift_threshold_through(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            BrokerConfig(drift_threshold=0.9)


# ----------------------------------------------------------------------
# bounded queues
# ----------------------------------------------------------------------
class TestQueueConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0},
            {"policy": "drop-newest"},
            {"rate": 0.0},
            {"rate": float("inf")},
            {"burst": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QueueConfig(**kwargs)


class TestBoundedQueue:
    def test_fifo_admission_and_pop(self):
        queue = BoundedQueue("t1", QueueConfig(capacity=4))
        for i in range(3):
            admitted, _ = queue.offer(f"e{i}", float(i))
            assert admitted
        assert len(queue) == 3
        assert queue.peek_admit_time() == 0.0
        assert queue.pop()[3] == "e0"
        assert queue.pop()[3] == "e1"

    def test_shed_oldest_evicts_head(self):
        queue = BoundedQueue(
            "t2", QueueConfig(capacity=2, policy="shed-oldest")
        )
        queue.offer("old", 0.0)
        queue.offer("mid", 1.0)
        admitted, _ = queue.offer("new", 2.0)
        assert admitted
        assert len(queue) == 2
        items = {queue.pop()[3], queue.pop()[3]}
        assert items == {"mid", "new"}

    def test_shed_lowest_priority_evicts_lowest(self):
        queue = BoundedQueue(
            "t3", QueueConfig(capacity=2, policy="shed-lowest-priority")
        )
        queue.offer("low", 0.0, priority=0)
        queue.offer("high", 1.0, priority=2)
        admitted, _ = queue.offer("mid", 2.0, priority=1)
        assert admitted
        items = {queue.pop()[3], queue.pop()[3]}
        assert items == {"high", "mid"}

    def test_shed_lowest_priority_refuses_lowest_arrival(self):
        queue = BoundedQueue(
            "t4", QueueConfig(capacity=2, policy="shed-lowest-priority")
        )
        queue.offer("a", 0.0, priority=1)
        queue.offer("b", 1.0, priority=1)
        admitted, _ = queue.offer("worse", 2.0, priority=0)
        assert not admitted
        assert len(queue) == 2

    def test_shed_lowest_priority_tie_evicts_oldest_fifo(self):
        # among equal lowest-priority entries — including the arrival —
        # the OLDEST goes: the tying arrival gets in, the head is shed
        queue = BoundedQueue(
            "t4b", QueueConfig(capacity=2, policy="shed-lowest-priority")
        )
        queue.record_evictions = True
        queue.offer("a", 0.0, priority=1)
        queue.offer("b", 1.0, priority=1)
        admitted, _ = queue.offer("c", 2.0, priority=1)
        assert admitted
        assert queue.evicted == 1
        assert queue.take_evictions() == [(2.0, "a", "priority_tie")]
        items = {queue.pop()[3], queue.pop()[3]}
        assert items == {"b", "c"}

    def test_shed_lowest_priority_tie_break_is_insertion_stable(self):
        # equal (priority, admit time): seq — assigned at admission —
        # must pick the first-inserted entry
        queue = BoundedQueue(
            "t4c", QueueConfig(capacity=3, policy="shed-lowest-priority")
        )
        queue.record_evictions = True
        queue.offer("first", 5.0, priority=0)
        queue.offer("second", 5.0, priority=0)
        queue.offer("third", 5.0, priority=0)
        admitted, _ = queue.offer("fourth", 5.0, priority=0)
        assert admitted
        assert queue.take_evictions() == [(5.0, "first", "priority_tie")]

    def test_block_capacity_refuses_without_shedding(self):
        queue = BoundedQueue("t5", QueueConfig(capacity=1, policy="block"))
        queue.offer("a", 0.0)
        admitted, effective = queue.offer("b", 1.0)
        assert not admitted
        assert effective == 1.0  # capacity block: service resolves it

    def test_rate_limit_sheds_or_delays(self):
        shed_q = BoundedQueue(
            "t6", QueueConfig(capacity=8, policy="shed-oldest",
                              rate=1.0, burst=1)
        )
        assert shed_q.offer("a", 0.0)[0]
        assert not shed_q.offer("b", 0.1)[0]  # bucket empty, shed
        assert shed_q.offer("c", 1.5)[0]  # refilled

        block_q = BoundedQueue(
            "t7", QueueConfig(capacity=8, policy="block", rate=1.0, burst=1)
        )
        assert block_q.offer("a", 0.0)[0]
        admitted, retry = block_q.offer("b", 0.5)
        assert not admitted
        assert retry == pytest.approx(1.0)  # wait for the next token
        assert block_q.offer("b", retry)[0]

    def test_depth_peak_tracks_high_water(self):
        queue = BoundedQueue("t8", QueueConfig(capacity=8))
        for i in range(5):
            queue.offer(i, float(i))
        queue.pop()
        assert queue.depth_peak == 5

    @pytest.mark.parametrize("rate", [1.0 / 3.0, 0.1, 0.7, 3.3])
    def test_token_refill_invariant_to_clock_resolution(self, rate):
        # the exact accumulator makes refill a function of *total*
        # elapsed virtual time: interleaving thousands of fine-grained
        # refill observations between offers must not change a single
        # admission decision (the float accumulator drifted here)
        rng = np.random.default_rng(11)
        times = np.cumsum(rng.exponential(1.0 / rate, size=400))
        coarse = BoundedQueue(
            "inv-c", QueueConfig(capacity=4096, policy="shed-oldest",
                                 rate=rate, burst=2)
        )
        fine = BoundedQueue(
            "inv-f", QueueConfig(capacity=4096, policy="shed-oldest",
                                 rate=rate, burst=2)
        )
        previous = 0.0
        decisions_coarse, decisions_fine = [], []
        for t in times:
            t = float(t)
            # fine queue sees the clock at 7 intermediate resolutions
            for step in np.linspace(previous, t, 9)[1:-1]:
                fine._refill(float(step))
            decisions_coarse.append(coarse.offer("e", t)[0])
            decisions_fine.append(fine.offer("e", t)[0])
            previous = t
        assert decisions_coarse == decisions_fine
        assert coarse._tokens == fine._tokens  # exact, not approximate

    def test_token_accumulator_exact_over_many_steps(self):
        # 10k sub-steps of an inexact binary rate telescope to exactly
        # one big refill
        stepped = BoundedQueue(
            "ex-s", QueueConfig(capacity=4, rate=0.1, burst=4)
        )
        direct = BoundedQueue(
            "ex-d", QueueConfig(capacity=4, rate=0.1, burst=4)
        )
        # drain both buckets first so refills accumulate below the cap
        for i in range(4):
            stepped.offer(i, 0.0)
            direct.offer(i, 0.0)
        for k in range(1, 10001):
            stepped._refill(k * 0.001)
        direct._refill(10000 * 0.001)
        stepped._refill(10.0)
        direct._refill(10.0)
        assert stepped._tokens == direct._tokens

    def test_blocked_retry_time_lands_on_a_token(self):
        # the retry time returned for a blocked producer must be late
        # enough that re-offering there always finds the token
        queue = BoundedQueue(
            "retry", QueueConfig(capacity=8, policy="block",
                                 rate=1.0 / 3.0, burst=1)
        )
        assert queue.offer("a", 0.0)[0]
        admitted, retry = queue.offer("b", 0.5)
        assert not admitted and retry > 0.5
        assert queue.offer("b", retry)[0]

    def test_token_state_round_trip(self):
        source = BoundedQueue(
            "ckpt-a", QueueConfig(capacity=8, rate=0.7, burst=3)
        )
        source.offer("a", 0.0)
        source.offer("b", 1.3)
        clone = BoundedQueue(
            "ckpt-b", QueueConfig(capacity=8, rate=0.7, burst=3)
        )
        clone.restore_token_state(*source.token_state())
        assert clone._tokens == source._tokens
        assert clone._last_refill == source._last_refill


# ----------------------------------------------------------------------
# incremental maintainer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def online_env(small_topology):
    publications = MixturePublicationModel(
        small_topology, single_mode_mixture()
    )
    return {
        "routing": RoutingTables(small_topology.graph),
        "space": publications.space,
        "pmf": publications.cell_pmf(),
        "topology": small_topology,
    }


def make_online_broker(env, rng, n_subs=24, **config_kwargs):
    defaults = dict(
        n_groups=6, max_cells=200, rebalance_after=10**9,
        drift_threshold=1.05,
    )
    defaults.update(config_kwargs)
    broker = ContentBroker(
        env["routing"], env["space"], env["pmf"],
        config=BrokerConfig(**defaults),
    )
    n_nodes = env["topology"].graph.n_nodes
    for _ in range(n_subs):
        broker.subscribe(
            int(rng.integers(0, n_nodes)), _rect(env["space"], rng)
        )
    broker.rebuild()
    return broker


def _rect(space, rng):
    los, his = [], []
    for dim in space.dimensions:
        lo = rng.uniform(dim.lo - 1, dim.hi - 1)
        los.append(lo)
        his.append(lo + rng.uniform(1, (dim.hi - dim.lo) / 2 + 1))
    return Rectangle.from_bounds(los, his)


class TestClusterMaintainer:
    def test_join_waste_delta_is_exact(self, online_env, rng):
        broker = make_online_broker(online_env, rng)
        maintainer = ClusterMaintainer(broker)
        rect = _rect(online_env["space"], rng)
        handle = maintainer.join(1, rect, now=0.0)
        internal = broker.internal_id(handle)
        groups = broker.clustering.groups_of_subscriber(internal)
        if len(groups) == 0:
            assert maintainer.current_waste == maintainer.fit_waste
            return
        (group,) = groups
        covered = broker.space.cells_in_rectangle(rect)
        cell_group = maintainer._cell_group
        overlap = float(
            np.sum(broker.cell_pmf[covered][cell_group[covered] == group])
        )
        expected = maintainer._group_mass[group] - overlap
        assert maintainer.current_waste == pytest.approx(
            maintainer.fit_waste + expected
        )

    def test_leave_reverses_join(self, online_env, rng):
        broker = make_online_broker(online_env, rng)
        maintainer = ClusterMaintainer(broker)
        handle = maintainer.join(2, _rect(online_env["space"], rng), now=0.0)
        maintainer.leave(handle, now=1.0)
        assert maintainer.current_waste == pytest.approx(
            maintainer.fit_waste
        )
        assert maintainer.joins == 1
        assert maintainer.leaves == 1

    def test_non_overlapping_join_stays_unicast(self, online_env, rng):
        broker = make_online_broker(online_env, rng)
        maintainer = ClusterMaintainer(broker)
        space = online_env["space"]
        # a sliver outside the grid overlaps no clustered cell
        lo = [dim.hi + 5 for dim in space.dimensions]
        hi = [dim.hi + 6 for dim in space.dimensions]
        handle = maintainer.join(0, Rectangle.from_bounds(lo, hi), now=0.0)
        internal = broker.internal_id(handle)
        assert len(broker.clustering.groups_of_subscriber(internal)) == 0
        assert maintainer.unassigned_joins == 1
        assert maintainer.current_waste == maintainer.fit_waste

    def test_churn_repricing_matches_fresh_dispatcher(self, online_env, rng):
        # a join/leave mutates group member columns in place: the
        # repriced plans must match a freshly built dispatcher
        broker = make_online_broker(online_env, rng)
        space = online_env["space"]
        # publish at a subscriber rectangle's centre so the plan is
        # guaranteed to route through at least one multicast group
        point, plan = None, None
        for h in broker.handles():
            _, rect = broker.subscription(h)
            candidate = [
                (max(side.lo, dim.lo) + min(side.hi, dim.hi)) / 2
                for side, dim in zip(rect.sides, space.dimensions)
            ]
            candidate_plan = match_one(broker._matcher, candidate)
            if len(candidate_plan.group_ids):
                point, plan = list(candidate), candidate_plan
                break
        assert plan is not None, "no point matched a multicast group"
        publish_one(broker, point, 0)  # price the group before the churn
        group = int(plan.group_ids[0])
        handle = broker.subscribe(1, _rect(space, rng))
        broker.attach(handle)
        broker.apply_join(handle, group)
        broker.apply_leave(handle)
        # repricing after churn matches a dispatcher built from scratch
        receipt = publish_one(broker, point, 0)
        fresh = Dispatcher(
            online_env["routing"], broker._subscriptions,
            broker.config.scheme,
        )
        plan = match_one(broker._matcher, point)
        assert receipt.cost == pytest.approx(fresh.plan_cost(0, plan))

    def test_joined_subscriber_is_served_immediately(self, online_env, rng):
        broker = make_online_broker(online_env, rng)
        maintainer = ClusterMaintainer(broker)
        space = online_env["space"]
        lo = [dim.lo for dim in space.dimensions]
        hi = [dim.hi for dim in space.dimensions]
        # interest covering the whole space must receive every event
        handle = maintainer.join(
            0, Rectangle.from_bounds(lo, hi), now=0.0
        )
        internal = broker.internal_id(handle)
        point = [
            (dim.lo + dim.hi) / 2 for dim in space.dimensions
        ]
        plan = match_one(broker._matcher, point)
        plan.audit()
        assert internal in np.asarray(plan.interested)

    def test_drift_triggers_warm_rebuild(self, online_env, rng):
        broker = make_online_broker(
            online_env, rng, drift_threshold=1.0001
        )
        maintainer = ClusterMaintainer(broker)
        rebuilt = False
        for i in range(40):
            maintainer.join(
                int(rng.integers(0, 24)),
                _rect(online_env["space"], rng),
                now=float(i),
            )
            if maintainer.maybe_rebuild(float(i)):
                rebuilt = True
                break
        assert rebuilt
        assert maintainer.captures == 2  # initial capture + re-base
        assert maintainer.inflation == pytest.approx(1.0)

    def test_checkpoint_restore_round_trip(self, online_env, rng):
        broker = make_online_broker(online_env, rng)
        maintainer = ClusterMaintainer(broker)
        maintainer.join(0, _rect(online_env["space"], rng), now=0.0)
        arrays = maintainer.state_arrays()
        saved_inflation = maintainer.inflation
        # checkpoint flow: restore lands on a broker with a fresh fit
        broker.rebuild()
        other = ClusterMaintainer(broker)
        other.restore(
            arrays["cell_group"], arrays["group_mass"],
            maintainer.fit_waste, maintainer.current_waste,
            joins=maintainer.joins,
        )
        assert other.inflation == pytest.approx(saved_inflation)
        assert other.joins == 1


# ----------------------------------------------------------------------
# rebuilds under churn rasterise the live set from scratch
# ----------------------------------------------------------------------
class TestChurnedRebuild:
    def test_churned_rebuild_matches_fresh_broker(self, online_env):
        churned = make_online_broker(online_env, np.random.default_rng(3))
        local = np.random.default_rng(11)
        for _ in range(6):
            churned.subscribe(0, _rect(online_env["space"], local))
        churned.unsubscribe(churned.handles()[0])
        churned.unsubscribe(churned.handles()[7])
        churned.rebuild(full=True)

        fresh = ContentBroker(
            online_env["routing"], online_env["space"], online_env["pmf"],
            config=churned.config,
        )
        for handle in churned.handles():
            fresh.subscribe(*churned.subscription(handle))
        fresh.rebuild()

        a, b = churned.clustering, fresh.clustering
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.group_membership, b.group_membership)
        assert np.array_equal(a.cells.membership, b.cells.membership)
        assert a.cells.probs.tobytes() == b.cells.probs.tobytes()
        assert np.array_equal(
            a.cells.hypercell_of_cell, b.cells.hypercell_of_cell
        )
        assert len(a.cells.cell_ids) == len(b.cells.cell_ids)
        for ids_a, ids_b in zip(a.cells.cell_ids, b.cells.cell_ids):
            assert np.array_equal(ids_a, ids_b)


# ----------------------------------------------------------------------
# service + soak (tier-1 acceptance gates)
# ----------------------------------------------------------------------
SMALL_SOAK = SoakConfig(
    n_events=600,
    seed=7,
    n_nodes=100,
    n_subscriptions=120,
    n_groups=16,
    max_cells=300,
    churn_fraction=0.15,
)


@pytest.fixture(scope="module")
def small_soak_result():
    return run_soak(SMALL_SOAK)


class TestSoak:
    def test_deterministic_report_is_byte_identical(self, small_soak_result):
        again = run_soak(SMALL_SOAK)
        assert (
            small_soak_result.deterministic_report()
            == again.deterministic_report()
        )

    def test_waste_ratio_gate(self, small_soak_result):
        # acceptance: incremental maintenance + warm refits must end
        # within 1.1x of a cold batch refit on the same end state
        assert small_soak_result.waste_ratio is not None
        assert small_soak_result.waste_ratio <= 1.1

    def test_every_event_is_accounted(self, small_soak_result):
        svc = small_soak_result.service
        processed = sum(svc.n_processed.values())
        shed = sum(svc.n_shed.values())
        assert processed + shed == svc.n_events

    def test_bench_record_shape(self, small_soak_result, tmp_path):
        import json

        path = tmp_path / "BENCH_online.json"
        small_soak_result.write_bench(str(path))
        record = json.loads(path.read_text())
        for key in ("latency_virtual_seconds", "fits", "waste_ratio"):
            assert key in record
        for pct in ("p50", "p95", "p99"):
            assert record["latency_virtual_seconds"][pct] >= 0.0


class TestServiceBackpressure:
    def _run(self, policy, online_env, rng, **queue_kwargs):
        broker = make_online_broker(online_env, rng)
        maintainer = ClusterMaintainer(broker)
        queue = QueueConfig(policy=policy, **queue_kwargs)
        service = BrokerService(
            broker, maintainer,
            ServiceConfig(
                service_rate=10.0, churn_queue=queue, pub_queue=queue,
            ),
        )
        space = online_env["space"]
        point = tuple(
            int((dim.lo + dim.hi) / 2) for dim in space.dimensions
        )
        # 40 publications arriving effectively at once vs a slow consumer
        events = [
            StreamEvent(0.001 * i, "pub", Publish(point, 0))
            for i in range(40)
        ]
        return service.run(events)

    def test_shed_oldest_sheds_under_pressure(self, online_env, rng):
        result = self._run(
            "shed-oldest", online_env, rng, capacity=4
        )
        assert result.n_shed["pub"] > 0
        assert (
            result.n_processed["pub"] + result.n_shed["pub"] == 40
        )

    def test_block_processes_everything(self, online_env, rng):
        result = self._run("block", online_env, rng, capacity=4)
        assert result.n_shed["pub"] == 0
        assert result.n_processed["pub"] == 40
        # blocked arrivals waited: worst latency spans the backlog
        assert max(result.latencies["pub"]) > 1.0

    def test_churn_flows_through_service(self, online_env, rng):
        broker = make_online_broker(online_env, rng)
        maintainer = ClusterMaintainer(broker)
        service = BrokerService(broker, maintainer, ServiceConfig())
        for gid, handle in enumerate(broker.handles()):
            service.register_initial(gid, handle)
        events = [
            StreamEvent(
                0.1, "churn",
                FleetJoin(100, 0, _rect(online_env["space"], rng)),
            ),
            StreamEvent(0.2, "churn", FleetLeave(0)),
            # a leave whose join never reached this broker is a no-op
            StreamEvent(0.3, "churn", FleetLeave(999)),
        ]
        result = service.run(events)
        assert result.joins == 1
        assert result.leaves == 1
        assert result.n_processed["churn"] == 3
        assert len(result.inflation_trajectory) == 2
        assert 0 not in service.handle_of_gid
        assert 100 in service.handle_of_gid
