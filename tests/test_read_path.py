"""One read path: batched publication runs price exactly like single events.

:class:`~repro.online.BrokerService` hands each run of publications
between two writes to :meth:`~repro.broker.ContentBroker.publish_batch`.
The properties here replay random interleaved join/leave/publish streams
through that batched service and through a reference service that
publishes every publication on its own as it completes (the per-event
loop the batching replaced), and require bit-identical receipts,
delivery statistics, total cost and forwards.  A second property pins
:meth:`~repro.network.ShortestPaths.tree_cost` to the plain level walk.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.broker import BrokerConfig, ContentBroker
from repro.geometry import Rectangle
from repro.network import Graph, RoutingTables
from repro.online import (
    BrokerService,
    ClusterMaintainer,
    FleetJoin,
    FleetLeave,
    Publish,
    QueueConfig,
    ServiceConfig,
    StreamEvent,
)
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    set_flight_recorder,
    set_registry,
)
from repro.obs.slo import Objective, SloEngine
from repro.online.service import _RUN_CAP
from repro.workload import MixturePublicationModel, single_mode_mixture

from tests.helpers import publish_one


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ----------------------------------------------------------------------
# batched service == per-event publishing
# ----------------------------------------------------------------------
class PerEventService(BrokerService):
    """Reference: every publication is published alone when it completes,
    after the maintainer's rebuild check, inside its own flight scope and
    with its ``lost_rate`` observed at once, as the service did before
    publications were batched."""

    def _serve(self, event, seq, now, latency):
        flight = self._flight
        if not flight.enabled:
            self._apply(event, now)
            return
        with flight.event(seq, now):
            outcome = self._apply(event, now)
        flight.record(
            seq, "outcome", now,
            seconds=latency, stream=event.stream, outcome=outcome,
        )

    def _apply(self, event, now):
        payload = event.payload
        if not isinstance(payload, Publish):
            return self._process(payload, now)
        self.maintainer.maybe_rebuild(now)
        broker = self.broker
        receipt = publish_one(broker, payload.point, payload.publisher)
        self.receipts.append(receipt)
        self._result.total_cost += float(receipt.cost)
        (interested,) = broker.last_interested
        forward_handles = self.maintainer.forward_handles
        self.forwards += sum(
            1
            for internal in interested.tolist()
            if broker._external_of[internal] in forward_handles
        )
        if self.slo is not None:
            self.slo.observe(
                "lost_rate", now,
                receipt.lost_deliveries / max(1, receipt.n_interested),
                stream=event.stream,
            )
        return receipt.outcome


#: objectives on every signal with thresholds low enough to breach; the
#: ``feed_drift`` one (if any) turns its breaches into rebuild signals
def _objectives(inline):
    spec = [
        ("latency", "p95", 0.002), ("queue_wait", "max", 0.001),
        ("shed_rate", "mean", 0.01), ("waste_inflation", "max", 1.01),
        ("lost_rate", "mean", -1.0),
    ]
    return [
        Objective(
            name=f"{signal}-{stat}", signal=signal, stat=stat,
            threshold=threshold, window=0.02,
            feed_drift=signal == inline,
        )
        for signal, stat, threshold in spec
    ]


@pytest.fixture(scope="module")
def env(small_topology):
    publications = MixturePublicationModel(
        small_topology, single_mode_mixture()
    )
    return {
        "graph": small_topology.graph,
        "space": publications.space,
        "pmf": publications.cell_pmf(),
    }


def _rect(space, rng):
    los, his = [], []
    for dim in space.dimensions:
        lo = rng.uniform(dim.lo - 1, dim.hi - 1)
        los.append(lo)
        his.append(lo + rng.uniform(1, (dim.hi - dim.lo) / 2 + 1))
    return Rectangle.from_bounds(los, his)


def _point(space, rng):
    if rng.random() < 0.05:  # off the grid: matched by nobody
        return tuple(float(dim.hi + 5) for dim in space.dimensions)
    return tuple(
        float(rng.integers(dim.lo, dim.hi + 1)) for dim in space.dimensions
    )


def _stream(space, n_nodes, seed, n_events, pub_share, forward, n_initial):
    """A seeded interleaved stream of joins, leaves and publications."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / 800.0, size=n_events))
    live = list(range(n_initial))
    next_gid = n_initial
    events = []
    for t in times.tolist():
        roll = rng.random()
        if roll < pub_share:
            payload = Publish(
                _point(space, rng), int(rng.integers(0, n_nodes))
            )
            events.append(StreamEvent(t, "pub", payload))
            continue
        if roll < pub_share + (1 - pub_share) / 2 or not live:
            member = not (forward and rng.random() < 0.5)
            payload = FleetJoin(
                next_gid, int(rng.integers(0, n_nodes)),
                _rect(space, rng), member=member,
            )
            live.append(next_gid)
            next_gid += 1
        else:
            gid = live.pop(int(rng.integers(0, len(live))))
            payload = FleetLeave(gid)
        events.append(StreamEvent(t, "churn", payload))
    return events


#: registry instruments the publish path increments (run-level tallies
#: must leave the same snapshot as per-event increments)
_PUBLISH_METRICS = (
    "broker_events_total", "broker_publications_total",
    "broker_lost_deliveries_total", "delivery_mode_total",
    "delivery_mode_cost_gap",
)


def _replay(env, service_cls, params):
    registry = MetricsRegistry()
    previous_registry = set_registry(registry)
    try:
        service, result, stats = _replay_in(env, service_cls, params)
    finally:
        set_registry(previous_registry)
    service.metrics = [
        record for record in registry.snapshot()
        if record["name"] in _PUBLISH_METRICS
    ]
    return service, result, stats


def _replay_in(env, service_cls, params):
    rng = np.random.default_rng(params["seed"])
    routing = RoutingTables(env["graph"])
    broker = ContentBroker(
        routing, env["space"], env["pmf"],
        config=BrokerConfig(
            n_groups=5, max_cells=150, scheme=params["scheme"],
            adaptive=params["adaptive"], rebalance_after=10**9,
            drift_threshold=params["drift"],
            rebuild_backoff_base=params["backoff"],
        ),
    )
    n_nodes = env["graph"].n_nodes
    handles = [
        broker.subscribe(
            int(rng.integers(0, n_nodes)), _rect(env["space"], rng)
        )
        for _ in range(params["n_initial"])
    ]
    broker.rebuild()
    queue = QueueConfig(capacity=16, policy=params["policy"])
    observe = params.get("observe")
    slo = None
    if observe in ("slo", "both"):
        slo = SloEngine(_objectives(params.get("inline")))
    service = service_cls(
        broker, ClusterMaintainer(broker),
        ServiceConfig(
            service_rate=1000.0, churn_queue=queue, pub_queue=queue
        ),
        slo=slo,
    )
    for gid, handle in enumerate(handles):
        service.register_initial(gid, handle)
    service.receipts = []
    if service_cls is BrokerService:
        publish_batch = broker.publish_batch

        def recording(points, publishers, **kwargs):
            receipts = publish_batch(points, publishers, **kwargs)
            service.receipts.extend(receipts)
            return receipts

        broker.publish_batch = recording
    events = _stream(
        env["space"], n_nodes, params["seed"] + 1, params["n_events"],
        params["pub_share"], params["forward"], params["n_initial"],
    )
    recorder = FlightRecorder(enabled=observe in ("flight", "both"))
    previous = set_flight_recorder(recorder)
    try:
        result = service.run(events)
    finally:
        set_flight_recorder(previous)
    service.collect_slo(result)
    service.flight_records = recorder.as_dicts()
    stats = broker.stats.as_dict()
    del stats["total_rebuild_seconds"]  # wall clock
    return service, result, stats


@st.composite
def replay_params(draw):
    return {
        "seed": draw(st.integers(0, 2**16)),
        # about half the streams run longer than the batch cap
        "n_events": draw(
            st.one_of(
                st.integers(1, 60),
                st.integers(_RUN_CAP + 1, 2 * _RUN_CAP + 20),
            )
        ),
        "pub_share": draw(st.sampled_from([0.5, 0.85, 1.0])),
        "forward": draw(st.booleans()),
        "scheme": draw(st.sampled_from(["dense", "sparse", "alm"])),
        "adaptive": draw(st.booleans()),
        "drift": draw(st.sampled_from([None, 1.0, 1.05])),
        # with a backoff, drift piles up behind the gate and a later
        # publication is the one that finds the rebuild due
        "backoff": draw(st.sampled_from([0.0, 0.01, 0.05])),
        "policy": draw(st.sampled_from(["block", "shed-oldest"])),
        "n_initial": draw(st.integers(4, 24)),
        # observed runs batch too, unless an inline objective reads
        # lost_rate (then every publication is flushed on its own)
        "observe": draw(st.sampled_from([None, "flight", "slo", "both"])),
        "inline": draw(
            st.sampled_from([None, "waste_inflation", "latency", "lost_rate"])
        ),
    }


#: a stream where drift piles up behind the backoff gate and a
#: publication finds the rebuild due with earlier publications pending;
#: under the fixed policy their costs depend on the grouping
DUE_WITH_PENDING_RUN = dict(
    seed=2, n_events=120, pub_share=0.85, forward=False,
    scheme="dense", adaptive=False, drift=1.0, backoff=0.01,
    policy="block", n_initial=12,
)
#: the same stream observed by a flight recorder and an SLO engine whose
#: inline drift feed watches waste inflation (batched) or lost_rate
#: (every publication flushed on its own)
OBSERVED_DUE_RUNS = [
    dict(DUE_WITH_PENDING_RUN, observe="both", inline=inline)
    for inline in ("waste_inflation", "lost_rate")
]
#: every subscriber leaves and a drift rebuild empties the broker; the
#: next join lands in a broker with no fit and builds one cold
EMPTIED_BROKER = dict(
    seed=139, n_events=65, pub_share=0.5, forward=True,
    scheme="dense", adaptive=False, drift=1.0, backoff=0.01,
    policy="block", n_initial=7, observe=None, inline=None,
)


class TestBatchedServiceEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(params=replay_params())
    @example(params=DUE_WITH_PENDING_RUN)
    @example(params=OBSERVED_DUE_RUNS[0])
    @example(params=OBSERVED_DUE_RUNS[1])
    @example(params=EMPTIED_BROKER)
    def test_batched_runs_match_per_event_publishing(self, env, params):
        batched, got, got_stats = _replay(env, BrokerService, params)
        single, want, want_stats = _replay(env, PerEventService, params)
        assert batched.receipts == single.receipts
        assert [
            (_bits(r.cost), _bits(r.unicast_cost), _bits(r.ideal_cost))
            for r in batched.receipts
        ] == [
            (_bits(r.cost), _bits(r.unicast_cost), _bits(r.ideal_cost))
            for r in single.receipts
        ]
        assert got_stats == want_stats
        for key in ("total_cost", "total_unicast_cost", "total_ideal_cost"):
            assert _bits(got_stats[key]) == _bits(want_stats[key])
        assert _bits(got.total_cost) == _bits(want.total_cost)
        assert batched.forwards == single.forwards
        assert got.latencies == want.latencies
        assert got.n_processed == want.n_processed
        assert got.n_shed == want.n_shed
        assert got.n_rebuilds == want.n_rebuilds
        assert got.horizon == want.horizon
        assert batched.flight_records == single.flight_records
        assert batched.metrics == single.metrics
        if batched.receipts:
            assert "broker_events_total" in {
                record["name"] for record in batched.metrics
            }
        assert got.slo_breaches == want.slo_breaches
        assert got.slo_summary == want.slo_summary

    def test_publish_is_a_one_event_batch(self, env):
        params = dict(
            seed=3, n_events=0, pub_share=1.0, forward=False,
            scheme="dense", adaptive=True, drift=None,
            backoff=0.0, policy="block", n_initial=12,
        )
        one, _, _ = _replay(env, BrokerService, params)
        two, _, _ = _replay(env, BrokerService, params)
        rng = np.random.default_rng(5)
        n_nodes = env["graph"].n_nodes
        points = [_point(env["space"], rng) for _ in range(20)]
        publishers = [int(rng.integers(0, n_nodes)) for _ in range(20)]
        singles = [
            publish_one(one.broker, p, q) for p, q in zip(points, publishers)
        ]
        assert list(two.broker.publish_batch(points, publishers)) == singles
        assert one.broker.stats.as_dict()["total_cost"] == (
            two.broker.stats.as_dict()["total_cost"]
        )


# ----------------------------------------------------------------------
# tree_cost == the plain level walk
# ----------------------------------------------------------------------
def _level_walk(sp, targets):
    """The dense tree cost as a plain level walk: each level is the sorted
    set of not-yet-visited frontier nodes, summed with one ``np.sum``."""
    dist = np.asarray(sp.dist, dtype=np.float64)
    pred = np.asarray(sp.pred, dtype=np.int64)
    frontier = np.asarray(list(targets), dtype=np.int64)
    if frontier.size == 0:
        return 0.0
    bad = np.isinf(dist[frontier])
    if bad.any():
        raise ValueError(
            f"node {int(frontier[bad][0])} unreachable from {sp.source}"
        )
    visited = np.zeros(len(dist), dtype=bool)
    visited[sp.source] = True
    total = 0.0
    while frontier.size:
        level = np.unique(frontier)
        level = level[~visited[level]]
        if level.size == 0:
            break
        visited[level] = True
        parents = pred[level]
        total += float(np.sum(dist[level] - dist[parents]))
        frontier = parents[~visited[parents]]
    return total


@st.composite
def tree_inputs(draw):
    n = draw(st.integers(1, 40))
    graph = Graph(n)
    # a random forest of chains plus extra edges: some nodes stay
    # unreachable from the source
    weights = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
    for v in range(1, n):
        if draw(st.booleans()) or v < n // 2:
            u = draw(st.integers(0, v - 1))
            graph.add_edge(u, v, draw(weights))
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            graph.add_edge(u, v, draw(weights))
    source = draw(st.integers(0, n - 1))
    # duplicates and the source itself are both allowed
    targets = draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
    return graph, source, targets


class TestTreeCost:
    @settings(max_examples=300, deadline=None)
    @given(inputs=tree_inputs())
    def test_matches_level_walk_bit_for_bit(self, inputs):
        graph, source, targets = inputs
        sp = graph.shortest_paths(source)
        try:
            want = _level_walk(sp, targets)
        except ValueError as exc:
            for form in (targets, np.asarray(targets, dtype=np.int64)):
                with pytest.raises(ValueError) as raised:
                    sp.tree_cost(form)
                assert str(raised.value) == str(exc)
            return
        for form in (targets, np.asarray(targets, dtype=np.int64)):
            assert _bits(sp.tree_cost(form)) == _bits(want)
