"""The backpressured broker service: one consumer, bounded queues.

:class:`BrokerService` replays interleaved, timestamped event streams —
subscription churn and publications — through one bounded
:class:`~repro.online.queues.BoundedQueue` per stream into a single
consumer that applies them to a
:class:`~repro.broker.ContentBroker` via the incremental
:class:`~repro.online.maintainer.ClusterMaintainer`.

Everything runs on a **virtual clock** (arrival timestamps are part of
the input; service capacity is a configured rate), so a seeded run is
deterministic to the byte: queueing latency, shed counts and rebuild
times depend only on the inputs.  The event loop is the textbook
single-server multi-queue simulation:

* arrivals are admitted through their stream's queue (token bucket,
  capacity policy) at their timestamps;
* the consumer serves admitted entries in admission order (ties broken
  by stream rank: churn before publications) at
  ``service_rate`` events per virtual second;
* per-event latency is ``completion - arrival``, recorded in
  :mod:`repro.obs` histograms and returned raw for percentiles.

Churn flows through the maintainer (incremental join/leave, exact drift
accounting); the drift trigger inside the broker's rebuild scheduler
turns sustained waste inflation into bounded warm refits.

The service consumes *routed* churn: every :class:`FleetJoin` and
:class:`FleetLeave` names its subscription by a fleet-wide id (gid).
The seeded stream's positional :class:`ChurnLeave` indices are resolved
to gids once, in arrival order, by
:func:`repro.fleet.soak.route_fleet_stream`; a single broker is the
one-shard fleet.

Cross-shard subscriptions follow one of two :data:`FLEET_POLICIES`:

* ``replicate`` — the subscription is a *full member* at every
  overlapped shard: it joins the waste-minimising multicast group
  locally, exactly as a home registration.
* ``forward`` — the subscription joins a group only at its *home* shard
  (the one owning most of its publication mass); other overlapped
  shards register it match-only (``member=False``: subscribe + attach,
  no group), where the matcher's unicast top-up serves it.  Deliveries
  to match-only registrations are counted as forwards.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..broker import ContentBroker
from ..geometry import Rectangle
from ..obs import fold_sum, get_flight_recorder, get_registry
from ..obs.slo import SloEngine
from .maintainer import ClusterMaintainer
from .queues import BoundedQueue, QueueConfig

__all__ = [
    "FLEET_POLICIES",
    "ChurnJoin",
    "ChurnLeave",
    "FleetJoin",
    "FleetLeave",
    "Publish",
    "StreamEvent",
    "ServiceConfig",
    "ServiceResult",
    "BrokerService",
]

#: consumer tie-break order between streams (lower serves first)
_STREAM_RANK = {"churn": 1, "pub": 2}
#: default admission priority per stream (higher survives
#: shed-lowest-priority longer)
_STREAM_PRIORITY = {"churn": 1, "pub": 0}

#: how a subscription overlapping several shards registers at each
FLEET_POLICIES = ("replicate", "forward")

#: most publications handed to the broker in one batch: a long run
#: between writes is split, so the batch's match arrays stay bounded
_RUN_CAP = 64


@dataclass(frozen=True)
class ChurnJoin:
    node: int
    rectangle: Rectangle


@dataclass(frozen=True)
class ChurnLeave:
    #: index into the live subscription list (mod its length), so a
    #: pregenerated stream never references a dead subscription
    index: int


@dataclass(frozen=True)
class FleetJoin:
    """A join routed to one shard, identified fleet-wide by ``gid``.

    ``member`` distinguishes a full (group-joining) registration from a
    ``forward``-policy match-only registration at a non-home shard.
    """

    gid: int
    node: int
    rectangle: Rectangle
    member: bool = True


@dataclass(frozen=True)
class FleetLeave:
    """A leave routed to every shard holding ``gid`` (-1 = fleet noop:
    the global live set was empty when the leave was resolved)."""

    gid: int


@dataclass(frozen=True)
class Publish:
    point: Tuple[float, ...]
    publisher: int


@dataclass(frozen=True)
class StreamEvent:
    """One timestamped arrival on a named stream."""

    time: float
    stream: str  # "churn" | "pub"
    payload: object

    def __post_init__(self) -> None:
        if self.stream not in _STREAM_RANK:
            raise ValueError(f"unknown stream {self.stream!r}")
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError("event time must be finite and non-negative")


@dataclass(frozen=True)
class ServiceConfig:
    """Capacity and admission parameters of the service."""

    #: events the consumer completes per virtual second
    service_rate: float = 1000.0
    churn_queue: QueueConfig = field(default_factory=QueueConfig)
    pub_queue: QueueConfig = field(default_factory=QueueConfig)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.service_rate) and self.service_rate > 0):
            raise ValueError("service_rate must be a positive finite rate")


@dataclass
class ServiceResult:
    """What one replay did, in virtual time only (fully deterministic)."""

    n_events: int = 0
    n_processed: Dict[str, int] = field(default_factory=dict)
    n_shed: Dict[str, int] = field(default_factory=dict)
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    queue_depth_peaks: Dict[str, int] = field(default_factory=dict)
    n_rebuilds: int = 0
    n_fits: int = 0
    joins: int = 0
    leaves: int = 0
    unassigned_joins: int = 0
    final_inflation: float = 1.0
    final_waste: float = 0.0
    fit_waste: float = 0.0
    #: (virtual time, inflation) samples after every churn completion
    inflation_trajectory: List[Tuple[float, float]] = field(
        default_factory=list
    )
    total_cost: float = 0.0
    horizon: float = 0.0
    #: rising-edge SLO breach records (empty without an engine)
    slo_breaches: List[Dict] = field(default_factory=list)
    #: one summary row per objective (empty without an engine)
    slo_summary: List[Dict] = field(default_factory=list)

    def all_latencies(self) -> List[float]:
        out: List[float] = []
        for values in self.latencies.values():
            out.extend(values)
        return out

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the virtual queueing+service latency."""
        values = self.all_latencies()
        if not values:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        arr = np.asarray(values, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


class BrokerService:
    """Single-consumer replay of one shard's bounded-queue streams."""

    def __init__(
        self,
        broker: ContentBroker,
        maintainer: ClusterMaintainer,
        config: Optional[ServiceConfig] = None,
        slo: Optional[SloEngine] = None,
        shard_id: int = 0,
    ) -> None:
        if maintainer.broker is not broker:
            raise ValueError("maintainer must wrap the same broker")
        self.broker = broker
        self.maintainer = maintainer
        self.config = config or ServiceConfig()
        self.slo = slo
        self.shard_id = int(shard_id)
        #: fleet-wide subscription id -> this shard's broker handle
        self.handle_of_gid: Dict[int, int] = {}
        #: match-only registrations admitted / retired on this shard
        self.forward_joins = 0
        self.forward_leaves = 0
        #: deliveries this shard served for match-only registrations
        #: (the cross-shard forwarding cost, in deliveries)
        self.forwards = 0
        if (
            slo is not None
            and slo.drift_sink is None
            and any(o.feed_drift for o in slo.objectives)
        ):
            # an SLO breach becomes an adaptation signal: report the
            # broker's own drift threshold so the next backoff-gated
            # tick declares a rebuild due (no-op when the broker runs
            # without a drift trigger)
            threshold = broker.config.drift_threshold
            if threshold is not None:
                slo.drift_sink = (
                    lambda breach: broker.note_drift(breach.time, threshold)
                )
        self._queues: Dict[str, BoundedQueue] = {
            "churn": BoundedQueue("churn", self.config.churn_queue),
            "pub": BoundedQueue("pub", self.config.pub_queue),
        }
        #: capacity-blocked producers per stream:
        #: (ready_time, arrival_time, seq, event)
        self._stalled: Dict[str, List[Tuple[float, float, int, StreamEvent]]]
        self._stalled = {name: [] for name in self._queues}
        self.busy_until = 0.0
        self._service_time = 1.0 / self.config.service_rate
        self._latency_hist = get_registry().histogram(
            "online_latency_seconds",
            "virtual queueing+service latency per event",
            buckets=(
                0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
                1.0, 5.0,
            ),
        )
        #: the histogram's child per stream, bound on the stream's first
        #: served event (no label lookup per event, no zero-count child)
        self._latency_children: Dict[str, object] = {}
        self._flight = get_flight_recorder()
        #: publications served but not yet handed to the broker (the
        #: current run; see :meth:`_serve`), each with the bookkeeping
        #: its deferred receipt needs: (publication, seq, completion,
        #: latency, stream, flight-buffer position)
        self._run: List[Tuple[Publish, int, float, float, str, int]] = []
        self._cap = _RUN_CAP

    # ------------------------------------------------------------------
    def register_initial(
        self, gid: int, handle: int, member: bool = True
    ) -> None:
        """Record one epoch-start registration (already subscribed)."""
        self.handle_of_gid[gid] = handle
        if not member:
            self.maintainer.forward_handles.add(handle)

    def run(self, events: Sequence[StreamEvent]) -> ServiceResult:
        """Replay ``events`` (any order; sorted internally) to the end."""
        result = ServiceResult(n_events=len(events))
        result.n_processed = {name: 0 for name in self._queues}
        result.n_shed = {name: 0 for name in self._queues}
        result.latencies = {name: [] for name in self._queues}
        self._result = result
        self._flight = get_flight_recorder()
        observing = self._flight.enabled or self.slo is not None
        for queue in self._queues.values():
            queue.record_evictions = observing
        # an inline drift feed on lost_rate reads each receipt as its
        # event completes and may make a rebuild due before the next
        # publication: such runs publish every publication on its own
        self._cap = (
            1
            if self.slo is not None
            and any(
                o.feed_drift and o.signal == "lost_rate"
                for o in self.slo.objectives
            )
            else _RUN_CAP
        )
        fits_before = self.maintainer.captures
        rebuilds_before = self.broker.stats.n_rebuilds
        evicted_before = {
            name: queue.evicted for name, queue in self._queues.items()
        }

        heap: List[Tuple[float, int, int, float, StreamEvent]] = []
        for seq, event in enumerate(
            sorted(events, key=lambda e: (e.time, _STREAM_RANK[e.stream]))
        ):
            # (offer_time, rank, seq, arrival_time, event): rate-blocked
            # arrivals re-enter with a later offer time but keep their
            # true arrival time for latency accounting
            heapq.heappush(
                heap,
                (event.time, _STREAM_RANK[event.stream], seq, event.time,
                 event),
            )

        while heap:
            offer_at, rank, seq, arrived, event = heapq.heappop(heap)
            self._drain(until=offer_at)
            queue = self._queues[event.stream]
            admitted, effective = self._offer(
                queue, arrived, seq, event, offer_at
            )
            if admitted:
                continue
            if queue.config.policy == "block" and effective > offer_at:
                # rate-limited: the producer waits for the next token
                heapq.heappush(
                    heap, (effective, rank, seq, arrived, event)
                )
            elif queue.config.policy == "block":
                # capacity-blocked: stalls until the consumer frees a slot
                heapq.heappush(
                    self._stalled[event.stream],
                    (offer_at, arrived, seq, event),
                )
            else:
                result.n_shed[event.stream] += 1
                self._note_shed(
                    seq, event, offer_at, queue.last_shed_reason
                )
        self._drain(until=math.inf)
        # producers still capacity-blocked at end of input: admit them in
        # waves (the drained queues are empty, so only the token bucket
        # can push back, and a retry at the token time always lands)
        while any(self._stalled.values()):
            for name, stalled in self._stalled.items():
                queue = self._queues[name]
                while stalled and len(queue) < queue.config.capacity:
                    ready, arrived, seq, event = heapq.heappop(stalled)
                    when = max(ready, self.busy_until)
                    admitted, effective = self._offer(
                        queue, arrived, seq, event, when
                    )
                    if not admitted:
                        admitted, _ = self._offer(
                            queue, arrived, seq, event,
                            max(effective, when),
                        )
                        assert admitted, "stalled arrival failed to admit"
            self._drain(until=math.inf)
        self._flush()

        # admitted-then-evicted entries are sheds too: every input event
        # must land in exactly one of processed / shed
        for name, queue in self._queues.items():
            result.n_shed[name] += queue.evicted - evicted_before[name]
        result.n_rebuilds = self.broker.stats.n_rebuilds - rebuilds_before
        result.n_fits = self.maintainer.captures - fits_before
        result.joins = self.maintainer.joins
        result.leaves = self.maintainer.leaves
        result.unassigned_joins = self.maintainer.unassigned_joins
        result.final_inflation = self.maintainer.inflation
        result.final_waste = self.maintainer.current_waste
        result.fit_waste = self.maintainer.fit_waste
        result.horizon = self.busy_until
        result.queue_depth_peaks = {
            name: queue.depth_peak for name, queue in self._queues.items()
        }
        # SLO breaches/summaries are NOT materialised here: that
        # triggers the engine's deferred replay of alert-only
        # objectives, which belongs off the timed event loop.  Callers
        # that time ``run`` (run_soak) invoke collect_slo afterwards —
        # the same treatment as flight-record materialisation.
        return result

    def collect_slo(self, result: ServiceResult) -> None:
        """Materialise the engine's breaches/summary onto ``result``."""
        if self.slo is not None:
            result.slo_breaches = self.slo.breach_dicts()
            result.slo_summary = self.slo.summary()

    # ------------------------------------------------------------------
    def _offer(
        self,
        queue: BoundedQueue,
        arrived: float,
        seq: int,
        event: StreamEvent,
        when: float,
    ):
        """Offer one arrival, with flight/SLO admission accounting."""
        admitted, effective = queue.offer(
            (arrived, seq, event), when,
            priority=_STREAM_PRIORITY[event.stream],
        )
        flight = self._flight
        slo = self.slo
        if flight.enabled or slo is not None:
            for t, victim, reason in queue.take_evictions():
                _, vseq, vevent = victim
                self._note_shed(vseq, vevent, t, reason, evicted=True)
            if admitted:
                if flight.enabled:
                    # raw-append protocol: see FlightRecorder.buf
                    flight.buf.append((
                        seq, "enqueue", effective,
                        "stream", event.stream, "depth", len(queue),
                    ))
                if slo is not None:
                    slo.observe(
                        "shed_rate", effective, 0.0, stream=event.stream
                    )
        return admitted, effective

    def _note_shed(
        self,
        seq: int,
        event: StreamEvent,
        t: float,
        reason: Optional[str],
        evicted: bool = False,
    ) -> None:
        if self._flight.enabled:
            self._flight.record(
                seq, "shed", t,
                stream=event.stream, reason=reason or "capacity",
                evicted=evicted,
            )
        if self.slo is not None:
            self.slo.observe("shed_rate", t, 1.0, stream=event.stream)

    # ------------------------------------------------------------------
    def _drain(self, until: float) -> None:
        """Serve admitted entries whose start time falls before ``until``."""
        while True:
            pick = self._next_entry()
            if pick is None:
                return
            name, queue = pick
            start = max(self.busy_until, queue.peek_admit_time())
            if start >= until:
                return
            _, _, _, (arrived, seq, event) = queue.pop()
            completion = start + self._service_time
            self.busy_until = completion
            flight = self._flight
            latency = completion - arrived
            if flight.enabled:
                # raw-append protocol: see FlightRecorder.buf
                flight.buf.append((
                    seq, "queue_wait", start,
                    "seconds", start - arrived, "stream", event.stream,
                ))
            self._serve(event, seq, completion, latency)
            if self.slo is not None:
                self.slo.observe(
                    "queue_wait", start, start - arrived,
                    stream=event.stream,
                )
                self.slo.observe(
                    "latency", completion, latency, stream=event.stream
                )
            self._result.latencies[event.stream].append(latency)
            self._result.n_processed[event.stream] += 1
            child = self._latency_children.get(event.stream)
            if child is None:
                child = self._latency_hist.labels(stream=event.stream)
                self._latency_children[event.stream] = child
            child.observe(latency)
            self._release_stalled(name, completion)

    def _next_entry(self) -> Optional[Tuple[str, BoundedQueue]]:
        """Queue holding the next entry to serve (admission order, ties
        broken by stream rank)."""
        best = None
        best_key = None
        for name, queue in self._queues.items():
            if not len(queue):
                continue
            key = (queue.peek_admit_time(), _STREAM_RANK[name])
            if best_key is None or key < best_key:
                best_key = key
                best = (name, queue)
        return best

    def _release_stalled(self, name: str, now: float) -> None:
        """Admit capacity-blocked producers after a slot freed at ``now``."""
        stalled = self._stalled[name]
        queue = self._queues[name]
        while stalled and len(queue) < queue.config.capacity:
            ready, arrived, seq, event = stalled[0]
            if ready > now:
                return
            heapq.heappop(stalled)
            admitted, effective = self._offer(
                queue, arrived, seq, event, now
            )
            if admitted:
                continue
            # the token bucket pushed back: retry at the token time on
            # the next slot release
            heapq.heappush(stalled, (max(effective, now), arrived, seq, event))
            return

    # ------------------------------------------------------------------
    def _serve(
        self, event: StreamEvent, seq: int, now: float, latency: float
    ) -> None:
        """Apply one event, deferring publications into the current run.

        The broker state is fixed between writes, so consecutive
        publications are handed to :meth:`ContentBroker.publish_batch`
        together.  The run is flushed before a join or leave, before a
        publication that finds a rebuild due, at the run cap and at the
        end of :meth:`run`.  Completion times never depend on a receipt,
        so deferring them moves no latency, shed or horizon; a deferred
        publication's flight stages and ``lost_rate`` observation are
        filed under its own event id and completion time at the flush.
        """
        payload = event.payload
        flight = self._flight
        if not isinstance(payload, Publish):
            self._flush()
            if not flight.enabled:
                self._process(payload, now)
                return
            with flight.event(seq, now):
                outcome = self._process(payload, now)
            flight.buf.append((
                seq, "outcome", now,
                "seconds", latency, "stream", event.stream,
                "outcome", outcome,
            ))
            return
        if self.broker.rebuild_due(now):
            self._flush()
            if flight.enabled:
                with flight.event(seq, now):
                    self.maintainer.maybe_rebuild(now)
            else:
                self.maintainer.maybe_rebuild(now)
        run = self._run
        run.append((payload, seq, now, latency, event.stream, len(flight.buf)))
        if len(run) >= self._cap:
            self._flush()

    def _flush(self) -> None:
        """Publish the current run of deferred publications.

        Costs and forwards fold in event order.  Under a flight
        recorder each event's broker stages and its outcome are spliced
        back where the per-event loop recorded them.
        """
        run = self._run
        if not run:
            return
        self._run = []
        broker = self.broker
        flight = self._flight
        points = [pending[0].point for pending in run]
        publishers = [pending[0].publisher for pending in run]
        if flight.enabled:
            buf = flight.buf
            mark = len(buf)
            receipts = broker.publish_batch(
                points, publishers,
                events=[(pending[1], pending[2]) for pending in run],
            )
            # the broker appended each event's stages contiguously, in
            # event order; lift them out and splice each back in place
            staged = {
                seq: list(records)
                for seq, records in groupby(buf[mark:], key=itemgetter(0))
            }
            del buf[mark:]
            chains = []
            for (_, seq, now, latency, stream, _), outcome in zip(
                run, receipts.outcomes()
            ):
                chain = staged.get(seq, [])
                chain.append((
                    seq, "outcome", now,
                    "seconds", latency, "stream", stream,
                    "outcome", outcome,
                ))
                chains.append(chain)
            flight.insert([pending[5] for pending in run], chains)
        else:
            receipts = broker.publish_batch(points, publishers)
        result = self._result
        result.total_cost = fold_sum(result.total_cost, receipts.cost)
        forward_handles = self.maintainer.forward_handles
        if forward_handles:
            # cross-shard cost accounting: the broker exposes the
            # interested sets it just matched, so no second match runs
            external_of = broker._external_of
            for interested in broker.last_interested:
                self.forwards += sum(
                    1
                    for internal in interested.tolist()
                    if external_of[internal] in forward_handles
                )
        slo = self.slo
        if slo is not None:
            for (_, _, now, _, stream, _), rate in zip(
                run, receipts.lost_rates()
            ):
                slo.observe("lost_rate", now, rate, stream=stream)

    def _process(self, payload: object, now: float) -> str:
        """Apply one join or leave now; returns its outcome."""
        maintainer = self.maintainer
        broker = self.broker
        if isinstance(payload, FleetJoin):
            if payload.member:
                # group-assigned through the maintainer, drift sampled,
                # rebuild gated
                handle = maintainer.join(payload.node, payload.rectangle, now)
                self._sample_inflation(now)
                maintainer.maybe_rebuild(now)
            else:
                # forward policy, non-home shard: match-only — the
                # unicast top-up serves it, no group membership, no
                # drift contribution
                handle = broker.subscribe(payload.node, payload.rectangle)
                maintainer.forward_handles.add(handle)
                if broker.clustering is None:
                    # no live runtime to splice into: one cold build,
                    # whose capture scrubs the handle from every group
                    broker.rebuild(full=True)
                    maintainer.capture()
                else:
                    broker.attach(handle)
                self.forward_joins += 1
            self.handle_of_gid[payload.gid] = handle
            return "joined"
        if isinstance(payload, FleetLeave):
            handle = self.handle_of_gid.pop(payload.gid, None)
            if handle is None:
                return "noop"
            if handle in maintainer.forward_handles:
                maintainer.forward_handles.discard(handle)
                broker.apply_leave(handle)
                broker.unsubscribe(handle)
                self.forward_leaves += 1
            else:
                maintainer.leave(handle, now)
                self._sample_inflation(now)
                maintainer.maybe_rebuild(now)
            return "left"
        raise TypeError(f"unknown payload {type(payload).__name__}")

    def _sample_inflation(self, now: float) -> None:
        inflation = self.maintainer.inflation
        self._result.inflation_trajectory.append((now, inflation))
        if self.slo is not None:
            self.slo.observe("waste_inflation", now, inflation)
