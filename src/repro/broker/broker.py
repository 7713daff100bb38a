"""A content-based pub-sub broker built from the paper's components.

:class:`ContentBroker` is the system-facing facade: subscribers join and
leave at network nodes with rectangle interests, multicast groups are
maintained by a clustering algorithm (re-clustered lazily, warm-started
from the previous grouping as the paper suggests for subscription
dynamics), and each published event is matched, delivered and priced.

This is the "first intelligent node" deployment model of the paper's
discussion (item 6): one broker performs the matching and decides the
routing; the network below it only forwards.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clustering import ForgyKMeansClustering, KMeansClustering
from ..delivery import MODES, AdaptiveDeliveryPolicy, Dispatcher
from ..geometry import EventSpace, Rectangle
from ..grid import CellSet, build_cell_set
from ..matching import DeliveryPlan, GridMatcher, PlanRun
from ..network import RoutingTables, unicast_cost
from ..obs import get_flight_recorder, get_tracer
from ..workload import Subscription, SubscriptionSet
from .rebuild import RebuildScheduler
from .stats import DeliveryReceipt, DeliveryStats, ReceiptRun

__all__ = ["BrokerConfig", "DeliveryReceipt", "ContentBroker", "ReceiptRun"]

#: the interested set of an event published to an empty broker
_NO_INTEREST = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class BrokerConfig:
    """Tuning knobs of the broker.

    ``rebalance_after`` controls laziness: the multicast groups are
    rebuilt once that many subscription changes have accumulated (and on
    the first publish after any change when set to 1).  ``warm_start``
    re-balances from the previous grouping instead of re-clustering from
    scratch.  ``algorithm`` is ``"forgy"`` or ``"kmeans"`` — the
    iterative algorithms the paper recommends for dynamics.
    """

    n_groups: int = 40
    max_cells: Optional[int] = 2000
    algorithm: str = "forgy"
    threshold: float = 0.0
    scheme: str = "dense"
    rebalance_after: int = 25
    warm_start: bool = True
    max_warm_iters: int = 10
    #: per-event unicast/multicast/broadcast selection (the abstract's
    #: "determine dynamically whether to unicast, multicast or
    #: broadcast"); the penalty discounts against flooding
    adaptive: bool = False
    broadcast_penalty: float = 1.0
    #: churn-driven rebuild policy (virtual-clock driven via
    #: :meth:`ContentBroker.notify_change` / :meth:`ContentBroker.tick`):
    #: quiet period required after the last change, and exponential
    #: backoff between consecutive rebuilds
    rebuild_debounce: float = 0.0
    rebuild_backoff_base: float = 0.0
    rebuild_backoff_factor: float = 2.0
    rebuild_backoff_max: float = 60.0
    #: accumulated change weight (as a fraction of the subscriber
    #: population) beyond which the rebuild re-clusters cold instead of
    #: warm-starting from the stale grouping
    full_rebuild_fraction: float = 0.3
    #: waste-inflation ratio (reported via :meth:`ContentBroker.note_drift`
    #: by the online maintainer) that makes a rebuild due regardless of
    #: the debounce; ``None`` disables the drift trigger
    drift_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ("forgy", "kmeans"):
            raise ValueError("broker supports the iterative algorithms only")
        if self.n_groups < 1:
            raise ValueError("need at least one group")
        if self.rebalance_after < 1:
            raise ValueError("rebalance_after must be positive")
        if self.broadcast_penalty < 1.0:
            raise ValueError("broadcast_penalty must be at least 1")
        if not 0.0 <= self.full_rebuild_fraction <= 1.0:
            raise ValueError("full_rebuild_fraction must be in [0, 1]")
        if self.drift_threshold is not None and not (
            math.isfinite(self.drift_threshold)
            and self.drift_threshold >= 1.0
        ):
            raise ValueError("drift_threshold must be finite and >= 1")


class ContentBroker:
    """Matching + clustering + delivery behind one `publish_batch` call."""

    def __init__(
        self,
        routing: RoutingTables,
        space: EventSpace,
        cell_pmf: np.ndarray,
        config: Optional[BrokerConfig] = None,
    ) -> None:
        self.routing = routing
        self.space = space
        self.cell_pmf = np.asarray(cell_pmf, dtype=np.float64)
        if self.cell_pmf.shape != (space.n_cells,):
            raise ValueError("cell_pmf must cover every grid cell")
        self.config = config or BrokerConfig()
        self.stats = DeliveryStats()

        self._next_id = 0
        self._active: Dict[int, Tuple[int, Rectangle]] = {}
        self._pending_changes = 0
        self._subscriptions: Optional[SubscriptionSet] = None
        self._matcher: Optional[GridMatcher] = None
        self._dispatcher: Optional[Dispatcher] = None
        self._clustering = None
        self._internal_of: Dict[int, int] = {}
        self._external_of: List[int] = []
        #: per event of the most recent publish_batch(), the internal
        #: ids it matched — lets callers account per-subscriber outcomes
        #: without re-matching
        self.last_interested: List[np.ndarray] = []
        self._policy: Optional[AdaptiveDeliveryPolicy] = None
        self._scheduler = RebuildScheduler(
            debounce=self.config.rebuild_debounce,
            backoff_base=self.config.rebuild_backoff_base,
            backoff_factor=self.config.rebuild_backoff_factor,
            backoff_max=self.config.rebuild_backoff_max,
            drift_threshold=self.config.drift_threshold,
        )
        #: flat grid cells (int32) each live handle covers (the
        #: maintainer's join/leave scoring reads them through
        #: covered_cells)
        self._cells_of: Dict[int, np.ndarray] = {}
        #: hyper-cells of the last rebuild; they depend only on the
        #: space, the live set, cell_pmf and max_cells, so a rebuild
        #: with no subscribe/unsubscribe since reuses them
        self._cells: Optional[CellSet] = None

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self,
        node: int,
        rectangle: Rectangle,
        cells: Optional[np.ndarray] = None,
    ) -> int:
        """Register a subscription; returns its handle.

        ``cells`` is the rectangle's footprint
        (``space.cells_in_rectangle(rectangle)``) when the caller already
        has it; the broker keeps the array, read-only, instead of
        rasterising the rectangle again.  Footprints are kept as int32
        flat cells.
        """
        if rectangle.dimensions != self.space.n_dims:
            raise ValueError("subscription dimensionality mismatch")
        if not 0 <= node < self.routing.graph.n_nodes:
            raise ValueError(f"node {node} not in the network")
        handle = self._next_id
        self._next_id += 1
        self._active[handle] = (node, rectangle)
        self._pending_changes += 1
        if cells is None:
            cells = self.space.cells_in_rectangle(rectangle)
        self._cells_of[handle] = np.asarray(cells, dtype=np.int32)
        return handle

    def covered_cells(self, handle: int) -> Optional[np.ndarray]:
        """Cached flat grid cells a live subscription covers.

        Rasterised once by :meth:`subscribe`; ``None`` when the handle
        is unknown.  Consumers (the cluster maintainer's join/leave
        scoring) treat the array as read-only.
        """
        return self._cells_of.get(handle)

    def unsubscribe(self, handle: int) -> None:
        """Remove a subscription by its handle."""
        try:
            del self._active[handle]
        except KeyError:
            raise KeyError(f"unknown subscription handle {handle}") from None
        self._pending_changes += 1
        del self._cells_of[handle]

    @property
    def n_subscriptions(self) -> int:
        return len(self._active)

    @property
    def n_groups(self) -> int:
        """Multicast groups currently maintained (0 before first build)."""
        return self._clustering.n_groups if self._clustering is not None else 0

    @property
    def clustering(self):
        """The live grouping (None before the first build)."""
        return self._clustering

    def internal_id(self, handle: int) -> int:
        """Internal subscriber id of an attached handle."""
        return self._internal_of[handle]

    def subscription(self, handle: int) -> Tuple[int, Rectangle]:
        """(node, rectangle) of a registered handle."""
        return self._active[handle]

    def handles(self) -> List[int]:
        """Sorted handles of all registered subscriptions."""
        return sorted(self._active)

    # ------------------------------------------------------------------
    # incremental maintenance (the online runtime's entry points)
    # ------------------------------------------------------------------
    def attach(self, handle: int) -> int:
        """Splice a freshly subscribed handle into the live runtime.

        Returns the internal subscriber id.  The subscription starts
        receiving events immediately (the matcher's unicast top-up
        guarantees completeness) but belongs to no multicast group until
        :meth:`apply_join` places it — exactly the join protocol of a
        multicast substrate.  No refit happens.
        """
        if self._subscriptions is None:
            raise RuntimeError("no live runtime; rebuild() first")
        existing = self._internal_of.get(handle)
        if existing is not None:
            return existing
        node, rectangle = self._active[handle]
        internal = self._subscriptions.add(node, rectangle)
        self._internal_of[handle] = internal
        self._external_of.append(handle)
        if self._clustering is not None:
            self._clustering.ensure_subscribers(internal + 1)
        return internal

    def apply_join(self, handle: int, group: int) -> None:
        """Add an attached handle to one multicast group in place."""
        if self._clustering is None:
            raise RuntimeError("no live grouping; rebuild() first")
        self._clustering.add_member(group, self._internal_of[handle])

    def apply_leave(self, handle: int) -> int:
        """Detach a handle from the live runtime (groups + interest).

        Returns the internal subscriber id that was retired.  Call
        :meth:`unsubscribe` separately to drop the registration itself.
        """
        if self._subscriptions is None:
            raise RuntimeError("no live runtime; rebuild() first")
        internal = self._internal_of[handle]
        if self._clustering is not None:
            self._clustering.remove_member(internal)
        self._subscriptions.deactivate(internal)
        return internal

    # ------------------------------------------------------------------
    # clustering lifecycle
    # ------------------------------------------------------------------
    def notify_change(self, now: float, weight: int = 1) -> None:
        """Record fault/churn activity on the virtual clock.

        ``weight`` scales by how many subscribers the change touches (a
        node failure is as disruptive as that node's population); it
        feeds both the debounce and the full-vs-incremental decision.
        """
        self._scheduler.note_change(now, weight)

    def note_drift(self, now: float, inflation: float) -> None:
        """Report the live waste-inflation ratio (online maintainer)."""
        self._scheduler.note_drift(now, inflation)

    def rebuild_due(self, now: float) -> bool:
        """True when :meth:`tick` at ``now`` would rebuild (no side
        effects)."""
        return self._scheduler.due(now)

    def tick(self, now: float) -> bool:
        """Rebuild if the debounced, backed-off policy says it is due.

        Returns True when a rebuild actually ran.  A change burst heavier
        than ``full_rebuild_fraction`` of the population triggers a cold
        re-cluster; lighter churn warm-starts from the stale grouping.
        """
        if not self._scheduler.due(now):
            return False
        population = max(1, len(self._active))
        full = (
            self._scheduler.pending_weight / population
            >= self.config.full_rebuild_fraction
        )
        self._scheduler.fired(now)
        self.rebuild(full=full)
        return True

    def subscribers_at(self, node: int) -> int:
        """Active subscriptions registered at a network node."""
        return sum(1 for n, _ in self._active.values() if n == node)

    def rebuild(self, full: bool = False) -> None:
        """Recompute the grouping state from the active subscriptions.

        ``full`` forces a cold re-cluster, discarding the warm-start
        grouping even when the configuration would normally inherit it.
        With no :meth:`subscribe` / :meth:`unsubscribe` since the last
        rebuild, the live set is unchanged and its hyper-cells are
        reused: only the grouping is refit.
        """
        if not self._active:
            self._subscriptions = None
            self._matcher = None
            self._dispatcher = None
            self._clustering = None
            self._cells = None
            self._pending_changes = 0
            return

        start = time.perf_counter()
        with get_tracer().span(
            "broker.rebuild", n_subscriptions=len(self._active)
        ) as span:
            old_clustering = self._clustering
            old_groups = self._group_node_sets() if old_clustering else None
            self._external_of = sorted(self._active)
            self._internal_of = {
                ext: idx for idx, ext in enumerate(self._external_of)
            }
            subscriptions = []
            for ext in self._external_of:
                node, rectangle = self._active[ext]
                subscriptions.append(
                    Subscription(self._internal_of[ext], node, rectangle)
                )
            subs = SubscriptionSet(self.space, subscriptions)
            cells = self._cells
            if cells is None or self._pending_changes:
                cells = self._cells = build_cell_set(
                    self.space, subs, self.cell_pmf,
                    max_cells=self.config.max_cells,
                )
            algorithm = self._make_algorithm(
                None if full else old_clustering, cells
            )
            self._clustering = algorithm.fit(cells, self.config.n_groups)
            self._subscriptions = subs
            self._matcher = GridMatcher(
                self._clustering, subs, threshold=self.config.threshold
            )
            self._dispatcher = Dispatcher(
                self.routing, subs, scheme=self.config.scheme
            )
            if self.config.adaptive:
                previous_counts = (
                    self._policy.mode_counts if self._policy else None
                )
                self._policy = AdaptiveDeliveryPolicy(
                    self._dispatcher,
                    broadcast_penalty=self.config.broadcast_penalty,
                )
                if previous_counts:
                    self._policy.mode_counts = previous_counts
            self._pending_changes = 0
            churn = 0
            if old_groups is not None:
                churn = self._membership_churn(
                    old_groups, self._group_node_sets()
                )
            span.set("membership_changes", churn)
            span.set("n_groups", self._clustering.n_groups)
            span.set("full", full)
        self.stats.record_rebuild(
            time.perf_counter() - start, churn, full=full
        )

    def _group_node_sets(self):
        """Current groups as frozensets of *node* ids (node-level group
        membership is what a multicast substrate actually installs)."""
        if self._clustering is None or self._subscriptions is None:
            return []
        groups = []
        for g in range(self._clustering.n_groups):
            members = self._clustering.subscribers_of_group(g)
            nodes = self._subscriptions.nodes_of_subscribers(members)
            groups.append(frozenset(int(n) for n in nodes))
        return groups

    @staticmethod
    def _membership_churn(old_groups, new_groups) -> int:
        """Minimum join/leave operations to turn the old group layout
        into the new one, greedily pairing most-similar groups."""
        remaining = list(old_groups)
        churn = 0
        for new in sorted(new_groups, key=len, reverse=True):
            if remaining:
                best = min(
                    range(len(remaining)),
                    key=lambda i: len(new ^ remaining[i]),
                )
                churn += len(new ^ remaining[best])
                remaining.pop(best)
            else:
                churn += len(new)
        for leftover in remaining:
            churn += len(leftover)
        return churn

    def _make_algorithm(self, old_clustering, cells: CellSet):
        cls = (
            ForgyKMeansClustering
            if self.config.algorithm == "forgy"
            else KMeansClustering
        )
        if not (self.config.warm_start and old_clustering is not None):
            return cls()
        initial = self._inherit_assignment(old_clustering, cells)
        return cls(
            max_iters=self.config.max_warm_iters, initial_assignment=initial
        )

    def _inherit_assignment(self, old_clustering, cells: CellSet) -> np.ndarray:
        """Carry the previous grouping onto the new hyper-cell set.

        Each new hyper-cell takes the majority group of the grid cells it
        covers; territory the old clustering never saw joins group 0 and
        is repaired by the warm iterations.
        """
        n_old = old_clustering.n_groups
        covered = np.flatnonzero(cells.hypercell_of_cell >= 0)
        votes = old_clustering.groups_of_grid_cells(covered)
        voted = votes >= 0
        hyper = cells.hypercell_of_cell[covered[voted]].astype(np.int64)
        tally = np.bincount(
            hyper * n_old + votes[voted],
            minlength=len(cells) * n_old,
        ).reshape(len(cells), n_old)
        # rows without votes stay 0; ties go to the lowest group
        assignment = tally.argmax(axis=1)
        limit = min(self.config.n_groups, len(cells))
        assignment = np.minimum(assignment, limit - 1)
        return assignment

    def _ensure_fresh(self) -> None:
        if self._matcher is None or (
            self._pending_changes >= self.config.rebalance_after
        ):
            self.rebuild()

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish_batch(
        self,
        points: Sequence[Sequence[float]],
        publishers: Sequence[int],
        events: Optional[Sequence[Tuple[int, float]]] = None,
    ) -> ReceiptRun:
        """Match, deliver and price a run of events on a fixed state.

        The run must see no subscription change, rebuild or topology
        change between its events; then one ``match_batch`` answers all
        of them and each event is priced exactly as alone.  The
        receipts come back as columns and :attr:`stats` folds them in
        event order, so every running float sum is the one a per-event
        loop would produce.  ``last_interested`` holds each event's
        interested internal ids.

        When the network currently has failed nodes or links, delivery
        degrades gracefully: groups whose multicast tree traverses a
        failed element fall back to per-subscriber unicast, and
        subscribers on down or partitioned nodes are counted lost —
        never silently dropped.  Flight stages land on the recorder's
        current event, or, when ``events`` gives an ``(event id,
        virtual time)`` per event, on each event's own id: the recorder
        appends them in event order.
        """
        if len(points) != len(publishers):
            raise ValueError("points / publishers length mismatch")
        if not self._active:
            self.last_interested = [_NO_INTEREST] * len(points)
            receipts = ReceiptRun.idle(len(points))
            self.stats.record_run(receipts)
            return receipts
        flight = get_flight_recorder()
        scoped = events is not None and flight.enabled
        # one scope for the run, retargeted event by event; a due lazy
        # rebuild belongs to the run's first event
        with flight.event(*events[0]) if scoped else nullcontext():
            self._ensure_fresh()
            run = self._matcher.match_batch(points)
            self.last_interested = run.interested
            if self.routing.failed_nodes or self.routing.down_links:
                receipts = []
                for index, publisher in enumerate(publishers):
                    if scoped:
                        flight.current_event, flight.now = events[index]
                    plan = run[index]
                    self._record_match(flight, plan)
                    receipts.append(
                        self._deliver_degraded(plan, int(publisher))
                    )
                receipts = ReceiptRun.of(receipts)
            else:
                receipts = self._deliver_run(
                    run, publishers, events if scoped else None
                )
        self.stats.record_run(receipts)
        return receipts

    @staticmethod
    def _record_match(flight, plan: DeliveryPlan) -> None:
        """The event's ``match`` flight stage."""
        if flight.active:
            # raw-append protocol: see FlightRecorder.buf
            flight.buf.append((
                flight.current_event, "match", flight.now,
                "interested", len(plan.interested),
                "groups", len(plan.group_members),
                "unicast_legs", len(plan.unicast_subscribers),
            ))

    def _deliver_run(
        self,
        run: PlanRun,
        publishers: Sequence[int],
        events: Optional[Sequence[Tuple[int, float]]],
    ) -> ReceiptRun:
        """Price a run of matched events over an intact network.

        One :meth:`Dispatcher.price_audited` prices every event's
        unicast and ideal references, plan cost and broadcast cost and
        audits every plan; the adaptive policy then decides the whole
        run, column by column.
        """
        with get_tracer().span("delivery.price_run", n_events=len(run)):
            priced, wasted = self._dispatcher.price_audited(
                publishers, interested=run.interested, plans=run,
            )
        unicast, ideal, plan_cost, broadcast = priced.T
        n_interested = run.n_interested()
        if self._policy is not None:
            decisions = self._policy.decide(
                run, unicast, plan_cost, broadcast
            )
            cost = decisions.cost
            mode = decisions.mode
            modes = MODES
            used_multicast = mode == 1
            # a broadcast reaches every live subscriber; unicast wastes
            # nothing
            n_active = self._subscriptions.n_active_subscribers
            wasted = np.where(
                mode == 2, n_active - n_interested,
                np.where(mode == 0, 0, wasted),
            )
        else:
            cost = plan_cost
            mode = np.zeros(len(run), dtype=np.int64)
            modes = ("plan",)
            used_multicast = run.groups >= 0
        receipts = ReceiptRun(
            n_interested, used_multicast, cost, unicast, ideal, wasted,
            mode, modes,
        )
        flight = get_flight_recorder()
        if flight.active:
            self._record_run(flight, run, receipts, events)
        return receipts

    @staticmethod
    def _record_run(flight, run, receipts, events) -> None:
        """Each event's ``match``, ``dispatch``, ``deliver`` and
        ``unicast`` flight stages, in event order."""
        buf = flight.buf
        columns = zip(
            run.groups.tolist(), receipts.n_interested.tolist(),
            run.n_unicast().tolist(), receipts.mode.tolist(),
            receipts.cost.tolist(), receipts.used_multicast.tolist(),
            receipts.wasted.tolist(),
        )
        for index, (group, n_interested, legs, mode, cost, used,
                    wasted) in enumerate(columns):
            if events is not None:
                flight.current_event, flight.now = events[index]
            # raw-append protocol: see FlightRecorder.buf
            eid = flight.current_event
            t_now = flight.now
            groups = int(group >= 0)
            buf.append((
                eid, "match", t_now,
                "interested", n_interested,
                "groups", groups,
                "unicast_legs", legs,
            ))
            buf.append((
                eid, "dispatch", t_now,
                "mode", receipts.modes[mode], "cost", cost,
                "multicast", used,
            ))
            # healthy path: every group's tree is intact, so one
            # aggregate delivery record suffices
            buf.append((
                eid, "deliver", t_now,
                "outcome", "delivered",
                "groups", groups,
                "wasted", wasted,
            ))
            if legs:
                buf.append((
                    eid, "unicast", t_now,
                    "legs", legs,
                    "fallback", False,
                ))

    def _deliver_degraded(
        self, plan: DeliveryPlan, publisher: int
    ) -> DeliveryReceipt:
        """Deliver one event over a network with active faults.

        Contract: every interested subscriber either receives the event
        (through its group's tree, a unicast fallback leg, or a plain
        unicast leg) or lands in ``lost_deliveries``.  Groups whose node
        set touches a failed or partitioned element lost their multicast
        tree and are served by unicast to their reachable members until
        the next rebuild re-clusters around the damage.
        """
        plan.audit()
        flight = get_flight_recorder()
        failed = self.routing.failed_nodes
        all_nodes = self._subscriptions.subscriber_nodes
        interested = np.asarray(plan.interested, dtype=np.int64)
        n_interested = len(interested)

        if publisher in failed:
            # nothing leaves a down publisher: the whole audience is lost
            if flight.active:
                flight.stage(
                    "deliver", outcome="lost", cause="publisher_down",
                    lost=n_interested,
                )
            receipt = DeliveryReceipt(
                n_interested, False, 0.0, 0.0, 0.0, 0,
                mode="fault", outcome="lost", lost_deliveries=n_interested,
            )
            return receipt

        dist, _ = self.routing.shortest_paths(publisher).arrays()
        ok_node = np.isfinite(dist)
        if failed:
            ok_node[list(failed)] = False

        int_nodes = all_nodes[interested]
        int_ok = ok_node[int_nodes]
        reachable_int = interested[int_ok]
        n_lost = n_interested - len(reachable_int)

        if n_interested and len(reachable_int) == 0:
            if flight.active:
                flight.stage(
                    "deliver", outcome="lost", cause="audience_unreachable",
                    lost=n_lost,
                )
            receipt = DeliveryReceipt(
                n_interested, False, 0.0, 0.0, 0.0, 0,
                mode="fault", outcome="lost", lost_deliveries=n_lost,
            )
            return receipt

        reach_nodes = np.unique(int_nodes[int_ok])
        unicast = self._dispatcher.unicast_reference(
            publisher, reachable_int, nodes=reach_nodes
        )
        # a sparse-mode group reaches its members through the shared
        # core: with the core down or cut off, no shared tree exists, so
        # every group (and the ideal) falls back to per-member unicast
        core_down = (
            self._dispatcher.scheme == "sparse"
            and not ok_node[self._dispatcher.core]
        )
        if core_down:
            ideal = unicast
        else:
            ideal = self._dispatcher.ideal_reference(
                publisher, reachable_int, nodes=reach_nodes
            )

        total = 0.0
        fallback_cost = 0.0
        degraded_groups = 0
        covered_nodes: List[np.ndarray] = []
        covered_subs: List[np.ndarray] = []
        for group_index, members in enumerate(plan.group_members):
            members = np.asarray(members, dtype=np.int64)
            group_nodes = self._subscriptions.nodes_of_subscribers(members)
            live = ok_node[group_nodes]
            if live.all() and not core_down:
                leg = self._dispatcher.group_cost(publisher, group_nodes)
                total += leg
                covered_nodes.append(group_nodes)
                covered_subs.append(members)
                if flight.active:
                    flight.stage(
                        "deliver", group=group_index, outcome="live",
                        members=int(len(members)), cost=float(leg),
                    )
            else:
                # the group's tree traversed a failed element: per-member
                # unicast to whoever is still reachable
                degraded_groups += 1
                live_nodes = group_nodes[live]
                leg = unicast_cost(self.routing, publisher, live_nodes)
                total += leg
                fallback_cost += leg
                covered_nodes.append(live_nodes)
                covered_subs.append(members[ok_node[all_nodes[members]]])
                if flight.active:
                    flight.stage(
                        "deliver", group=group_index, outcome="fallback",
                        members=int(len(members)),
                        reachable_nodes=int(len(live_nodes)),
                        cost=float(leg),
                    )
        uni_subs = np.asarray(plan.unicast_subscribers, dtype=np.int64)
        if len(uni_subs):
            live_uni = uni_subs[ok_node[all_nodes[uni_subs]]]
            uni_nodes = np.unique(all_nodes[live_uni])
            if covered_nodes:
                already = np.unique(np.concatenate(covered_nodes))
                uni_nodes = np.setdiff1d(uni_nodes, already)
            leg = unicast_cost(self.routing, publisher, uni_nodes)
            total += leg
            covered_subs.append(live_uni)
            if flight.active:
                flight.stage(
                    "unicast", legs=int(len(live_uni)),
                    nodes=int(len(uni_nodes)), cost=float(leg),
                    fallback=True,
                )

        if covered_subs:
            delivered_to = np.unique(np.concatenate(covered_subs))
        else:
            delivered_to = np.empty(0, dtype=np.int64)
        wasted = int(len(np.setdiff1d(delivered_to, reachable_int)))
        outcome = (
            "degraded" if (degraded_groups or n_lost) else "delivered"
        )
        used_multicast = (
            plan.uses_multicast and len(plan.group_members) > degraded_groups
        )
        if flight.active:
            flight.stage(
                "dispatch", mode="fault", cost=float(total),
                outcome=outcome, lost=int(n_lost),
                degraded_groups=int(degraded_groups),
            )
        receipt = DeliveryReceipt(
            n_interested=n_interested,
            used_multicast=used_multicast,
            cost=total,
            unicast_cost=unicast,
            ideal_cost=ideal,
            wasted_deliveries=wasted,
            mode="fault",
            outcome=outcome,
            lost_deliveries=n_lost,
            degraded_groups=degraded_groups,
            fallback_cost=fallback_cost,
        )
        return receipt
