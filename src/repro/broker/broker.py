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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..aggregation import AggregateSnapshot, OnlineAggregator, expand_cell_set
from ..clustering import Clustering, ForgyKMeansClustering, KMeansClustering
from ..delivery import AdaptiveDeliveryPolicy, Dispatcher
from ..geometry import EventSpace, Rectangle
from ..grid import CellSet, build_cell_set, cell_set_from_membership
from ..matching import DeliveryPlan, GridMatcher
from ..network import RoutingTables, unicast_cost
from ..obs import get_flight_recorder, get_registry, get_tracer
from ..workload import Subscription, SubscriptionSet
from .rebuild import RebuildScheduler
from .stats import DeliveryStats

__all__ = ["BrokerConfig", "DeliveryReceipt", "ContentBroker"]


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
    #: maintain a persistent dense (n_cells × n_subscriptions) membership
    #: matrix across churn so rebuilds skip the per-subscription
    #: rasterisation pass; costs ``n_cells`` bytes per live subscription
    delta_cells: bool = True
    #: collapse identical subscription rectangles into weighted
    #: aggregates before every refit (maintained incrementally under
    #: churn by :class:`repro.aggregation.OnlineAggregator`); delivery
    #: behaviour is byte-identical, fits run on far fewer columns
    aggregate: bool = False

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


@dataclass(frozen=True)
class DeliveryReceipt:
    """What happened to one published event."""

    n_interested: int
    used_multicast: bool
    cost: float
    unicast_cost: float
    ideal_cost: float
    wasted_deliveries: int
    #: delivery mode actually executed ("plan" for the fixed policy,
    #: "fault" for the degraded path, else the adaptive choice)
    mode: str = "plan"
    #: fault-aware classification: delivered / degraded / lost
    outcome: str = "delivered"
    #: interested subscribers whose node was down or partitioned away
    lost_deliveries: int = 0


class ContentBroker:
    """Matching + clustering + delivery behind one `publish` call."""

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
        #: internal ids matched by the most recent publish() — lets
        #: callers account per-subscriber outcomes without re-matching
        self.last_interested: List[int] = []
        self._policy: Optional[AdaptiveDeliveryPolicy] = None
        self._scheduler = RebuildScheduler(
            debounce=self.config.rebuild_debounce,
            backoff_base=self.config.rebuild_backoff_base,
            backoff_factor=self.config.rebuild_backoff_factor,
            backoff_max=self.config.rebuild_backoff_max,
            drift_threshold=self.config.drift_threshold,
        )
        # persistent cell-membership cache (delta_cells): column `slot`
        # of the buffer is the rasterised footprint of one live handle
        self._slot_of: Dict[int, int] = {}
        self._cells_of: Dict[int, np.ndarray] = {}
        self._free_slots: List[int] = []
        self._n_slots = 0
        self._cell_buf: Optional[np.ndarray] = None
        self._aggregator = (
            OnlineAggregator() if self.config.aggregate else None
        )

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------
    def subscribe(self, node: int, rectangle: Rectangle) -> int:
        """Register a subscription; returns its handle."""
        if rectangle.dimensions != self.space.n_dims:
            raise ValueError("subscription dimensionality mismatch")
        if not 0 <= node < self.routing.graph.n_nodes:
            raise ValueError(f"node {node} not in the network")
        handle = self._next_id
        self._next_id += 1
        self._active[handle] = (node, rectangle)
        self._pending_changes += 1
        if self.config.delta_cells:
            self._track_cells(handle, rectangle)
        if self._aggregator is not None:
            self._aggregator.add(handle, rectangle)
        return handle

    def covered_cells(self, handle: int) -> Optional[np.ndarray]:
        """Cached flat grid cells a live subscription covers.

        Populated by the delta-cells tracking of :meth:`subscribe`;
        ``None`` when the handle is unknown or tracking is disabled.
        Consumers (the cluster maintainer's join/leave scoring) treat
        the array as read-only — it is the same object the delta
        rebuild path gathers.
        """
        return self._cells_of.get(handle)

    def unsubscribe(self, handle: int) -> None:
        """Remove a subscription by its handle."""
        try:
            del self._active[handle]
        except KeyError:
            raise KeyError(f"unknown subscription handle {handle}") from None
        self._pending_changes += 1
        self._untrack_cells(handle)
        if self._aggregator is not None:
            self._aggregator.remove(handle)

    # ------------------------------------------------------------------
    # persistent cell-membership cache (the delta rebuild path)
    # ------------------------------------------------------------------
    def _track_cells(self, handle: int, rectangle: Rectangle) -> None:
        """Rasterise one subscription into its own buffer column."""
        covered = self.space.cells_in_rectangle(rectangle)
        slot = self._free_slots.pop() if self._free_slots else self._n_slots
        if slot == self._n_slots:
            self._n_slots += 1
        buf = self._cell_buf
        if buf is None or buf.shape[1] < self._n_slots:
            capacity = max(64, 2 * self._n_slots)
            grown = np.zeros((self.space.n_cells, capacity), dtype=bool)
            if buf is not None:
                grown[:, : buf.shape[1]] = buf
            self._cell_buf = buf = grown
        buf[covered, slot] = True
        self._slot_of[handle] = slot
        self._cells_of[handle] = covered

    def _untrack_cells(self, handle: int) -> None:
        slot = self._slot_of.pop(handle, None)
        if slot is None:
            return
        self._cell_buf[self._cells_of.pop(handle), slot] = False
        self._free_slots.append(slot)

    def _build_cells(self, subs: SubscriptionSet) -> CellSet:
        """Hyper-cells for a rebuild: the delta path gathers the cached
        columns of the live handles (the grid and space are unchanged,
        only membership moved), skipping the rasterisation pass of
        :func:`build_cell_set`; the cold path rebuilds from scratch."""
        if self.config.delta_cells and self._cell_buf is not None:
            slots = [self._slot_of[h] for h in self._external_of]
            membership = self._cell_buf.take(slots, axis=1)
            with get_tracer().span(
                "broker.delta_cells", n_subscriptions=len(slots)
            ):
                return cell_set_from_membership(
                    self.space, membership, self.cell_pmf,
                    max_cells=self.config.max_cells,
                )
        return build_cell_set(
            self.space, subs, self.cell_pmf,
            max_cells=self.config.max_cells,
        )

    def _build_aggregate_cells(self, snap: AggregateSnapshot) -> CellSet:
        """Weighted aggregate hyper-cells for a rebuild.

        One column per distinct rectangle, weighted by its multiplicity.
        The delta path gathers the representative handles' cached buffer
        columns (every member of an aggregate rasterises to the same
        column, so the representative's is exact); the cold path
        rasterises the representatives' rectangles directly.
        """
        if self.config.delta_cells and self._cell_buf is not None:
            rep_slots = [self._slot_of[h] for h in snap.reps]
            membership = self._cell_buf.take(rep_slots, axis=1)
        else:
            membership = np.zeros(
                (self.space.n_cells, snap.n_aggregates), dtype=bool
            )
            for a, handle in enumerate(snap.reps):
                _, rectangle = self._active[handle]
                covered = self.space.cells_in_rectangle(rectangle)
                membership[covered, a] = True
        # nothing collapsed: drop the all-ones weights so the fit keeps
        # the packed-bitset kernels
        weights = snap.multiplicity
        if snap.n_aggregates == snap.n_subscriptions:
            weights = None
        with get_tracer().span(
            "broker.aggregate_cells", n_aggregates=snap.n_aggregates
        ):
            return cell_set_from_membership(
                self.space, membership, self.cell_pmf,
                max_cells=self.config.max_cells,
                weights=weights,
            )

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

    @property
    def live_subscriptions(self) -> Optional[SubscriptionSet]:
        """The live subscription set backing the matcher/dispatcher."""
        return self._subscriptions

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
        # the group's pre-join member column backs dispatcher memo
        # entries that become unreachable (and, after a renumbering,
        # wrong) the moment the column mutates: drop them surgically
        if self._dispatcher is not None:
            self._dispatcher.invalidate_members(
                self._clustering.subscribers_of_group(group)
            )
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
            if self._dispatcher is not None:
                for group in self._clustering.groups_of_subscriber(internal):
                    self._dispatcher.invalidate_members(
                        self._clustering.subscribers_of_group(int(group))
                    )
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
        """
        if not self._active:
            self._subscriptions = None
            self._matcher = None
            self._dispatcher = None
            self._clustering = None
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
            if self._aggregator is not None:
                snap = self._aggregator.snapshot(self._external_of)
                agg_cells = self._build_aggregate_cells(snap)
                algorithm = self._make_algorithm(
                    None if full else old_clustering, agg_cells
                )
                fitted = algorithm.fit(agg_cells, self.config.n_groups)
                # expand the aggregate-level fit back to subscriber
                # columns: the hypercell structure (probs, cell ids,
                # assignment) is shared, so the installed grouping is
                # byte-identical to the unaggregated rebuild
                with get_tracer().span(
                    "broker.expand", n_aggregates=snap.n_aggregates
                ):
                    self._clustering = Clustering(
                        expand_cell_set(agg_cells, snap.agg_of),
                        fitted.assignment,
                    )
                flight = get_flight_recorder()
                if flight.active:
                    flight.stage(
                        "expand",
                        aggregates=snap.n_aggregates,
                        subscriptions=snap.n_subscriptions,
                    )
                registry = get_registry()
                registry.gauge(
                    "aggregation_aggregates",
                    "distinct subscription rectangles after aggregation",
                ).set(float(snap.n_aggregates), path="online")
                registry.gauge(
                    "aggregation_ratio",
                    "live subscriptions per aggregate",
                ).set(snap.aggregation_ratio, path="online")
            else:
                cells = self._build_cells(subs)
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
    def publish(
        self,
        point: Sequence[float],
        publisher: int,
        now: Optional[float] = None,
    ) -> DeliveryReceipt:
        """Match, deliver and price one event.

        ``now`` is the virtual-clock timestamp under fault injection; it
        drives the debounced rebuild policy.  When the network currently
        has failed nodes or links, delivery degrades gracefully: groups
        whose multicast tree traverses a failed element fall back to
        per-subscriber unicast, and subscribers on down or partitioned
        nodes are counted lost — never silently dropped.
        """
        if now is not None:
            self.tick(now)
        if not self._active:
            self.last_interested = []
            receipt = DeliveryReceipt(0, False, 0.0, 0.0, 0.0, 0)
            self.stats.record(0.0, 0.0, 0.0, False, 0, 0)
            return receipt
        self._ensure_fresh()
        if self.routing.failed_nodes or self.routing.down_links:
            return self._publish_degraded(point, publisher)
        plan = self._matcher.match(point)
        plan.validate_complete()
        self.last_interested = list(plan.interested)
        flight = get_flight_recorder()
        recording = flight.active
        if recording:
            # healthy path runs per publication: use the recorder's
            # raw-append protocol (see FlightRecorder.buf)
            eid = flight.current_event
            t_now = flight.now
            buf = flight.buf
            buf.append((
                eid, "match", t_now,
                {
                    "interested": len(plan.interested),
                    "groups": len(plan.group_members),
                    "unicast_legs": len(plan.unicast_subscribers),
                },
            ))
        unicast = self._dispatcher.unicast_reference(publisher, plan.interested)
        ideal = self._dispatcher.ideal_reference(publisher, plan.interested)
        if self._policy is not None:
            decision = self._policy.decide(publisher, plan)
            cost = decision.cost
            mode = decision.mode
            used_multicast = mode == "multicast"
            if mode == "broadcast":
                wasted = self._subscriptions.n_active_subscribers - len(
                    plan.interested
                )
            elif mode == "unicast":
                wasted = 0
            else:
                wasted = plan.wasted_deliveries()
        else:
            cost = self._dispatcher.plan_cost(publisher, plan)
            mode = "plan"
            used_multicast = plan.uses_multicast
            wasted = plan.wasted_deliveries()
        if recording:
            buf.append((
                eid, "dispatch", t_now,
                {
                    "mode": mode, "cost": float(cost),
                    "multicast": bool(used_multicast),
                },
            ))
            # healthy path: every group's tree is intact, so one
            # aggregate delivery record suffices
            buf.append((
                eid, "deliver", t_now,
                {
                    "outcome": "delivered",
                    "groups": len(plan.group_members),
                    "wasted": int(wasted),
                },
            ))
            if len(plan.unicast_subscribers):
                buf.append((
                    eid, "unicast", t_now,
                    {
                        "legs": len(plan.unicast_subscribers),
                        "fallback": False,
                    },
                ))
        receipt = DeliveryReceipt(
            n_interested=len(plan.interested),
            used_multicast=used_multicast,
            cost=cost,
            unicast_cost=unicast,
            ideal_cost=ideal,
            wasted_deliveries=wasted,
            mode=mode,
        )
        self.stats.record(
            cost, unicast, ideal, used_multicast, len(plan.interested),
            wasted,
        )
        return receipt

    def _publish_degraded(
        self, point: Sequence[float], publisher: int
    ) -> DeliveryReceipt:
        """Deliver one event over a network with active faults.

        Contract: every interested subscriber either receives the event
        (through its group's tree, a unicast fallback leg, or a plain
        unicast leg) or lands in ``lost_deliveries``.  Groups whose node
        set touches a failed or partitioned element lost their multicast
        tree and are served by unicast to their reachable members until
        the next rebuild re-clusters around the damage.
        """
        plan = self._matcher.match(point)
        plan.validate_complete()
        self.last_interested = list(plan.interested)
        flight = get_flight_recorder()
        if flight.active:
            flight.stage(
                "match",
                interested=len(plan.interested),
                groups=len(plan.group_members),
                unicast_legs=len(plan.unicast_subscribers),
            )
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
            self.stats.record(
                0.0, 0.0, 0.0, False, n_interested, 0,
                outcome="lost", lost_deliveries=n_interested,
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
            self.stats.record(
                0.0, 0.0, 0.0, False, n_interested, 0,
                outcome="lost", lost_deliveries=n_lost,
            )
            return receipt

        reach_nodes = np.unique(int_nodes[int_ok])
        unicast = self._dispatcher.unicast_reference(
            publisher, reachable_int, nodes=reach_nodes
        )
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
            group_nodes = self._dispatcher.group_nodes(members)
            live = ok_node[group_nodes]
            if live.all():
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
        used_multicast = len(plan.group_members) > degraded_groups
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
        )
        self.stats.record(
            total, unicast, ideal, used_multicast, n_interested, wasted,
            outcome=outcome, lost_deliveries=n_lost,
            degraded_groups=degraded_groups, fallback_cost=fallback_cost,
        )
        return receipt

    def interested_handles(self, point: Sequence[float]) -> List[int]:
        """Subscription handles interested in an event (for inspection)."""
        self._ensure_fresh()
        if self._subscriptions is None:
            return []
        internal = self._subscriptions.interested_subscribers(point)
        return [self._external_of[i] for i in internal]
