"""Turning delivery plans into network communication costs.

Given a :class:`~repro.matching.DeliveryPlan` for an event published at
some node, the dispatcher computes the total edge cost of executing the
plan under either multicast framework:

* ``"dense"`` — network-supported dense-mode multicast: each used group is
  reached over the shortest-path tree rooted at the publisher, pruned to
  the group's nodes.
* ``"alm"`` — application-level multicast: each used group forms a
  minimum-spanning-tree overlay (in shortest-path metric) including the
  publisher, and every overlay hop is a unicast.
* ``"sparse"`` — sparse-mode (shared-tree) multicast: the publisher
  unicasts to a rendezvous-point core node, which forwards down the
  shared shortest-path tree to the group.  The paper evaluates dense
  mode; this alternative quantifies the shared-tree detour.

Unicast legs always travel the shortest path from the publisher.  A node
already covered by one of the plan's multicast groups does not need a
separate unicast copy — the local broker hands the message to co-located
subscribers — so unicast targets are de-duplicated against multicast
coverage.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels import get_backend
from ..matching import DeliveryPlan, PlanRun
from ..network import (
    RoutingTables,
    application_multicast_cost,
    broadcast_cost,
    dense_multicast_cost,
    ideal_multicast_cost,
    overlay_multicast_cost,
    select_core,
    sparse_multicast_cost,
    unicast_cost,
)
from ..obs import get_tracer
from ..workload import SubscriptionSet

__all__ = [
    "Dispatcher", "RouteTable", "SCHEMES", "BACKENDS", "resolve_backend",
]

SCHEMES = ("dense", "alm", "sparse", "overlay")

#: user-facing multicast backend names -> dispatcher scheme.  The CLI
#: speaks backend names ("application" reads better than "alm" on a
#: flag); the dispatcher speaks schemes.
BACKENDS = {
    "dense": "dense",
    "sparse": "sparse",
    "application": "alm",
    "alm": "alm",
    "overlay": "overlay",
}


def resolve_backend(name: str) -> str:
    """Map a ``--multicast-backend`` name to its dispatcher scheme.

    Raises a :class:`ValueError` that lists the valid backends, so CLI
    surfaces report a typo instead of dying on a bare ``KeyError``.
    """
    try:
        return BACKENDS[name]
    except KeyError:
        valid = ", ".join(sorted(BACKENDS))
        raise ValueError(
            f"unknown multicast backend {name!r}; valid backends: {valid}"
        ) from None


class RouteTable:
    """The shortest-path rows ``price_dense`` reads, staged once per
    routing version.

    Row ``r`` holds one publisher's ``(dist, pred, edge)`` tree arrays,
    as the routing tables cache them, with their addresses, and its
    full tree cost (the broadcast).  A publisher is staged the first
    time it is priced, so its Dijkstra runs then, as before; no row is
    copied.  A fail or heal bumps the topology version and the next
    call restages from the routing tables.  The addresses name this
    process's arrays, so a table is never pickled: a dispatcher finds
    its routing's table with :func:`route_table`.
    """

    def __init__(self, routing: RoutingTables) -> None:
        # a proxy: the table lives as long as its routing, not longer
        self.routing = weakref.proxy(routing)
        self.n = routing.graph.n_nodes
        self._version: Optional[int] = None
        self._clear()

    def _clear(self) -> None:
        self.row_of: Dict[int, int] = {}
        #: per row the (dist, pred, edge) arrays, kept referenced while
        #: their addresses are staged
        self.trees: List[tuple] = []
        self._grow(16)

    def _grow(self, capacity: int) -> None:
        n_rows = len(self.trees)
        old = (self.sources, self.addresses, self.broadcast) if n_rows else ()
        self.sources = np.zeros(capacity, dtype=np.int64)
        self.addresses = np.zeros((capacity, 3), dtype=np.int64)
        self.broadcast = np.zeros(capacity, dtype=np.float64)
        for new, before in zip(
            (self.sources, self.addresses, self.broadcast), old
        ):
            new[:n_rows] = before[:n_rows]

    @property
    def n_rows(self) -> int:
        return len(self.trees)

    def rows(self, publishers: Sequence[int]) -> List[int]:
        """The row of each publisher, staging the ones not yet seen."""
        version = self.routing.topology_version
        if version != self._version:
            self._clear()
            self._version = version
        row_of = self.row_of
        rows = [row_of.get(publisher) for publisher in publishers]
        if None in rows:
            for e, publisher in enumerate(publishers):
                if rows[e] is None:
                    rows[e] = self._stage(int(publisher))
        return rows

    def _stage(self, publisher: int) -> int:
        row = self.row_of.get(publisher)
        if row is not None:
            return row
        sp = self.routing.shortest_paths(publisher)
        tree = (*sp.arrays(), sp.edge_costs())
        if any(len(array) != self.n for array in tree):
            raise ValueError("a tree row needs one entry per node")
        row = self.row_of[publisher] = len(self.trees)
        if row == len(self.sources):
            self._grow(2 * row)
        self.trees.append(tree)
        self.sources[row] = publisher
        self.addresses[row] = [array.ctypes.data for array in tree]
        self.broadcast[row] = sp.tree_cost()
        return row


#: one route table per routing table, outside every dispatcher's
#: pickled state: a copy sent to another process, or unpickled in this
#: one, has routing tables of its own and so stages its own rows, while
#: a forked child keeps its parent's, whose addresses hold there
_ROUTE_TABLES: "weakref.WeakKeyDictionary[RoutingTables, RouteTable]" = (
    weakref.WeakKeyDictionary()
)


def route_table(routing: RoutingTables) -> RouteTable:
    """The per-routing :class:`RouteTable` (created on first use)."""
    table = _ROUTE_TABLES.get(routing)
    if table is None:
        table = _ROUTE_TABLES[routing] = RouteTable(routing)
    return table


class Dispatcher:
    """Computes delivery costs of plans and of the reference schemes.

    A pure pricing function of ``(routing, subscriptions, scheme)``: every
    cost is computed from the routing tables as they stand, so topology
    changes and in-place membership churn need no invalidation.  Its only
    state is the lazily elected sparse-mode core and the lazily resolved
    shared overlay; the dense kernel's staged rows are the routing's
    :func:`route_table`.
    """

    def __init__(
        self,
        routing: RoutingTables,
        subscriptions: SubscriptionSet,
        scheme: str = "dense",
        core: Optional[int] = None,
    ) -> None:
        """``core`` designates the sparse-mode rendezvous point; when
        omitted the network's 1-median is used (computed lazily, only
        when the sparse scheme actually prices a plan, and re-elected
        after every topology change)."""
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        self.routing = routing
        self.subscriptions = subscriptions
        self.scheme = scheme
        self._core = core
        self._core_given = core is not None
        self._core_version: Optional[int] = None
        self._overlay_delivery = None

    @property
    def core(self) -> int:
        """The sparse-mode rendezvous point node."""
        version = self.routing.topology_version
        if not self._core_given and version != self._core_version:
            self._core = select_core(self.routing)
            self._core_version = version
        return self._core

    # ------------------------------------------------------------------
    def plan_cost(self, publisher: int, plan: DeliveryPlan) -> float:
        """Network cost of executing ``plan`` from ``publisher``."""
        total = 0.0
        covered_nodes: List[np.ndarray] = []
        for members in plan.group_members:
            nodes = self.subscriptions.nodes_of_subscribers(members)
            covered_nodes.append(nodes)
            total += self.group_cost(publisher, nodes)
        unicast_nodes = self.subscriptions.nodes_of_subscribers(
            plan.unicast_subscribers
        )
        if covered_nodes and len(unicast_nodes):
            # drop nodes a group already reaches (a boolean scatter
            # keeps the sorted order a set difference would give)
            covered = np.zeros(self.routing.graph.n_nodes, dtype=bool)
            for nodes in covered_nodes:
                covered[nodes] = True
            unicast_nodes = unicast_nodes[~covered[unicast_nodes]]
        total += unicast_cost(self.routing, publisher, unicast_nodes)
        return total

    def plan_costs(
        self, publishers: Sequence[int], plans: Sequence[DeliveryPlan]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Costs and audited wasted deliveries of many plans at once
        (the batch-evaluation entry point; see :meth:`price_audited`),
        traced as one ``delivery.plan_costs`` span."""
        if len(publishers) != len(plans):
            raise ValueError("publishers / plans length mismatch")
        with get_tracer().span(
            "delivery.plan_costs", scheme=self.scheme, n_plans=len(plans)
        ):
            priced, wasted = self.price_audited(publishers, plans=plans)
            # a contiguous copy of the column, like the array of
            # per-plan costs callers sum
            return np.ascontiguousarray(priced[:, 2]), wasted

    def price_run(
        self,
        publishers: Sequence[int],
        interested: Optional[Sequence[Sequence[int]]] = None,
        plans: Optional[Sequence[DeliveryPlan]] = None,
    ) -> np.ndarray:
        """Price a run of events: ``(E, 4)`` float64 columns unicast
        reference, ideal reference, plan cost and broadcast cost
        (:meth:`price_audited` without the audit)."""
        return self.price_audited(publishers, interested, plans, False)[0]

    def price_audited(
        self,
        publishers: Sequence[int],
        interested: Optional[Sequence[Sequence[int]]] = None,
        plans: Optional[Sequence[DeliveryPlan]] = None,
        audit: bool = True,
    ):
        """Price a run of events: ``(costs, wasted)``.

        ``costs`` is ``(E, 4)`` float64 columns unicast reference,
        ideal reference, plan cost and broadcast cost; the references
        and the broadcast cost are priced when ``interested`` (each
        event's interested ids) is given, the plan costs when ``plans``
        is; the other columns read zero.  ``wasted`` is each plan's
        :meth:`DeliveryPlan.audit` count (zero without plans), and a
        plan that misses an interested subscriber raises the audit's
        ``AssertionError``.  Every value equals its per-event method bit
        for bit, and an unreachable node raises the error the per-event
        pricing raises first.  With ``audit`` off no plan is audited
        and ``wasted`` reads zero.

        ``plans`` is a :class:`PlanRun` or a sequence of plans; a run
        carries its own interest sets, so with a run ``interested`` is
        ``None`` or the run's :attr:`PlanRun.interested`.  Under the
        dense scheme a run (or interest sets alone) is priced in one
        kernel call (``price_dense``); otherwise, or when the backend
        has no such kernel, each event is priced in python.
        """
        n_events = len(publishers)
        for given in (interested, plans):
            if given is not None and len(given) != n_events:
                raise ValueError("one interest set / plan per publisher")
        priced = None
        if self.scheme == "dense" and n_events:
            run = None
            if plans is None:
                if interested is not None:
                    run = PlanRun.of_interest(interested)
            elif isinstance(plans, PlanRun) and (
                interested is None or interested is plans.interested
            ):
                run = plans
            if run is not None:
                priced = self._price_dense(
                    publishers, run, interested is not None,
                    plans is not None, audit,
                )
        if priced is None:
            priced = self._price_events(publishers, interested, plans, audit)
        return priced

    def _price_dense(self, publishers, run, references, plans, audit):
        """The run as one ``price_dense`` kernel call (``None`` when the
        backend prices in python), over the staged route table."""
        routes = route_table(self.routing)
        return get_backend().price_dense(
            routes, routes.rows(publishers),
            self.subscriptions.subscriber_nodes, run, references, plans,
            audit,
        )

    def _price_events(self, publishers, interested, plans, audit):
        """The per-event python pricing and audit: the reference
        :meth:`price_audited` matches.  Pricing errors come first:
        every event is priced before an audit may raise."""
        n_events = len(publishers)
        priced = np.zeros((n_events, 4), dtype=np.float64)
        wasted = np.zeros(n_events, dtype=np.int64)
        # priced with its interest sets, a run's unicast-only plan costs
        # its unicast reference (0.0 + x == x) and wastes nothing, so
        # only its group plans are priced and audited
        grouped = range(n_events)
        if isinstance(plans, PlanRun) and interested is plans.interested:
            grouped = np.flatnonzero(plans.groups >= 0).tolist()
        if plans is not None:
            plans = {e: plans[e] for e in grouped}
        for e, publisher in enumerate(publishers):
            publisher = int(publisher)
            row = priced[e]
            if interested is not None:
                ids = interested[e]
                nodes = self.subscriptions.nodes_of_subscribers(ids)
                row[0] = self.unicast_reference(publisher, ids, nodes)
                row[1] = self.ideal_reference(publisher, ids, nodes)
                row[3] = self.broadcast_reference(publisher)
            if plans is not None:
                plan = plans.get(e)
                row[2] = (
                    row[0] if plan is None
                    else self.plan_cost(publisher, plan)
                )
        if plans is not None and audit:
            for e, plan in plans.items():
                wasted[e] = plan.audit()
        return priced, wasted

    # ------------------------------------------------------------------
    def group_cost(self, publisher: int, nodes: np.ndarray) -> float:
        """Cost of one multicast transmission under the active scheme."""
        if self.scheme == "dense":
            return dense_multicast_cost(self.routing, publisher, nodes)
        if self.scheme == "alm":
            return application_multicast_cost(self.routing, publisher, nodes)
        if self.scheme == "overlay":
            return overlay_multicast_cost(
                self.routing, publisher, nodes, self._overlay()
            )
        return sparse_multicast_cost(self.routing, publisher, nodes, self.core)

    def _overlay(self):
        """The shared per-routing rendezvous delivery layer (lazy).

        Resolved through :func:`repro.dht.overlay_for` so every
        dispatcher and broker rebuild over the same routing tables
        reuses one set of rendezvous trees, which *heal* (reattach)
        across topology changes instead of rebuilding.
        """
        delivery = self._overlay_delivery
        if delivery is None:
            from ..dht import overlay_for

            delivery = overlay_for(self.routing)
            self._overlay_delivery = delivery
        return delivery

    # ------------------------------------------------------------------
    # reference schemes of Tables 1 and 2
    # ------------------------------------------------------------------
    def unicast_reference(
        self,
        publisher: int,
        interested: Sequence[int],
        nodes: Optional[np.ndarray] = None,
    ) -> float:
        """Pure unicast to every interested subscriber's node.

        ``nodes`` may supply the precomputed node set of ``interested``
        (the per-event pricing of :meth:`price_run` and the broker's
        degraded path resolve each event's nodes once and reuse them).
        """
        if nodes is None:
            nodes = self.subscriptions.nodes_of_subscribers(interested)
        return unicast_cost(self.routing, publisher, nodes)

    def broadcast_reference(self, publisher: int) -> float:
        """Flooding every network node."""
        return broadcast_cost(self.routing, publisher)

    def ideal_reference(
        self,
        publisher: int,
        interested: Sequence[int],
        nodes: Optional[np.ndarray] = None,
    ) -> float:
        """Per-event ideal multicast group (exactly the interested nodes).

        Under the ``alm`` scheme the ideal group still communicates over
        an overlay MST, mirroring how the achievable optimum differs
        between the two frameworks.  ``nodes`` may supply the precomputed
        node set of ``interested``.
        """
        if nodes is None:
            nodes = self.subscriptions.nodes_of_subscribers(interested)
        if len(nodes) == 0:
            return 0.0
        if self.scheme == "dense":
            return ideal_multicast_cost(self.routing, publisher, nodes)
        return self.group_cost(publisher, nodes)
