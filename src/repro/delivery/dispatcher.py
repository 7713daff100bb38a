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

from typing import List, Optional, Sequence

import numpy as np

from ..matching import DeliveryPlan
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

__all__ = ["Dispatcher", "SCHEMES", "BACKENDS", "resolve_backend"]

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


class Dispatcher:
    """Computes delivery costs of plans and of the reference schemes.

    A pure pricing function of ``(routing, subscriptions, scheme)``: every
    cost is computed from the routing tables as they stand, so topology
    changes and in-place membership churn need no invalidation.  Its only
    state is the lazily elected sparse-mode core and the lazily resolved
    shared overlay.
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
    ) -> np.ndarray:
        """Costs of many plans at once (the batch-evaluation entry point),
        traced as one ``delivery.plan_costs`` span."""
        if len(publishers) != len(plans):
            raise ValueError("publishers / plans length mismatch")
        with get_tracer().span(
            "delivery.plan_costs", scheme=self.scheme, n_plans=len(plans)
        ):
            return np.array(
                [
                    self.plan_cost(int(publisher), plan)
                    for publisher, plan in zip(publishers, plans)
                ],
                dtype=np.float64,
            )

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
        (the experiment context and the broker resolve each event's nodes
        once and reuse them across the reference costs and schemes).
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
