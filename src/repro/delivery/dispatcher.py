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

import itertools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from ..obs import MetricsRegistry, get_registry, get_tracer
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

#: distinguishes concurrently live dispatchers in the shared registry
_instance_ids = itertools.count()


def _next_instance_id() -> str:
    """A process-unique instance label for one dispatcher.

    The counter alone is not fork-safe: child workers inherit its state,
    so dispatchers constructed in sibling processes would collide on the
    same label and their cache statistics would be indistinguishable
    after a merge.  Salting with the pid keeps ids collision-free across
    processes without any cross-process coordination.
    """
    return f"p{os.getpid()}.d{next(_instance_ids)}"


class Dispatcher:
    """Computes delivery costs of plans and of the reference schemes."""

    def __init__(
        self,
        routing: RoutingTables,
        subscriptions: SubscriptionSet,
        scheme: str = "dense",
        core: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        """``core`` designates the sparse-mode rendezvous point; when
        omitted the network's 1-median is used (computed lazily, only
        when the sparse scheme actually prices a plan).  ``registry``
        overrides the process-wide metrics registry the cache statistics
        are recorded into.  ``max_entries`` bounds each memo; the oldest
        entry is evicted when the bound is hit (``None`` = unbounded)."""
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.routing = routing
        self.subscriptions = subscriptions
        self.scheme = scheme
        self._core = core
        self._core_given = core is not None
        self._max_entries = max_entries
        self._overlay_delivery = None
        # multicast-cost memo: a clustering's group node-sets are frozen,
        # so the cost of reaching a group from a given publisher only
        # changes when the topology does — price it once and replay it,
        # dropping entries when routing invalidates their publisher's tree
        self._group_cost_cache: Dict[Tuple[int, bytes], float] = {}
        self._group_nodes_cache: Dict[bytes, np.ndarray] = {}
        # registry-backed hit/miss accounting, one label set per live
        # dispatcher so concurrent instances don't mix their statistics;
        # counters are bound once here and incremented per lookup
        self._bind_metrics(registry if registry is not None else get_registry())
        routing.add_invalidation_listener(self._on_topology_change)

    def _bind_metrics(self, registry: MetricsRegistry) -> None:
        lookups = registry.counter(
            "dispatcher_cache_lookups_total",
            "per-lookup hit/miss counts of the dispatcher memos",
        )
        # entry-lifecycle events are a separate family: an invalidation
        # (topology change made the entry wrong) is not an eviction
        # (capacity pressure dropped a still-correct entry), and chaos
        # runs must not masquerade as cache churn
        dropped = registry.counter(
            "dispatcher_cache_entries_dropped_total",
            "memo entries dropped, by cause",
        )
        scheme = self.scheme
        instance = _next_instance_id()
        self._instance = instance
        self._cost_hits = lookups.labels(
            cache="group_cost", result="hit", scheme=scheme, instance=instance
        )
        self._cost_misses = lookups.labels(
            cache="group_cost", result="miss", scheme=scheme, instance=instance
        )
        self._nodes_hits = lookups.labels(
            cache="group_nodes", result="hit", scheme=scheme, instance=instance
        )
        self._nodes_misses = lookups.labels(
            cache="group_nodes", result="miss", scheme=scheme, instance=instance
        )
        self._cost_invalidations = dropped.labels(
            cache="group_cost", reason="invalidation", scheme=scheme,
            instance=instance,
        )
        self._cost_evictions = dropped.labels(
            cache="group_cost", reason="eviction", scheme=scheme,
            instance=instance,
        )
        self._nodes_invalidations = dropped.labels(
            cache="group_nodes", reason="invalidation", scheme=scheme,
            instance=instance,
        )
        self._nodes_evictions = dropped.labels(
            cache="group_nodes", reason="eviction", scheme=scheme,
            instance=instance,
        )

    def rebind_metrics(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Re-resolve the bound statistic counters (fresh instance id).

        A forked worker that installs a fresh process registry
        (:func:`repro.obs.reset_worker_state`) calls this on dispatchers
        created before the fork: their handles still point at the
        inherited copy of the parent's registry, so without rebinding the
        worker's cache statistics would vanish from the merged totals.
        """
        self._bind_metrics(registry if registry is not None else get_registry())

    @property
    def core(self) -> int:
        """The sparse-mode rendezvous point node."""
        if self._core is None:
            self._core = select_core(self.routing)
        return self._core

    # ------------------------------------------------------------------
    def _on_topology_change(self, sources) -> None:
        """Routing invalidation hook: drop only the memo entries whose
        priced trees traverse the changed part of the network.

        Dense-mode costs depend solely on the publisher's shortest-path
        tree, so entries of unaffected publishers survive.  ALM and
        sparse costs route through the metric closure / the core's shared
        tree, which any topology change can alter — those schemes flush.
        """
        if self.scheme == "dense" and sources is not None:
            keys = [k for k in self._group_cost_cache if k[0] in sources]
            for key in keys:
                del self._group_cost_cache[key]
            dropped = len(keys)
        else:
            dropped = len(self._group_cost_cache)
            self._group_cost_cache.clear()
        if dropped:
            self._cost_invalidations.inc(dropped)
        if not self._core_given:
            # re-elect the rendezvous point on the changed topology
            self._core = None

    def invalidate(self, sources=None) -> None:
        """Manually drop cost-memo entries (all, or per-publisher set)."""
        self._on_topology_change(
            frozenset(sources) if sources is not None else None
        )

    def invalidate_members(self, members: Sequence[int]) -> None:
        """Surgically drop the memo entries of one pre-change member set.

        Online churn mutates a group's member column in place (a join
        splices a subscriber in, a leave removes it, and under
        aggregation a split/merge re-shapes the columns the matcher
        serves).  The old column's byte key can never be looked up
        again — but a *renumbering* of subscriber ids (compaction, an
        aggregate split re-using a column shape) can mint the same byte
        key for a different population, at which point the retained
        ``group_nodes`` entry silently resolves to the wrong nodes and
        every ``(publisher, node-set)`` cost derived from it prices the
        wrong trees.  The broker calls this with the column as it was
        *before* the mutation; both the node-set entry and the cost
        entries priced from it are dropped, counted as invalidations
        (the entry became wrong) rather than evictions (capacity
        pressure).
        """
        arr = np.asarray(members, dtype=np.int64)
        nodes = self._group_nodes_cache.pop(arr.tobytes(), None)
        if nodes is None:
            return
        self._nodes_invalidations.inc()
        stale_nodes = nodes.tobytes()
        stale = [
            key for key in self._group_cost_cache if key[1] == stale_nodes
        ]
        for key in stale:
            del self._group_cost_cache[key]
        if stale:
            self._cost_invalidations.inc(len(stale))

    # ------------------------------------------------------------------
    def plan_cost(self, publisher: int, plan: DeliveryPlan) -> float:
        """Network cost of executing ``plan`` from ``publisher``."""
        total = 0.0
        covered_nodes: List[np.ndarray] = []
        for members in plan.group_members:
            nodes = self.group_nodes(members)
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
        """Costs of many plans at once (the batch-evaluation entry point).

        The per-``(publisher, node-set)`` memo means each of a
        clustering's K group trees is priced once per publisher instead of
        once per event.
        """
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
    def group_nodes(self, members: Sequence[int]) -> np.ndarray:
        """Unique network nodes of a (frozen) member set, memoised."""
        arr = np.asarray(members, dtype=np.int64)
        key = arr.tobytes()
        nodes = self._group_nodes_cache.get(key)
        if nodes is None:
            self._nodes_misses.inc()
            nodes = self.subscriptions.nodes_of_subscribers(arr)
            if (
                self._max_entries is not None
                and len(self._group_nodes_cache) >= self._max_entries
            ):
                self._group_nodes_cache.pop(
                    next(iter(self._group_nodes_cache))
                )
                self._nodes_evictions.inc()
            self._group_nodes_cache[key] = nodes
        else:
            self._nodes_hits.inc()
        return nodes

    def group_cost(self, publisher: int, nodes: np.ndarray) -> float:
        """Memoised multicast cost of one ``(publisher, node-set)`` pair.

        Hit/miss statistics are recorded per lookup — a ``plan_costs``
        batch over N plans with G groups each contributes N·G lookup
        events, not one per call.
        """
        key = (publisher, nodes.tobytes())
        cost = self._group_cost_cache.get(key)
        if cost is None:
            self._cost_misses.inc()
            cost = self._group_cost(publisher, nodes)
            if (
                self._max_entries is not None
                and len(self._group_cost_cache) >= self._max_entries
            ):
                self._group_cost_cache.pop(
                    next(iter(self._group_cost_cache))
                )
                self._cost_evictions.inc()
            self._group_cost_cache[key] = cost
        else:
            self._cost_hits.inc()
        return cost

    @property
    def cache_hits(self) -> int:
        """This dispatcher's multicast-cost-memo hits (registry-backed)."""
        return int(self._cost_hits.value)

    @property
    def cache_misses(self) -> int:
        """This dispatcher's multicast-cost-memo misses (registry-backed)."""
        return int(self._cost_misses.value)

    def cache_info(self) -> Dict[str, float]:
        """Hit/miss counters of the multicast-cost memo (for benchmarks).

        Thin shim over the registry-backed counters; the historical keys
        are preserved, with the node-set memo's counts alongside.
        Entries dropped because a topology change made them stale are
        reported as ``invalidations``, distinct from capacity
        ``evictions`` — a chaos run shows up as invalidation traffic, not
        as ordinary cache churn.
        """
        hits, misses = self.cache_hits, self.cache_misses
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "entries": len(self._group_cost_cache),
            "hit_rate": hits / lookups if lookups else 0.0,
            "invalidations": int(self._cost_invalidations.value),
            "evictions": int(self._cost_evictions.value),
            "nodes_hits": int(self._nodes_hits.value),
            "nodes_misses": int(self._nodes_misses.value),
            "nodes_entries": len(self._group_nodes_cache),
            "nodes_invalidations": int(self._nodes_invalidations.value),
            "nodes_evictions": int(self._nodes_evictions.value),
        }

    def reset_cache_stats(self) -> None:
        """Zero the hit/miss counters (the memos themselves are kept)."""
        self._cost_hits.reset()
        self._cost_misses.reset()
        self._nodes_hits.reset()
        self._nodes_misses.reset()
        self._cost_invalidations.reset()
        self._cost_evictions.reset()
        self._nodes_invalidations.reset()
        self._nodes_evictions.reset()

    def _group_cost(self, publisher: int, nodes) -> float:
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
        across topology changes instead of rebuilding — the dispatcher
        memo still flushes on change (costs moved), but the tree
        structure underneath survives.
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
        return self._group_cost(publisher, nodes)
