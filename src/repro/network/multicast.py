"""Delivery cost models: unicast, broadcast, multicast (two flavours).

Section 5.1 evaluates multicast-group quality under two frameworks:

* **Network-supported (dense-mode) multicast** — the routing tree is the
  shortest-path tree rooted at the publisher, pruned to the group members;
  the delivery cost is the total cost of the edges in the union of the
  root-to-member shortest paths.
* **Application-level multicast** — group members communicate by unicast
  and forward along a minimum spanning tree built in the metric closure
  (member-to-member shortest path distances).

The *ideal multicast* of Tables 1 and 2 is dense-mode multicast to exactly
the set of interested nodes, i.e. a dedicated multicast group per event.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Set

import numpy as np

from .graph import metric_closure_mst_cost
from .routing import RoutingTables

__all__ = [
    "unicast_cost",
    "sparse_multicast_cost",
    "select_core",
    "broadcast_cost",
    "dense_multicast_cost",
    "ideal_multicast_cost",
    "application_multicast_cost",
    "overlay_multicast_cost",
]


def _unique_nodes(nodes: Iterable[int]) -> List[int]:
    return list(dict.fromkeys(nodes))


def unicast_cost(
    routing: RoutingTables, publisher: int, targets: Iterable[int]
) -> float:
    """Cost of sending one copy of the message to each target node.

    Each copy travels the shortest path independently, so shared prefix
    edges are paid once *per copy* — this is what makes unicast expensive
    for popular events.  Multiple subscribers co-located on one node
    receive a single copy (the node's broker fans out locally at no
    network cost), so targets are de-duplicated.
    """
    sp = routing.shortest_paths(publisher)
    nodes = np.asarray(
        targets if isinstance(targets, np.ndarray) else list(targets),
        dtype=np.int64,
    )
    if nodes.size == 0:
        return 0.0
    nodes = np.unique(nodes)
    dist, _ = sp.arrays()
    d = dist[nodes]
    bad = np.isinf(d)
    if bad.any():
        node = int(nodes[bad][0])
        raise ValueError(f"node {node} unreachable from publisher {publisher}")
    return float(d.sum())


def broadcast_cost(routing: RoutingTables, publisher: int) -> float:
    """Cost of flooding every node via the publisher's shortest-path tree.

    Independent of the subscription population — this is the flat line in
    Tables 1 and 2.
    """
    return routing.shortest_paths(publisher).tree_cost()


def dense_multicast_cost(
    routing: RoutingTables, publisher: int, members: Iterable[int]
) -> float:
    """Dense-mode multicast cost of delivering to ``members``.

    The routing tree is the shortest-path tree rooted at the publisher;
    the message traverses the union of root-to-member paths and each edge
    in that union is paid exactly once.
    """
    if not isinstance(members, np.ndarray):
        members = _unique_nodes(members)
    # the tree walk deduplicates an array of nodes itself
    return routing.shortest_paths(publisher).tree_cost(members)


def ideal_multicast_cost(
    routing: RoutingTables, publisher: int, interested: Iterable[int]
) -> float:
    """Cost of the per-event ideal group: exactly the interested nodes.

    This is the 100 %-improvement reference of section 5.2; realising it
    for every event would require up to ``2^N_S`` multicast groups.
    """
    return dense_multicast_cost(routing, publisher, interested)


def application_multicast_cost(
    routing: RoutingTables, publisher: int, members: Iterable[int]
) -> float:
    """Application-level multicast cost.

    The publisher and the group members form an overlay: a minimum
    spanning tree in the metric closure of the network (edge weight =
    shortest-path distance between the two members).  Every overlay edge
    is a unicast transfer, so the delivery cost is the tree's total
    weight.  Always at least the dense-mode cost for the same group.
    """
    nodes = _unique_nodes(members)
    if publisher not in nodes:
        nodes.append(publisher)
    if len(nodes) <= 1:
        return 0.0
    return metric_closure_mst_cost(routing.distance_matrix(), nodes)


def sparse_multicast_cost(
    routing: RoutingTables,
    publisher: int,
    members: Iterable[int],
    core: int,
) -> float:
    """Sparse-mode (shared-tree) multicast cost.

    Section 5.1 notes routers implement dense *and* sparse mode; the
    paper evaluates dense mode.  This implements the alternative for
    comparison: the group shares one tree rooted at a rendezvous-point
    (core) node.  The publisher unicasts the message to the core, which
    forwards it down the union of core-to-member shortest paths.  The
    shared tree avoids per-(publisher, group) state at the price of a
    detour through the core.
    """
    nodes = _unique_nodes(members)
    if not nodes:
        return 0.0
    to_core = routing.shortest_paths(publisher).dist[core]
    if math.isinf(to_core):
        raise ValueError(f"core {core} unreachable from publisher {publisher}")
    return to_core + routing.shortest_paths(core).tree_cost(nodes)


def select_core(routing: RoutingTables) -> int:
    """Pick a rendezvous point: the 1-median of the network.

    The node minimising the total shortest-path distance to all other
    nodes — the natural static core for a shared multicast tree.  Ties
    break towards the lowest node id, so core election is a pure
    function of the topology (no array-layout or argmin-implementation
    dependence).
    """
    totals = routing.distance_matrix().sum(axis=1)
    return int(np.flatnonzero(totals == totals.min())[0])


def overlay_multicast_cost(
    routing: RoutingTables,
    publisher: int,
    members: Iterable[int],
    overlay=None,
) -> float:
    """Structured-overlay (rendezvous-tree) multicast cost.

    The group hashes to a rendezvous key on a Pastry-like ring; the
    publisher routes to the key's owner (the root) over the overlay and
    the message flows down a Scribe-like dissemination tree formed by
    the members' proximity-anycast joins — each overlay hop is one
    underlay unicast, each tree edge one underlay link (traversed join
    paths become forwarders).  ``overlay`` may supply a configured
    :class:`repro.dht.RendezvousDelivery`; by default the per-routing
    shared instance is used (see :func:`repro.dht.overlay_for`), so
    cached trees survive — and heal across — topology changes.
    """
    if overlay is None:
        from ..dht import overlay_for

        overlay = overlay_for(routing)
    return overlay.group_cost(
        publisher, np.asarray(_unique_nodes(members), dtype=np.int64)
    )
