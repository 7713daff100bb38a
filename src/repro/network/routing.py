"""Routing state precomputed over a topology.

The cost evaluations of section 5 repeatedly need, for every publisher
node, the shortest-path tree rooted there (dense-mode multicast routing)
and, for application-level multicast, pairwise shortest-path distances
between group members.  :class:`RoutingTables` computes both lazily and
memoises them, so a simulation touching only a handful of publisher nodes
never pays for all-pairs Dijkstra.

Fault injection mutates the topology *in place* through the
``fail_link`` / ``heal_link`` / ``fail_node`` / ``heal_node`` methods.
Each mutation invalidates exactly the cached shortest-path trees the
change can affect (the rest stay warm):

* a removed edge breaks only the trees that use it as a tree edge;
* a restored edge invalidates only trees it could shorten
  (``dist[u] + c < dist[v]`` in either direction);
* a removed node invalidates trees that could reach it;
* a restored node invalidates trees that can reach one of its
  re-attached neighbors (otherwise it stays unreachable and nothing
  changes).

The tables notify no one: the dispatcher prices from them afresh on
every call, and state derived from the topology elsewhere (the
overlay's live ring, the dispatcher's sparse-mode core) compares
:attr:`RoutingTables.topology_version` to notice a change.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from ..obs import get_registry
from .graph import Graph, ShortestPaths

__all__ = ["RoutingTables"]


class RoutingTables:
    """Memoised shortest-path state for a mutable graph."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._sp: Dict[int, ShortestPaths] = {}
        self._dist_matrix: Optional[np.ndarray] = None
        # cost of each currently-failed link, for restoration
        self._down_links: Dict[Tuple[int, int], float] = {}

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def topology_version(self) -> int:
        """The underlying graph's mutation counter."""
        return self._graph.version

    @property
    def failed_nodes(self) -> frozenset:
        return self._graph.failed_nodes

    @property
    def down_links(self) -> Dict[Tuple[int, int], float]:
        """Currently-failed links as ``{(u, v): cost}`` with ``u < v``."""
        return dict(self._down_links)

    # ------------------------------------------------------------------
    def shortest_paths(self, source: int) -> ShortestPaths:
        """Shortest paths from ``source``, computed once and cached."""
        table = self._sp.get(source)
        if table is None:
            table = self._graph.shortest_paths(source)
            self._sp[source] = table
        return table

    def distance(self, u: int, v: int) -> float:
        """Shortest-path distance between two nodes."""
        if self._dist_matrix is not None:
            return float(self._dist_matrix[u, v])
        return self.shortest_paths(u).dist[v]

    # ------------------------------------------------------------------
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest path distances (computed once).

        Needed by application-level multicast, whose overlay tree is a
        minimum spanning tree in the metric closure of the network.
        """
        if self._dist_matrix is None:
            n = self._graph.n_nodes
            matrix = np.empty((n, n), dtype=np.float64)
            for source in range(n):
                matrix[source, :] = self.shortest_paths(source).dist
            self._dist_matrix = matrix
        return self._dist_matrix

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail_link(self, u: int, v: int) -> float:
        """Take the link ``{u, v}`` down; returns its cost."""
        affected = frozenset(
            s
            for s, sp in self._sp.items()
            if sp.pred[v] == u or sp.pred[u] == v
        )
        cost = self._graph.remove_edge(u, v)
        self._down_links[(min(u, v), max(u, v))] = cost
        self._record_fault("link_down")
        self._invalidate(affected)
        return cost

    def heal_link(self, u: int, v: int) -> float:
        """Bring a previously-failed link back; returns its cost."""
        key = (min(u, v), max(u, v))
        try:
            cost = self._down_links.pop(key)
        except KeyError:
            raise KeyError(f"link ({u}, {v}) is not down") from None
        self._graph.restore_edge(u, v, cost)
        self._record_fault("link_up")
        if self._graph.is_node_down(u) or self._graph.is_node_down(v):
            # parked in a node stash; no live topology change yet
            self._invalidate(frozenset())
            return cost
        affected = frozenset(
            s
            for s, sp in self._sp.items()
            if sp.dist[u] + cost < sp.dist[v]
            or sp.dist[v] + cost < sp.dist[u]
        )
        self._invalidate(affected)
        return cost

    def fail_node(self, u: int) -> int:
        """Take node ``u`` down; returns the number of detached links."""
        affected = frozenset(
            s for s, sp in self._sp.items() if not math.isinf(sp.dist[u])
        )
        detached = self._graph.remove_node(u)
        self._record_fault("node_down")
        self._invalidate(affected)
        return detached

    def heal_node(self, u: int) -> None:
        """Bring node ``u`` back up, re-attaching its stashed links."""
        self._graph.restore_node(u)
        neighbors = [v for v, _ in self._graph.neighbors(u)]
        affected = set()
        for s, sp in self._sp.items():
            if s == u or any(not math.isinf(sp.dist[v]) for v in neighbors):
                affected.add(s)
        self._record_fault("node_up")
        self._invalidate(frozenset(affected))

    # ------------------------------------------------------------------
    def _invalidate(self, sources: Optional[FrozenSet[int]]) -> None:
        """Drop the named cached tables (all when ``None``)."""
        if sources is None:
            self._sp.clear()
        else:
            for s in sources:
                self._sp.pop(s, None)
        self._dist_matrix = None
        if sources is None or sources:
            get_registry().counter(
                "routing_invalidations_total",
                "cached shortest-path trees dropped by topology changes",
            ).inc(len(sources) if sources is not None else 1)

    @staticmethod
    def _record_fault(kind: str) -> None:
        get_registry().counter(
            "network_faults_total", "topology fault events applied"
        ).inc(kind=kind)
