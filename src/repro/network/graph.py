"""A weighted undirected graph with the algorithms the paper relies on.

The paper models the network as an undirected graph ``G = (V, E)`` with a
communication cost ``c_e >= 0`` on each edge (section 2).  We implement the
graph substrate from scratch: adjacency storage, Dijkstra single-source
shortest paths (used for dense-mode multicast routing trees), Prim's
minimum spanning tree (used for application-level multicast overlays) and
Kruskal-style union-find (used both here and by the MST clustering
algorithm).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Graph", "UnionFind", "ShortestPaths"]


class UnionFind:
    """Disjoint-set forest with union by rank and path compression."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("size must be non-negative")
        self._parent = list(range(n))
        self._rank = [0] * n
        self._components = n

    @property
    def components(self) -> int:
        """Number of disjoint components."""
        return self._components

    def find(self, x: int) -> int:
        """Representative of the component containing ``x``."""
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the components of ``a`` and ``b``; True if they differed."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def groups(self) -> Dict[int, List[int]]:
        """Map from component representative to sorted member list."""
        result: Dict[int, List[int]] = {}
        for x in range(len(self._parent)):
            result.setdefault(self.find(x), []).append(x)
        return result


@dataclass
class ShortestPaths:
    """Result of a single-source shortest path computation.

    ``dist[v]`` is the distance from the source; ``pred[v]`` is the
    predecessor of ``v`` on a shortest path (``-1`` for the source and for
    unreachable nodes).  The predecessor array encodes the dense-mode
    multicast routing tree rooted at the source.
    """

    source: int
    dist: List[float]
    pred: List[int]
    _dist_np: Optional["np.ndarray"] = field(
        default=None, init=False, repr=False, compare=False
    )
    _pred_np: Optional["np.ndarray"] = field(
        default=None, init=False, repr=False, compare=False
    )
    _full_tree_cost: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )
    _edge_np: Optional["np.ndarray"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def arrays(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(dist, pred)`` as numpy arrays (built once, then cached)."""
        if self._dist_np is None:
            import numpy as np

            self._dist_np = np.asarray(self.dist, dtype=np.float64)
            self._pred_np = np.asarray(self.pred, dtype=np.int64)
        return self._dist_np, self._pred_np

    def edge_costs(self) -> "np.ndarray":
        """Cost of the tree edge into each node (built once, then cached).

        ``dist[v] - dist[pred[v]]`` for every node with a predecessor;
        0 for the source and for unreachable nodes.
        """
        if self._edge_np is None:
            import numpy as np

            dist, pred = self.arrays()
            edge = np.zeros(len(dist), dtype=np.float64)
            has_pred = pred >= 0
            edge[has_pred] = dist[has_pred] - dist[pred[has_pred]]
            self._edge_np = edge
        return self._edge_np

    def path_to(self, target: int) -> List[int]:
        """Node sequence from the source to ``target`` (inclusive)."""
        if math.isinf(self.dist[target]):
            raise ValueError(f"node {target} unreachable from {self.source}")
        path = [target]
        while path[-1] != self.source:
            path.append(self.pred[path[-1]])
        path.reverse()
        return path

    def reachable(self, target: int) -> bool:
        return not math.isinf(self.dist[target])

    def tree_cost(self, targets: Optional[Iterable[int]] = None) -> float:
        """Cost of the union of shortest paths from the source.

        With ``targets=None`` this is the full shortest-path-tree cost (the
        paper's broadcast cost for this publisher).  With an explicit
        target set it is the dense-mode multicast cost of delivering to
        exactly those nodes: the sum of edge costs over the union of the
        root-to-target paths.

        The walk towards the root is vectorised level by level: each pass
        charges the tree edges of the current level (its nodes in
        ascending order, one ``sum`` per level) and replaces it with the
        not-yet-visited parents, so the Python-level iteration count is
        the tree depth, not the number of tree edges.
        """
        import numpy as np

        dist, pred = self.arrays()
        if targets is None:
            if self._full_tree_cost is None:
                reachable = np.isfinite(dist)
                reachable[self.source] = False
                nodes = np.nonzero(reachable)[0]
                self._full_tree_cost = float(
                    np.sum(dist[nodes] - dist[pred[nodes]])
                )
            return self._full_tree_cost
        frontier = np.asarray(
            targets if isinstance(targets, np.ndarray) else list(targets),
            dtype=np.int64,
        )
        if frontier.size == 0:
            return 0.0
        bad = np.isinf(dist[frontier])
        if bad.any():
            target = int(frontier[bad][0])
            raise ValueError(f"node {target} unreachable from {self.source}")
        edge = self.edge_costs()
        n = len(dist)
        unvisited = np.ones(n, dtype=bool)
        unvisited[self.source] = False
        # boolean scatter both deduplicates a level and sorts it in O(n),
        # avoiding a sort per level; parents are filtered against the
        # visited set before they are scattered, so no level repeats a node
        level_mask = np.zeros(n, dtype=bool)
        level_mask[frontier] = True
        level_mask[self.source] = False
        level = level_mask.nonzero()[0]
        total = 0.0
        while level.size:
            level_mask[level] = False
            unvisited[level] = False
            total += float(edge[level].sum())
            parents = pred[level]
            level_mask[parents[unvisited[parents]]] = True
            level = level_mask.nonzero()[0]
        return total


class Graph:
    """Weighted undirected multigraph-free graph over nodes ``0..n-1``."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("graph must have at least one node")
        self._n = n_nodes
        self._adj: List[Dict[int, float]] = [dict() for _ in range(n_nodes)]
        self._n_edges = 0
        self._version = 0
        self._down: set = set()
        # edges detached by a node failure, waiting to return when the
        # node comes back; keyed per down node as {neighbor: cost}
        self._stash: Dict[int, Dict[int, float]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, cost: float) -> None:
        """Add (or tighten) the undirected edge ``{u, v}``.

        Parallel edge insertions keep the cheaper cost, which matches how
        transit-stub generators resolve duplicate links.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError("self-loops are not allowed")
        if cost < 0:
            raise ValueError("edge costs must be non-negative")
        if u in self._down or v in self._down:
            raise ValueError("cannot add an edge incident to a failed node")
        existing = self._adj[u].get(v)
        if existing is None:
            self._n_edges += 1
            self._adj[u][v] = cost
            self._adj[v][u] = cost
            self._version += 1
        elif cost < existing:
            self._adj[u][v] = cost
            self._adj[v][u] = cost
            self._version += 1

    # ------------------------------------------------------------------
    # fault machinery: incremental removal and restoration
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic topology version, bumped on every mutation."""
        return self._version

    @property
    def failed_nodes(self) -> frozenset:
        """Nodes currently marked down."""
        return frozenset(self._down)

    def is_node_down(self, u: int) -> bool:
        self._check_node(u)
        return u in self._down

    def remove_edge(self, u: int, v: int) -> float:
        """Detach the edge ``{u, v}`` and return its cost.

        The edge may be live or stashed on a down endpoint (a link can
        fail while one of its ends is already down); either way it is
        gone until explicitly restored.
        """
        self._check_node(u)
        self._check_node(v)
        if v in self._adj[u]:
            cost = self._adj[u].pop(v)
            del self._adj[v][u]
            self._n_edges -= 1
            self._version += 1
            return cost
        for a, b in ((u, v), (v, u)):
            stash = self._stash.get(a)
            if stash is not None and b in stash:
                self._version += 1
                return stash.pop(b)
        raise KeyError(f"no edge between {u} and {v}")

    def restore_edge(self, u: int, v: int, cost: float) -> None:
        """Bring the edge ``{u, v}`` back.

        If an endpoint is currently down the edge is parked in that
        node's stash and returns to the graph when the node does.
        """
        self._check_node(u)
        self._check_node(v)
        if u in self._down:
            self._stash[u][v] = cost
            self._version += 1
        elif v in self._down:
            self._stash[v][u] = cost
            self._version += 1
        else:
            self.add_edge(u, v, cost)

    def remove_node(self, u: int) -> int:
        """Mark ``u`` down, detaching its incident edges; returns their
        count.  The edges are stashed and come back on :meth:`restore_node`."""
        self._check_node(u)
        if u in self._down:
            raise ValueError(f"node {u} is already down")
        stash = dict(self._adj[u])
        for v in stash:
            del self._adj[v][u]
        self._adj[u] = {}
        self._n_edges -= len(stash)
        self._stash[u] = stash
        self._down.add(u)
        self._version += 1
        return len(stash)

    def restore_node(self, u: int) -> None:
        """Bring ``u`` back up, re-attaching its stashed edges.

        Edges whose other endpoint is still down migrate to that node's
        stash so the link reappears once both ends are alive."""
        self._check_node(u)
        if u not in self._down:
            raise ValueError(f"node {u} is not down")
        self._down.discard(u)
        stash = self._stash.pop(u)
        self._version += 1
        for v, cost in stash.items():
            if v in self._down:
                self._stash[v][u] = cost
            else:
                self.add_edge(u, v, cost)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def edge_cost(self, u: int, v: int) -> float:
        self._check_node(u)
        self._check_node(v)
        try:
            return self._adj[u][v]
        except KeyError:
            raise KeyError(f"no edge between {u} and {v}") from None

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(neighbor, cost)`` pairs of node ``u``."""
        self._check_node(u)
        return iter(self._adj[u].items())

    def degree(self, u: int) -> int:
        self._check_node(u)
        return len(self._adj[u])

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate each undirected edge once as ``(u, v, cost)`` with u < v."""
        for u in range(self._n):
            for v, cost in self._adj[u].items():
                if u < v:
                    yield u, v, cost

    def total_edge_cost(self) -> float:
        return sum(cost for _, _, cost in self.edges())

    # ------------------------------------------------------------------
    # algorithms
    # ------------------------------------------------------------------
    def shortest_paths(self, source: int) -> ShortestPaths:
        """Dijkstra single-source shortest paths from ``source``."""
        self._check_node(source)
        dist = [math.inf] * self._n
        pred = [-1] * self._n
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, cost in self._adj[u].items():
                nd = d + cost
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
        return ShortestPaths(source=source, dist=dist, pred=pred)

    def is_connected(self) -> bool:
        """True when every node is reachable from node 0."""
        seen = [False] * self._n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self._n

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_node(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise IndexError(f"node {u} out of range [0, {self._n})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n_nodes={self._n}, n_edges={self._n_edges})"


def metric_closure_mst_cost(
    distances: Sequence[Sequence[float]], members: Sequence[int]
) -> float:
    """MST cost among ``members`` in the metric closure of the network.

    ``distances`` is a matrix where ``distances[u][v]`` is the shortest-path
    distance between network nodes.  Application-level multicast (section
    5.1) connects group members by unicast paths forming a minimum spanning
    tree in this metric; the delivery cost is the tree's total weight.
    """
    nodes = list(dict.fromkeys(members))
    if len(nodes) <= 1:
        return 0.0
    in_tree = [False] * len(nodes)
    best = [math.inf] * len(nodes)
    best[0] = 0.0
    total = 0.0
    for _ in range(len(nodes)):
        u = min(
            (i for i in range(len(nodes)) if not in_tree[i]),
            key=lambda i: best[i],
        )
        if math.isinf(best[u]):
            raise ValueError("members are not mutually reachable")
        in_tree[u] = True
        total += best[u]
        du = distances[nodes[u]]
        for v in range(len(nodes)):
            if not in_tree[v]:
                d = du[nodes[v]]
                if d < best[v]:
                    best[v] = d
    return total
