"""A deterministic Pastry-like structured overlay over the network graph.

The overlay assigns every network node a fixed-width identifier on a
ring of ``2^id_bits`` positions and routes towards a key with the two
classic Pastry structures:

* **prefix routing tables** — at a node whose id shares the first ``l``
  digits (``digit_bits`` bits each) with the key, the table row ``l``
  holds, per next digit value, a node extending the shared prefix by
  one digit.  Among the eligible nodes the *underlay-closest* one is
  chosen (Pastry's proximity neighbour selection), ties broken by the
  lowest node id, so tables are a pure function of the topology.
* **leaf sets** — the ``leaf_span`` nearest live ring neighbours on
  each side.  Greedy routing over the leaf set alone already converges
  to the key's owner, so prefix hops only shorten the route.

Id assignment is seeded and deterministic.  The default ``proximity``
mode runs a nearest-neighbour tour over the shortest-path distance
matrix and spreads the tour evenly around the ring, so numerically
close ids belong to underlay-close nodes — the property subscription
subgrouping exploits (prefix subgroups become underlay-local).

Fault handling: routing always happens inside a *universe* — the live
nodes reachable from the route's source in the current topology.  Every
node of a universe can reach every other (an undirected component), so
greedy numeric routing never needs per-hop reachability checks, and a
partitioned network simply yields one universe per component.  When the
topology version moves, the overlay diffs its live membership and
counts the leaf-set patches ring neighbours perform
(``overlay_leafset_repairs_total``) — the DHT-side half of route
healing (tree reattachment lives in :mod:`repro.dht.scribe`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..network.routing import RoutingTables
from ..obs import get_registry

__all__ = ["OverlayConfig", "PastryOverlay", "OverlayUniverse"]


def _digest(*parts: object) -> int:
    """Deterministic 64-bit digest of the joined string parts."""
    text = ":".join(str(part) for part in parts)
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class OverlayConfig:
    """Shape of the overlay (all of it feeds the deterministic build)."""

    #: ring size is ``2^id_bits``; must hold every node
    id_bits: int = 16
    #: bits per routing digit (Pastry's ``b``; 4 = hexadecimal digits)
    digit_bits: int = 4
    #: live ring neighbours kept on each side of a node's leaf set
    leaf_span: int = 4
    #: seeds id assignment and group-key hashing
    seed: int = 0
    #: split each group's members into overlay-local subgroups led by a
    #: per-subgroup rendezvous (see :mod:`repro.dht.scribe`)
    subgrouping: bool = True
    #: id digits that define a subgroup domain (1 digit of 4 bits =
    #: up to 16 subgroups)
    subgroup_digits: int = 1

    def __post_init__(self) -> None:
        if self.digit_bits < 1:
            raise ValueError("digit_bits must be positive")
        if self.id_bits < self.digit_bits or self.id_bits % self.digit_bits:
            raise ValueError("id_bits must be a positive multiple of digit_bits")
        if self.leaf_span < 1:
            raise ValueError("leaf_span must be positive")
        if not 1 <= self.subgroup_digits <= self.id_bits // self.digit_bits:
            raise ValueError("subgroup_digits out of range for id_bits")

    @property
    def ring_size(self) -> int:
        return 1 << self.id_bits

    @property
    def n_digits(self) -> int:
        return self.id_bits // self.digit_bits


class OverlayUniverse:
    """One routable component: the live nodes mutually reachable there.

    Leaf sets, routing-table entries and routes are resolved lazily and
    cached for the universe's lifetime (one topology version).  All
    choices are deterministic: numeric ties break towards the lower
    node id, proximity ties likewise.
    """

    def __init__(
        self,
        overlay: "PastryOverlay",
        nodes: Tuple[int, ...],
    ) -> None:
        self._overlay = overlay
        self.nodes = nodes
        self.key = nodes  # hashable identity of the member set
        self._node_set = frozenset(nodes)
        ids = overlay.ids
        # ring order: positions sorted by id (ids are unique)
        order = sorted(nodes, key=lambda n: ids[n])
        self._ring_nodes = order
        self._ring_ids = [int(ids[n]) for n in order]
        self._ring_pos = {node: pos for pos, node in enumerate(order)}
        self._leafsets: Dict[int, Tuple[int, ...]] = {}
        self._table: Dict[Tuple[int, int, int], Optional[int]] = {}
        self._routes: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}

    def __contains__(self, node: int) -> bool:
        return node in self._node_set

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    def _rank(self, node: int, key: int) -> Tuple[int, int]:
        """Total order used for ownership: circular distance, then id."""
        return self._overlay.ring_distance(self._overlay.ids[node], key), node

    def owner(self, key: int) -> int:
        """The live node whose id is numerically closest to ``key``."""
        ids = self._ring_ids
        lo = int(np.searchsorted(ids, key))
        candidates = {
            self._ring_nodes[(lo - 1) % len(ids)],
            self._ring_nodes[lo % len(ids)],
        }
        return min(candidates, key=lambda n: self._rank(n, key))

    def leafset(self, node: int) -> Tuple[int, ...]:
        """The ``leaf_span`` nearest ring neighbours on each side."""
        cached = self._leafsets.get(node)
        if cached is None:
            pos = self._ring_pos[node]
            size = len(self._ring_nodes)
            span = min(self._overlay.config.leaf_span, (size - 1) // 2 + 1)
            neighbours = []
            for offset in range(1, span + 1):
                neighbours.append(self._ring_nodes[(pos - offset) % size])
                neighbours.append(self._ring_nodes[(pos + offset) % size])
            cached = tuple(dict.fromkeys(n for n in neighbours if n != node))
            self._leafsets[node] = cached
        return cached

    def table_entry(self, node: int, row: int, digit: int) -> Optional[int]:
        """Routing-table slot: shares ``row`` digits with ``node``, next
        digit equals ``digit``; the underlay-closest eligible node wins."""
        slot = (node, row, digit)
        if slot in self._table:
            return self._table[slot]
        overlay = self._overlay
        node_id = int(overlay.ids[node])
        best: Optional[int] = None
        best_rank: Optional[Tuple[float, int]] = None
        for other in self._ring_nodes:
            if other == node:
                continue
            other_id = int(overlay.ids[other])
            if overlay.common_digits(node_id, other_id) != row:
                continue
            if overlay.digit(other_id, row) != digit:
                continue
            rank = (overlay.routing.distance(node, other), other)
            if best_rank is None or rank < best_rank:
                best, best_rank = other, rank
        self._table[slot] = best
        return best

    # ------------------------------------------------------------------
    def route(self, source: int, key: int) -> Tuple[int, Tuple[int, ...]]:
        """Greedy prefix route from ``source`` towards ``key``.

        Returns ``(final_node, hops)`` where ``hops`` is the node
        sequence *after* the source.  The final node is the universe's
        :meth:`owner` of the key; each hop strictly improves the
        ``(ring distance, node id)`` rank, so the walk terminates.
        """
        cached = self._routes.get((source, key))
        if cached is not None:
            return cached
        overlay = self._overlay
        hops: List[int] = []
        current = source
        while True:
            current_rank = self._rank(current, key)
            candidates = list(self.leafset(current))
            row = overlay.common_digits(int(overlay.ids[current]), key)
            if row < overlay.config.n_digits:
                entry = self.table_entry(
                    current, row, overlay.digit(key, row)
                )
                if entry is not None:
                    candidates.append(entry)
            if not candidates:
                break
            best = min(candidates, key=lambda n: self._rank(n, key))
            if self._rank(best, key) >= current_rank:
                break
            hops.append(best)
            current = best
        result = (current, tuple(hops))
        self._routes[(source, key)] = result
        overlay.note_route(len(hops))
        return result

    def route_cost(self, source: int, key: int) -> float:
        """Underlay cost of the overlay route: per-hop shortest paths."""
        routing = self._overlay.routing
        total = 0.0
        current = source
        for hop in self.route(source, key)[1]:
            total += routing.distance(current, hop)
            current = hop
        return total


class PastryOverlay:
    """Seeded id assignment + per-component routing state."""

    def __init__(
        self, routing: RoutingTables, config: Optional[OverlayConfig] = None
    ) -> None:
        self.routing = routing
        self.config = config or OverlayConfig()
        n = routing.graph.n_nodes
        if self.config.ring_size < n:
            raise ValueError(
                f"ring of 2^{self.config.id_bits} ids cannot hold {n} nodes"
            )
        self.ids = self._proximity_ids(n)
        self._version: Optional[int] = None
        self._live: frozenset = frozenset()
        self._universes: Dict[int, OverlayUniverse] = {}
        self.sync()

    # ------------------------------------------------------------------
    # id assignment
    # ------------------------------------------------------------------
    def _proximity_ids(self, n: int) -> np.ndarray:
        """Locality-preserving ids: a nearest-neighbour tour over the
        distance matrix, spread evenly around the ring.

        Consecutive tour positions are underlay-near, so numerically
        adjacent ids (and therefore shared id prefixes) correspond to
        short underlay paths — the lever that keeps rendezvous-tree
        edges cheap under subgrouping.  Unreachable pairs (the matrix
        can hold ``inf`` under active faults) are pushed to the end of
        the tour by a large finite penalty; the tour stays total and
        deterministic either way.
        """
        matrix = np.array(self.routing.distance_matrix(), dtype=np.float64)
        finite = matrix[np.isfinite(matrix)]
        penalty = (float(finite.max()) + 1.0) * (n + 1) if finite.size else 1.0
        matrix[~np.isfinite(matrix)] = penalty
        start = _digest(self.config.seed, "tour") % n
        visited = np.zeros(n, dtype=bool)
        tour = [start]
        visited[start] = True
        for _ in range(n - 1):
            row = matrix[tour[-1]].copy()
            row[visited] = np.inf
            tour.append(int(np.argmin(row)))  # ties: lowest node id
            visited[tour[-1]] = True
        ring = self.config.ring_size
        spacing = ring // n
        offset = _digest(self.config.seed, "offset") % spacing
        ids = np.zeros(n, dtype=np.int64)
        for position, node in enumerate(tour):
            ids[node] = offset + position * spacing
        return ids

    # ------------------------------------------------------------------
    # digit helpers
    # ------------------------------------------------------------------
    def digit(self, id_: int, index: int) -> int:
        """Digit ``index`` (0 = most significant) of an id."""
        config = self.config
        shift = config.id_bits - (index + 1) * config.digit_bits
        return (id_ >> shift) & ((1 << config.digit_bits) - 1)

    def common_digits(self, a: int, b: int) -> int:
        """Length of the shared digit prefix of two ids."""
        count = 0
        for index in range(self.config.n_digits):
            if self.digit(a, index) != self.digit(b, index):
                break
            count += 1
        return count

    def ring_distance(self, a: int, b: int) -> int:
        """Circular distance between two ring positions."""
        d = abs(int(a) - int(b))
        return min(d, self.config.ring_size - d)

    def subgroup_prefix(self, id_: int) -> int:
        """The id's top ``subgroup_digits`` digits (its subgroup domain)."""
        config = self.config
        shift = config.id_bits - config.subgroup_digits * config.digit_bits
        return id_ >> shift

    def subgroup_key(self, key: int, prefix: int) -> int:
        """The group key relocated into a subgroup's id domain."""
        config = self.config
        shift = config.id_bits - config.subgroup_digits * config.digit_bits
        return (prefix << shift) | (key & ((1 << shift) - 1))

    def group_key(self, nodes: np.ndarray) -> int:
        """Deterministic rendezvous key of a multicast member set."""
        digest = hashlib.blake2b(digest_size=8)
        digest.update(str(self.config.seed).encode("utf-8"))
        digest.update(np.ascontiguousarray(nodes, dtype=np.int64).tobytes())
        value = int.from_bytes(digest.digest(), "big")
        return value % self.config.ring_size

    # ------------------------------------------------------------------
    # liveness and universes
    # ------------------------------------------------------------------
    def sync(self) -> bool:
        """Refresh live membership against the topology version.

        Returns True when the topology moved since the last sync.  Each
        node that left or rejoined the ring makes its live ring
        neighbours patch their leaf sets; those patches are counted as
        ``overlay_leafset_repairs_total`` — the overlay's analogue of a
        shortest-path-tree recompute.
        """
        version = self.routing.topology_version
        if version == self._version:
            return False
        n = self.routing.graph.n_nodes
        live = frozenset(range(n)) - self.routing.failed_nodes
        if self._version is not None:
            changed = len(live ^ self._live)
            if changed:
                span = min(2 * self.config.leaf_span, max(len(live) - 1, 0))
                get_registry().counter(
                    "overlay_leafset_repairs_total",
                    "leaf-set slots patched after ring membership changes",
                ).inc(changed * span)
        self._live = live
        self._version = version
        self._universes.clear()
        get_registry().gauge(
            "overlay_nodes", "live nodes currently on the overlay ring"
        ).set(len(live))
        return True

    def universe_for(self, source: int) -> OverlayUniverse:
        """The routable component containing ``source`` (cached)."""
        self.sync()
        universe = self._universes.get(source)
        if universe is not None:
            return universe
        dist, _ = self.routing.shortest_paths(source).arrays()
        component = tuple(
            node
            for node in range(len(dist))
            if (node == source or node in self._live)
            and not math.isinf(dist[node])
        )
        universe = OverlayUniverse(self, component)
        for node in component:
            self._universes[node] = universe
        return universe

    # ------------------------------------------------------------------
    def note_route(self, hops: int) -> None:
        registry = get_registry()
        registry.counter(
            "overlay_routes_total", "greedy prefix routes resolved"
        ).inc()
        registry.counter(
            "overlay_route_hops_total", "overlay hops taken by routes"
        ).inc(hops)
