"""Subscription workload models.

A subscriber sits at a network node and expresses interest as an aligned
rectangle of the event space.  The paper uses two generators:

* **Section 3 (preliminary analysis)** — 4 attributes.  The first is the
  regional attribute: with probability equal to the *degree of
  regionalism* the subscription pins it to the subscriber's own stub,
  otherwise it is a wildcard.  The other three attributes follow either
  the *uniform* model (specified with probabilities 0.98, 0.98·0.78,
  0.98·0.78², interval ends drawn uniformly from 0..20) or the *gaussian*
  model (the q/mu/sigma table of section 3).
* **Section 5.1 (evaluation)** — {bst, name, quote, volume} stock
  subscriptions placed over the topology with a {40 %, 30 %, 30 %} split
  across the three transit blocks and Zipf-like laws across stubs and
  nodes; name intervals centred per transit block (means 3, 10, 17 with
  sigma 4) with Zipf-distributed lengths; quote/volume intervals from the
  parametric distribution with the table parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import EventSpace, Interval, Rectangle
from ..kernels import get_backend
from ..network import Topology
from .distributions import IntervalDistribution, ParetoLength, ZipfLike
from .spaces import evaluation_space, preliminary_space

__all__ = [
    "Subscription",
    "SubscriptionSet",
    "as_points",
    "join_rectangle",
    "stab_run",
    "PreliminarySubscriptionModel",
    "EvaluationSubscriptionModel",
]


@dataclass(frozen=True)
class Subscription:
    """One subscription rectangle owned by a subscriber at a node."""

    subscriber: int
    node: int
    rectangle: Rectangle


class SubscriptionSet:
    """The totality of subscriptions, with vectorised matching support."""

    def __init__(
        self,
        space: EventSpace,
        subscriptions: Sequence[Subscription],
    ) -> None:
        if not subscriptions:
            raise ValueError("subscription set must not be empty")
        self.space = space
        self._subscriptions: List[Subscription] = list(subscriptions)
        self._subscriptions_tuple: Optional[Tuple[Subscription, ...]] = None
        self.n_subscribers = 1 + max(s.subscriber for s in subscriptions)
        for sub in subscriptions:
            if sub.rectangle.dimensions != space.n_dims:
                raise ValueError("subscription dimensionality mismatch")
            if sub.subscriber < 0:
                raise ValueError("subscriber ids must be non-negative")

        k = len(self._subscriptions)
        n = space.n_dims
        self._los = np.empty((k, n), dtype=np.float64)
        self._his = np.empty((k, n), dtype=np.float64)
        for i, sub in enumerate(self._subscriptions):
            for d, side in enumerate(sub.rectangle.sides):
                self._los[i, d] = side.lo
                self._his[i, d] = side.hi
        self._owners = np.array(
            [s.subscriber for s in self._subscriptions], dtype=np.int64
        )
        node_of = np.full(self.n_subscribers, -1, dtype=np.int64)
        for sub in self._subscriptions:
            if node_of[sub.subscriber] not in (-1, sub.node):
                raise ValueError(
                    f"subscriber {sub.subscriber} appears at two nodes"
                )
            node_of[sub.subscriber] = sub.node
        if np.any(node_of < 0):
            raise ValueError("every subscriber id up to the max must be used")
        self._node_of = node_of
        # ---- churn support (online runtime) --------------------------
        # live flags per subscriber id; rows of departed subscribers are
        # blanked to never-matching bounds so ids stay stable between
        # refits and every index built on them keeps working
        self._alive = np.ones(self.n_subscribers, dtype=bool)
        self._n_alive = self.n_subscribers
        # joins append into capacity buffers that double when full; the
        # arrays above are the live ``[:n]`` views of them
        self._row_bufs = (self._los, self._his, self._owners)
        self._id_bufs = (self._node_of, self._alive)

    _VIEWS = ("_los", "_his", "_owners", "_node_of", "_alive")

    def _slice_views(self) -> None:
        """Point the live arrays at the filled part of the buffers."""
        rows = len(self._subscriptions)
        self._los, self._his, self._owners = (
            buffer[:rows] for buffer in self._row_bufs
        )
        self._node_of, self._alive = (
            buffer[:self.n_subscribers] for buffer in self._id_bufs
        )

    def __getstate__(self):
        # a pickled view would come back as a copy, cut off from its
        # buffer; the views are re-sliced on load instead
        state = self.__dict__.copy()
        for name in self._VIEWS:
            del state[name]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._slice_views()

    # ------------------------------------------------------------------
    # incremental churn: joins append, leaves deactivate in place
    # ------------------------------------------------------------------
    @property
    def n_active_subscribers(self) -> int:
        """Subscribers currently live (``n_subscribers`` minus leaves)."""
        return self._n_alive

    def is_active(self, subscriber: int) -> bool:
        return bool(self._alive[subscriber])

    @property
    def subscriptions(self) -> Tuple[Subscription, ...]:
        """Every subscription row, departed ones included, in row order
        (a tuple built once per change of the set)."""
        if self._subscriptions_tuple is None:
            self._subscriptions_tuple = tuple(self._subscriptions)
        return self._subscriptions_tuple

    def add(self, node: int, rectangle: Rectangle) -> int:
        """Append one new subscriber with a single rectangle; returns
        its id (ids are never reused within a set's lifetime).

        The bound matrices gain the new row, so the subscription
        matches events immediately — no rebuild of the set is needed.
        Rows go into capacity buffers that double when full, so a
        stream of joins costs amortised O(1) copies.  A refit compacts
        departed ids away via :meth:`compact`.
        """
        if rectangle.dimensions != self.space.n_dims:
            raise ValueError("subscription dimensionality mismatch")
        if node < 0:
            raise ValueError("node must be non-negative")
        subscriber = self.n_subscribers
        row = len(self._subscriptions)
        los, his, owners = self._row_bufs = _room_for(self._row_bufs, row)
        node_of, alive = self._id_bufs = _room_for(self._id_bufs, subscriber)
        for d, side in enumerate(rectangle.sides):
            los[row, d] = side.lo
            his[row, d] = side.hi
        owners[row] = subscriber
        node_of[subscriber] = node
        alive[subscriber] = True
        self._subscriptions.append(Subscription(subscriber, node, rectangle))
        self._subscriptions_tuple = None
        self.n_subscribers += 1
        self._n_alive += 1
        self._slice_views()
        return subscriber

    def deactivate(self, subscriber: int) -> None:
        """Process a leave: the subscriber's rows stop matching anything.

        The id and its node mapping are kept (group membership vectors
        and delivery-plan indices built on the old width stay valid);
        only the rectangle bounds are blanked so no event ever matches.
        """
        if not 0 <= subscriber < self.n_subscribers:
            raise KeyError(f"unknown subscriber {subscriber}")
        if not self._alive[subscriber]:
            raise KeyError(f"subscriber {subscriber} already departed")
        rows = np.nonzero(self._owners == subscriber)[0]
        self._los[rows] = np.inf
        self._his[rows] = -np.inf
        self._alive[subscriber] = False
        self._n_alive -= 1

    def compact(self) -> Tuple["SubscriptionSet", np.ndarray]:
        """A fresh set with dense 0..n-1 ids, plus the old→new id map.

        Departed subscribers map to ``-1``.  This is what a full refit
        (and persistence) operates on after interleaved join/leave churn.
        """
        mapping = np.full(self.n_subscribers, -1, dtype=np.int64)
        mapping[self._alive] = np.arange(self._n_alive, dtype=np.int64)
        compacted = [
            Subscription(
                int(mapping[s.subscriber]), s.node, s.rectangle
            )
            for s in self._subscriptions
            if self._alive[s.subscriber]
        ]
        return SubscriptionSet(self.space, compacted), mapping

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._subscriptions)

    @property
    def subscriber_nodes(self) -> np.ndarray:
        """Array mapping subscriber id -> network node."""
        return self._node_of

    @property
    def row_owners(self) -> np.ndarray:
        """Subscriber id of every subscription row."""
        return self._owners

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(los, his)`` matrices of the subscription rectangles."""
        return self._los, self._his

    def rectangles(self) -> List[Rectangle]:
        return [s.rectangle for s in self._subscriptions]

    # ------------------------------------------------------------------
    def matching_subscriptions(self, point: Sequence[float]) -> np.ndarray:
        """Indices of subscriptions whose rectangle contains the point."""
        x = np.asarray(point, dtype=np.float64)
        if x.shape != (self.space.n_dims,):
            raise ValueError("point dimensionality mismatch")
        mask = np.all((self._los < x) & (x <= self._his), axis=1)
        return np.nonzero(mask)[0]

    def interested_subscribers(self, point: Sequence[float]) -> np.ndarray:
        """Subscriber ids interested in the event (sorted, unique)."""
        return np.unique(self._owners[self.matching_subscriptions(point)])

    def nodes_of_subscribers(self, subscribers: Sequence[int]) -> np.ndarray:
        """Unique network nodes of the given subscriber ids."""
        if len(subscribers) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self._node_of[np.asarray(subscribers, dtype=np.int64)])

    def match_run(
        self, points: Sequence[Sequence[float]], grid: Optional[tuple] = None
    ):
        """The active kernel backend's one-call matching of a run of
        points against these rows, or ``None`` when the backend has no
        such kernel (see :meth:`repro.kernels.native.NativeBackend.
        match_run` for ``grid`` and the result)."""
        return get_backend().match_run(
            as_points(points, self.space.n_dims), self._los, self._his,
            self._owners, grid,
        )

    def batch_interested_subscribers(
        self, points: Sequence[Sequence[float]]
    ) -> List[np.ndarray]:
        """Interested subscribers for many events in one pass: the
        :func:`stab_run` of the points against the subscription rows.
        Equivalent to calling :meth:`interested_subscribers` per point.
        """
        return stab_run(
            as_points(points, self.space.n_dims),
            self._los, self._his, self._owners, self.n_subscribers,
        )


def as_points(points: Sequence[Sequence[float]], n_dims: int) -> np.ndarray:
    """``points`` as an ``(E, n_dims)`` float64 array, checked."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, n_dims)
    if pts.ndim != 2 or pts.shape[1] != n_dims:
        raise ValueError("points must be an (E, n_dims) array-like")
    return pts


def stab_run(
    points: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    owners: np.ndarray,
    n_owners: int,
) -> List[np.ndarray]:
    """The point test of section 4.6 for a run of points: per point of
    the ``(E, N)`` array, the sorted unique owners (ids below
    ``n_owners``) of the ``(k, N)`` bound rows with ``lo < x <= hi``
    (:func:`stab_flat`, cut per point)."""
    ids, counts = stab_flat(points, los, his, owners, n_owners)
    if len(counts) == 0:
        return []
    return np.split(ids, np.cumsum(counts)[:-1])


def stab_flat(
    points: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    owners: np.ndarray,
    n_owners: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`stab_run`'s owners one point after another, and how many
    each point has.

    The native backend scans the rows once per point in one
    ``match_run`` call and returns its id buffer.  The numpy reference
    broadcasts the ``(E, 1, N)`` points against the bound rows and
    lists every (point, row) hit in point order with one
    ``np.nonzero``.  When the owners increase along the rows they are
    already sorted and unique per point; otherwise one ``np.unique``
    over ``point * n_owners + owner`` sorts and deduplicates them.
    """
    if len(points) == 0:
        return np.empty(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    run = get_backend().match_run(points, los, his, owners)
    if run is not None:
        bounds, _, ids, _ = run
        return ids, bounds[1::2] - bounds[0:-1:2]
    # (E, k): row j contains point e
    hits = np.all(
        (los[None, :, :] < points[:, None, :])
        & (points[:, None, :] <= his[None, :, :]),
        axis=2,
    )
    events, rows = np.nonzero(hits)
    found = owners[rows]
    if len(found) > 1 and not (np.diff(owners) > 0).all():
        keys = np.unique(events * n_owners + found)
        events, found = np.divmod(keys, n_owners)
    return found, np.bincount(events, minlength=len(points))


def join_rectangle(space: EventSpace, rng: np.random.Generator) -> Rectangle:
    """A joining subscriber's rectangle: per dimension a lower end
    uniform in ``[lo - 1, hi - 1)`` and a length uniform in ``[1, (hi -
    lo) / 2 + 1)``, drawn dimension by dimension from ``rng``.  The
    chaos runner's joins and the runtime stream's joins both use it."""
    los, his = [], []
    for dim in space.dimensions:
        lo = float(rng.uniform(dim.lo - 1, dim.hi - 1))
        los.append(lo)
        his.append(lo + float(rng.uniform(1.0, (dim.hi - dim.lo) / 2 + 1)))
    return Rectangle.from_bounds(los, his)


def _room_for(buffers: Tuple[np.ndarray, ...], index: int):
    """``buffers`` (equal first dimensions), or copies of them with
    doubled capacity when ``index`` lies past their end."""
    capacity = len(buffers[0])
    if index < capacity:
        return buffers
    capacity = max(index + 1, 2 * capacity)
    grown = []
    for buffer in buffers:
        new = np.empty((capacity,) + buffer.shape[1:], dtype=buffer.dtype)
        new[:len(buffer)] = buffer
        grown.append(new)
    return tuple(grown)


# ----------------------------------------------------------------------
# Section 3 model
# ----------------------------------------------------------------------
#: the gaussian variant's per-attribute parameters (section 3 table):
#: (wildcard, left-ended, right-ended, mu1, s1, mu2, s2, mu3, s3, mean len)
_GAUSSIAN_ROWS = (
    (0.10, 0.0, 0.0, 8, 2, 10, 2, 9, 6, 1.0),
    (0.15, 0.1, 0.1, 8, 1, 10, 1, 9, 2, 4.0),
    (0.35, 0.1, 0.1, 8, 1, 10, 1, 9, 2, 4.0),
)

#: probability that attribute i+1 is specified in the uniform variant
_UNIFORM_SPECIFIED = (0.98, 0.98 * 0.78, 0.98 * 0.78**2)


class PreliminarySubscriptionModel:
    """Subscription generator for the section 3 experiments."""

    def __init__(
        self,
        topology: Topology,
        variant: str = "uniform",
        regionalism: float = 0.4,
        space: Optional[EventSpace] = None,
    ) -> None:
        if variant not in ("uniform", "gaussian"):
            raise ValueError("variant must be 'uniform' or 'gaussian'")
        if not 0.0 <= regionalism <= 1.0:
            raise ValueError("degree of regionalism must be in [0, 1]")
        self.topology = topology
        self.variant = variant
        self.regionalism = regionalism
        self.space = space or preliminary_space(topology.n_stubs)
        self._gaussian_dists = tuple(
            IntervalDistribution(
                q0=row[0],
                q1=row[1],
                q2=row[2],
                mu1=row[3],
                sigma1=row[4],
                mu2=row[5],
                sigma2=row[6],
                mu3=row[7],
                sigma3=row[8],
                length=ParetoLength(scale=row[9], shape=1.0),
            )
            for row in _GAUSSIAN_ROWS
        )

    def generate(
        self, rng: np.random.Generator, n_subscriptions: int
    ) -> SubscriptionSet:
        """Generate subscriptions placed uniformly over stub nodes."""
        stub_nodes = self.topology.stub_nodes()
        subs: List[Subscription] = []
        for subscriber in range(n_subscriptions):
            node = int(rng.choice(stub_nodes))
            sides = [self._regional_side(node, rng)]
            for attr in range(3):
                sides.append(self._attribute_side(attr, rng))
            subs.append(
                Subscription(subscriber, node, Rectangle(tuple(sides)))
            )
        return SubscriptionSet(self.space, subs)

    # ------------------------------------------------------------------
    def _regional_side(self, node: int, rng: np.random.Generator) -> Interval:
        if rng.random() < self.regionalism:
            stub = self.topology.stub_of[node]
            return Interval.point(float(stub))
        return Interval.full()

    def _attribute_side(self, attr: int, rng: np.random.Generator) -> Interval:
        dim = self.space.dimensions[attr + 1]
        if self.variant == "uniform":
            if rng.random() >= _UNIFORM_SPECIFIED[attr]:
                return Interval.full()
            a, b = rng.integers(dim.lo, dim.hi + 1, size=2)
            lo, hi = (int(a), int(b)) if a <= b else (int(b), int(a))
            # the interval [lo, hi] on the lattice is (lo-1, hi] half-open
            return Interval.make(lo - 1.0, float(hi))
        return self._gaussian_dists[attr].sample(rng)


# ----------------------------------------------------------------------
# Section 5.1 model
# ----------------------------------------------------------------------
class EvaluationSubscriptionModel:
    """Subscription generator for the section 5.1 stock-market model."""

    #: probabilities of the bst field being Buy / Sell / Transaction
    BST_PROBS = (0.4, 0.4, 0.2)

    def __init__(
        self,
        topology: Topology,
        block_weights: Sequence[float] = (0.4, 0.3, 0.3),
        name_means: Sequence[float] = (3.0, 10.0, 17.0),
        name_sigma: float = 4.0,
        zipf_exponent: float = 1.0,
        space: Optional[EventSpace] = None,
    ) -> None:
        n_blocks = topology.n_transit_blocks
        if n_blocks < 1:
            raise ValueError("topology has no transit blocks")
        self.topology = topology
        self.space = space or evaluation_space()
        self.zipf_exponent = zipf_exponent
        self.name_sigma = name_sigma
        if len(block_weights) == n_blocks:
            weights = np.asarray(block_weights, dtype=np.float64)
        else:
            # adapt gracefully to topologies with a different block count
            weights = np.ones(n_blocks, dtype=np.float64)
        self.block_weights = weights / weights.sum()
        if len(name_means) == n_blocks:
            self.name_means = tuple(float(m) for m in name_means)
        else:
            name_dim = self.space.dimensions[1]
            self.name_means = tuple(
                name_dim.lo + (i + 1) * (name_dim.hi - name_dim.lo) / (n_blocks + 1)
                for i in range(n_blocks)
            )
        self._quote_dist = IntervalDistribution(
            q0=0.15, q1=0.1, q2=0.1,
            mu1=9, sigma1=1, mu2=9, sigma2=1, mu3=9, sigma3=2,
            length=ParetoLength(scale=4.0, shape=1.0),
        )
        self._volume_dist = IntervalDistribution(
            q0=0.35, q1=0.1, q2=0.1,
            mu1=9, sigma1=1, mu2=9, sigma2=1, mu3=9, sigma3=2,
            length=ParetoLength(scale=4.0, shape=1.0),
        )

    # ------------------------------------------------------------------
    def generate(
        self, rng: np.random.Generator, n_subscriptions: int
    ) -> SubscriptionSet:
        """Generate subscriptions with the Zipf placement of section 5.1."""
        nodes = self._place_subscribers(rng, n_subscriptions)
        subs: List[Subscription] = []
        for subscriber, node in enumerate(nodes):
            block = self.topology.transit_block[node]
            rectangle = Rectangle(
                (
                    self._bst_side(rng),
                    self._name_side(block, rng),
                    self._quote_dist.sample(rng),
                    self._volume_dist.sample(rng),
                )
            )
            subs.append(Subscription(subscriber, node, rectangle))
        return SubscriptionSet(self.space, subs)

    # ------------------------------------------------------------------
    def _place_subscribers(
        self, rng: np.random.Generator, n_subscriptions: int
    ) -> List[int]:
        """Node of each subscription: blocks -> stubs (Zipf) -> nodes (Zipf)."""
        per_block = rng.multinomial(n_subscriptions, self.block_weights)
        nodes: List[int] = []
        for block, count in enumerate(per_block):
            stub_ids = self.topology.stubs_in_block(block)
            if not stub_ids:
                raise ValueError(f"transit block {block} has no stubs")
            stub_zipf = ZipfLike(len(stub_ids), self.zipf_exponent)
            # randomise which stub gets the heavy Zipf head
            order = rng.permutation(len(stub_ids))
            per_stub = stub_zipf.split(int(count), rng)
            for rank, stub_count in enumerate(per_stub):
                stub = stub_ids[order[rank]]
                members = self.topology.stubs[stub]
                node_zipf = ZipfLike(len(members), self.zipf_exponent)
                node_order = rng.permutation(len(members))
                for node_rank in node_zipf.sample(rng, size=int(stub_count)):
                    nodes.append(members[node_order[node_rank]])
        rng.shuffle(nodes)
        return nodes

    def _bst_side(self, rng: np.random.Generator) -> Interval:
        value = int(rng.choice(3, p=self.BST_PROBS))
        return Interval.point(float(value))

    def _name_side(self, block: int, rng: np.random.Generator) -> Interval:
        dim = self.space.dimensions[1]
        center = rng.normal(self.name_means[block], self.name_sigma)
        length_zipf = ZipfLike(dim.n_cells, self.zipf_exponent)
        length = 1.0 + float(length_zipf.sample(rng))
        return Interval.make(center - 0.5 * length, center + 0.5 * length)
