"""The No-Loss clustering algorithm (section 4.5).

Grid-based algorithms can waste messages: subscription rectangles are not
aligned to cell borders, so a multicast group formed from cells may
contain subscribers not interested in a particular event.  The No-Loss
algorithm instead forms groups from regions *aligned to the borders of
the interest rectangles themselves* — intersections of subscription
rectangles — so every subscriber in a matched group is guaranteed to be
interested.

Figure 4 of the paper is unreadable in the available scan; the algorithm
is reconstructed from the prose (see DESIGN.md): starting from the
subscription rectangles, repeatedly generate pairwise intersections,
score every candidate region ``s`` by its weight ``w(s) = p_p(s)·|u(s)|``
— the publication mass of the region times the number of subscribers
whose interest contains the *whole* region — and keep the ``n`` heaviest
candidates each iteration.  After the final iteration the ``K`` heaviest
regions become the multicast groups (group ``s`` consists of the
subscribers ``u(s)``), matching the run parameters reported in section 5
("5000 rectangles kept after intersection and 8 iterations").

Scoring is batched: the member sets ``u(s)`` of a block of candidates
come from broadcast containment compares and one boolean scatter, and
the masses ``p_p(s)`` of all candidates from one
:meth:`LatticeBlockMass.masses` call that adds the inclusion-exclusion
corners in the same order as scoring one region at a time, so every
weight is the same float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import EventSpace, Rectangle
from ..kernels import get_backend
from ..obs import get_registry, get_tracer
from ..workload import SubscriptionSet

__all__ = ["NoLossResult", "NoLossAlgorithm", "LatticeBlockMass"]


class LatticeBlockMass:
    """O(1) publication mass of axis-aligned blocks of the lattice.

    Precomputes the N-dimensional prefix-sum of the flat cell pmf; the
    mass of any half-open rectangle is then an inclusion-exclusion over
    ``2^N`` prefix values, gathered for a whole batch of rectangles at
    once.
    """

    def __init__(self, space: EventSpace, cell_pmf: np.ndarray) -> None:
        cell_pmf = np.asarray(cell_pmf, dtype=np.float64)
        if cell_pmf.shape != (space.n_cells,):
            raise ValueError("cell_pmf must cover every grid cell")
        self.space = space
        prefix = cell_pmf.reshape(space.shape).copy()
        for axis in range(prefix.ndim):
            np.cumsum(prefix, axis=axis, out=prefix)
        # pad with a zero hyper-plane at the origin of each axis so that
        # prefix[i0..] indexes "sum of cells < i" cleanly
        self._prefix = np.pad(prefix, [(1, 0)] * prefix.ndim)

    def masses(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Total pmf of the lattice cells wholly inside each rectangle
        ``(los[r], his[r]]`` of an ``(R, N)`` pair of bound matrices.

        No-loss regions must only count events *guaranteed* to interest
        every member, so a cell contributes only when the rectangle
        contains it entirely.  A side with ``hi <= lo`` is empty (the
        :meth:`Interval.make <repro.geometry.Interval.make>` rule), and
        a rectangle with an empty side, or a side holding no whole cell,
        has mass 0.
        """
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        dims = self.space.dimensions
        dim_lo = np.array([d.lo for d in dims], dtype=np.float64)
        n_cells = np.array([d.n_cells for d in dims], dtype=np.float64)
        # cell c covers (lo+c-1, lo+c]; it is inside (a, b] iff
        # a <= lo+c-1 and lo+c <= b
        first = np.maximum(np.ceil(los - dim_lo + 1.0 - 1e-9), 0.0)
        last = np.minimum(np.floor(his - dim_lo + 1e-9), n_cells - 1)
        empty = np.any((his <= los) | (last < first), axis=1)
        # clipped into the padded prefix array so that empty rows can
        # be gathered too (their mass is zeroed below)
        first = np.minimum(first, n_cells).astype(np.int64)
        stop = np.maximum(last + 1, 0).astype(np.int64)
        # inclusion-exclusion over the 2^N corners of the padded prefix
        # array, in mask order: the all-upper corner is positive and
        # each lower index flips the sign
        n = len(dims)
        total = np.zeros(len(los), dtype=np.float64)
        for mask in range(1 << n):
            idx = tuple(
                stop[:, d] if mask >> d & 1 else first[:, d]
                for d in range(n)
            )
            if (n - bin(mask).count("1")) % 2:
                total -= self._prefix[idx]
            else:
                total += self._prefix[idx]
        total[(total < 0.0) | empty] = 0.0
        return total


#: bound on each ``(block, subscriptions)`` boolean scratch matrix of
#: the numpy candidate scoring
_BLOCK_BYTES = 4 << 20


def _member_sets(
    los: np.ndarray,
    his: np.ndarray,
    sub_los: np.ndarray,
    sub_his: np.ndarray,
    owners: np.ndarray,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Per candidate ``(los[r], his[r]]``: the sorted unique ids of the
    subscribers owning a subscription that contains all of it, and
    their number.

    The native backend scans the subscription rows once per candidate
    (:meth:`repro.kernels.native.NativeBackend.containing_run`); numpy
    compares blocks of candidates against every subscription at once.
    """
    found = get_backend().containing_run(los, his, sub_los, sub_his, owners)
    if found is not None:
        bounds, ids = found
        counts = bounds[1::2] - bounds[:-1:2]
        starts = bounds.tolist()
        return counts, [
            ids[starts[2 * r]:starts[2 * r + 1]] for r in range(len(los))
        ]
    n_subscribers = int(owners.max()) + 1
    block = max(1, _BLOCK_BYTES // max(len(owners), n_subscribers))
    # one contiguous row of subscription bounds per dimension
    sub_los_t = np.ascontiguousarray(sub_los.T)
    sub_his_t = np.ascontiguousarray(sub_his.T)
    counts = np.empty(len(los), dtype=np.int64)
    members: List[np.ndarray] = []
    for start in range(0, len(los), block):
        stop = min(len(los), start + block)
        counts[start:stop], ids = _member_block(
            los[start:stop], his[start:stop],
            sub_los_t, sub_his_t, owners, n_subscribers,
        )
        members.extend(ids)
    return counts, members


def _member_block(
    los: np.ndarray,
    his: np.ndarray,
    sub_los_t: np.ndarray,
    sub_his_t: np.ndarray,
    owners: np.ndarray,
    n_subscribers: int,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """:func:`_member_sets` of one block of candidates in numpy;
    ``sub_los_t`` / ``sub_his_t`` are the ``(N, S)`` transposed
    subscription bounds."""
    n = len(los)
    inside = np.ones((n, sub_los_t.shape[1]), dtype=bool)
    scratch = np.empty_like(inside)
    # one broadcast compare per dimension and side, ANDed in place
    for d in range(los.shape[1]):
        np.less_equal(sub_los_t[d][None, :], los[:, d, None], out=scratch)
        inside &= scratch
        np.less_equal(his[:, d, None], sub_his_t[d][None, :], out=scratch)
        inside &= scratch
    rows, subs = np.nonzero(inside)
    interested = np.zeros((n, n_subscribers), dtype=bool)
    interested[rows, owners[subs]] = True
    rows, ids = np.nonzero(interested)
    counts = np.bincount(rows, minlength=n)
    return counts, np.split(ids, np.cumsum(counts)[:-1])


@dataclass
class NoLossResult:
    """Output of the No-Loss algorithm.

    ``los``/``his`` are ``(n, N)`` bound matrices of the retained regions
    in *decreasing weight order*; ``weights[r]`` is ``w(s_r)`` and
    ``members[r]`` the subscriber ids of ``u(s_r)``.

    Several regions may share the same subscriber set ``u(s)`` — they
    then map to the *same* multicast group, since a multicast group is a
    set of subscribers, not a region.  The paper's budget of ``K``
    multicast groups therefore limits the number of distinct member
    sets: the retained region list is the longest weight-ordered prefix
    whose regions span at most ``K`` distinct sets.  ``group_of[r]`` is
    the group index of region ``r`` and ``group_members[g]`` the
    subscriber composition of group ``g``.
    """

    space: EventSpace
    los: np.ndarray
    his: np.ndarray
    weights: np.ndarray
    members: List[np.ndarray]
    group_of: np.ndarray
    group_members: List[np.ndarray]

    def __post_init__(self) -> None:
        n = len(self.weights)
        if not (len(self.los) == len(self.his) == n == len(self.members)):
            raise ValueError("inconsistent result arrays")
        if len(self.group_of) != n:
            raise ValueError("group_of must map every region")

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def n_groups(self) -> int:
        """Number of distinct multicast groups."""
        return len(self.group_members)

    def rectangle(self, index: int) -> Rectangle:
        return Rectangle.from_bounds(self.los[index], self.his[index])

    def match(self, point: Sequence[float]) -> int:
        """Index of the heaviest region containing the point, or -1.

        Implements the selection rule of Figure 6: among the retained
        regions that contain the event, pick the one with the greatest
        density ``w``; regions are stored sorted by weight, so the first
        hit wins.
        """
        x = np.asarray(point, dtype=np.float64)
        mask = np.all((self.los < x) & (x <= self.his), axis=1)
        hits = np.nonzero(mask)[0]
        return int(hits[0]) if len(hits) else -1


class NoLossAlgorithm:
    """Iterative most-popular-intersection search."""

    name = "no-loss"

    def __init__(
        self,
        n_keep: int = 5000,
        iterations: int = 8,
        pair_budget: int = 20000,
    ) -> None:
        if n_keep < 1:
            raise ValueError("n_keep must be positive")
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        if pair_budget < 1:
            raise ValueError("pair_budget must be positive")
        self.n_keep = n_keep
        self.iterations = iterations
        self.pair_budget = pair_budget

    # ------------------------------------------------------------------
    def fit(
        self,
        subscriptions: SubscriptionSet,
        cell_pmf: np.ndarray,
        n_groups: int,
        rng: Optional[np.random.Generator] = None,
    ) -> NoLossResult:
        """Run the algorithm and return the weighted region list."""
        if n_groups < 1:
            raise ValueError("need at least one group")
        if rng is None:
            rng = np.random.default_rng()
        with get_tracer().span(
            "clustering.fit",
            algorithm="no-loss",
            n_groups=n_groups,
            n_keep=self.n_keep,
            iterations=self.iterations,
        ) as span:
            result = self._fit(subscriptions, cell_pmf, n_groups, rng)
            span.set("n_regions", len(result))
        registry = get_registry()
        registry.counter(
            "clustering_fit_total", "clustering fits performed"
        ).inc(algorithm="no-loss")
        registry.counter(
            "clustering_iterations_total",
            "refinement iterations across fits",
        ).inc(self.iterations, algorithm="no-loss")
        return result

    def _fit(
        self,
        subscriptions: SubscriptionSet,
        cell_pmf: np.ndarray,
        n_groups: int,
        rng: np.random.Generator,
    ) -> NoLossResult:
        space = subscriptions.space
        mass = LatticeBlockMass(space, cell_pmf)
        sub_los, sub_his = subscriptions.bounds()
        owners = np.array(
            [s.subscriber for s in subscriptions.subscriptions], dtype=np.int64
        )
        domain_los = np.array(
            [d.lo - 1.0 for d in space.dimensions], dtype=np.float64
        )
        domain_his = np.array(
            [float(d.hi) for d in space.dimensions], dtype=np.float64
        )

        # initial candidate set: the subscription rectangles clipped to
        # the lattice domain, de-duplicated
        los = np.maximum(sub_los, domain_los)
        his = np.minimum(sub_his, domain_his)
        los, his = self._dedupe(los, his)

        los, his, weights, members = self._score(
            los, his, sub_los, sub_his, owners, mass
        )
        for _ in range(self.iterations):
            new_los, new_his = self._intersections(los, his, rng)
            if len(new_los):
                los = np.concatenate([los, new_los])
                his = np.concatenate([his, new_his])
                los, his = self._dedupe(los, his)
                los, his, weights, members = self._score(
                    los, his, sub_los, sub_his, owners, mass
                )
            if len(los) > self.n_keep:
                los = los[: self.n_keep]
                his = his[: self.n_keep]
                weights = weights[: self.n_keep]
                members = members[: self.n_keep]

        return self._assemble(space, los, his, weights, members, n_groups)

    @staticmethod
    def _assemble(
        space: EventSpace,
        los: np.ndarray,
        his: np.ndarray,
        weights: np.ndarray,
        members: List[np.ndarray],
        n_groups: int,
    ) -> NoLossResult:
        """Select the ``n_groups`` heaviest distinct subscriber sets as
        multicast groups and keep every region mapping to one of them.

        Regions are scanned in decreasing weight order; the first
        ``n_groups`` distinct member sets become the groups.  Later
        regions whose member set is one of the selected groups remain
        usable by the matcher at no extra group cost (a multicast group
        is a subscriber set, not a region); regions with unselected sets
        are dropped."""
        group_index: Dict[bytes, int] = {}
        group_members: List[np.ndarray] = []
        group_of: List[int] = []
        kept: List[int] = []
        for r in range(len(weights)):
            key = members[r].astype(np.int64).tobytes()
            g = group_index.get(key)
            if g is None:
                if len(group_members) >= n_groups:
                    continue
                g = len(group_members)
                group_index[key] = g
                group_members.append(members[r])
            group_of.append(g)
            kept.append(r)
        kept_idx = np.asarray(kept, dtype=np.int64)
        return NoLossResult(
            space=space,
            los=los[kept_idx],
            his=his[kept_idx],
            weights=weights[kept_idx],
            members=[members[r] for r in kept],
            group_of=np.asarray(group_of, dtype=np.int64),
            group_members=group_members,
        )

    # ------------------------------------------------------------------
    def _intersections(
        self, los: np.ndarray, his: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pairwise intersections of the current candidates.

        All pairs when affordable, otherwise a random sample of
        ``pair_budget`` pairs — the algorithm only needs to *find* popular
        intersections, not enumerate them exhaustively.
        """
        n = len(los)
        if n < 2:
            return np.empty((0, los.shape[1])), np.empty((0, los.shape[1]))
        n_pairs = n * (n - 1) // 2
        if n_pairs <= self.pair_budget:
            ii, jj = np.triu_indices(n, k=1)
        else:
            ii = rng.integers(0, n, size=self.pair_budget)
            jj = rng.integers(0, n, size=self.pair_budget)
            valid = ii != jj
            ii, jj = ii[valid], jj[valid]
        new_los = np.maximum(los[ii], los[jj])
        new_his = np.minimum(his[ii], his[jj])
        nonempty = np.all(new_los < new_his, axis=1)
        return new_los[nonempty], new_his[nonempty]

    @staticmethod
    def _dedupe(
        los: np.ndarray, his: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # the first occurrence of each distinct rounded row, in row
        # order: np.unique(axis=0, return_index=True) sorts the rows as
        # structured records, several times slower than one stable
        # lexsort over the columns; both compare the floats by value
        stacked = np.round(np.concatenate([los, his], axis=1), 9)
        order = np.lexsort(stacked.T[::-1])
        ranked = stacked[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        keep = np.sort(order[first])
        return los[keep], his[keep]

    def _score(
        self,
        los: np.ndarray,
        his: np.ndarray,
        sub_los: np.ndarray,
        sub_his: np.ndarray,
        owners: np.ndarray,
        mass: LatticeBlockMass,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[np.ndarray]]:
        """Weight every candidate and keep the heaviest, sorted by weight.

        The member sets ``u(s)`` and the masses are each found for all
        candidates in one call.
        """
        sizes, members = _member_sets(los, his, sub_los, sub_his, owners)
        weights = mass.masses(los, his) * sizes
        order = np.argsort(-weights, kind="stable")
        positive = order[weights[order] > 0.0]
        if len(positive) == 0:
            raise ValueError(
                "no candidate region has positive weight; check that the "
                "publication pmf overlaps the subscriptions"
            )
        keep = positive[: self.n_keep]
        return (
            los[keep],
            his[keep],
            weights[keep],
            [members[i] for i in keep],
        )
