"""Grid cells, membership vectors and hyper-cells (section 4.1).

The grid-based clustering framework overlays a regular grid on the event
space and associates with every cell ``a`` its *subscriber membership
vector* ``s(a)``: bit ``i`` is set when some subscription rectangle of
subscriber ``i`` overlaps the cell.  Cells with identical membership
vectors can be combined at zero expected waste; the implementation merges
them into *hyper-cells*.  Hyper-cells are then ranked by the popularity
rating ``r(a) = p_p(a) * sum_i s(a)_i`` and only the most popular ones are
fed to the clustering algorithm (the rest fall back to unicast).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import EventSpace
from ..kernels import PackedBits, pack_rows, popcount_rows
from ..obs import get_tracer
from ..workload import SubscriptionSet

__all__ = [
    "CellSet",
    "build_membership_matrix",
    "build_cell_set",
    "cell_set_from_membership",
]


def build_membership_matrix(
    space: EventSpace, subscriptions: SubscriptionSet
) -> np.ndarray:
    """Dense membership matrix over all grid cells.

    Returns a boolean array of shape ``(space.n_cells, n_subscribers)``
    where entry ``(c, i)`` is ``s(c)_i`` from equation (1) of the paper.
    Because every subscription rectangle overlaps a *contiguous block* of
    cells in each dimension, the matrix is filled with one numpy block
    assignment per subscription.

    Subscription sources that are not rectangle-based (the predicate
    sets of :mod:`repro.workload.predicates`) provide their own
    ``membership_matrix`` rasterisation, which takes precedence.
    """
    own = getattr(subscriptions, "membership_matrix", None)
    if own is not None:
        return own(space)
    n_subs = subscriptions.n_subscribers
    shaped = np.zeros(space.shape + (n_subs,), dtype=bool)
    for sub in subscriptions.subscriptions:
        try:
            slices = space.cell_slices(sub.rectangle)
        except ValueError:
            continue  # rectangle entirely outside the grid: matches nothing
        shaped[slices + (sub.subscriber,)] = True
    return shaped.reshape(space.n_cells, n_subs)


@dataclass
class CellSet:
    """Hyper-cells selected for clustering.

    Attributes
    ----------
    space:
        The event space the grid lives in.
    membership:
        ``(m, n_subscribers)`` boolean matrix; row ``h`` is the feature
        vector of hyper-cell ``h``.
    probs:
        ``(m,)`` publication probability ``p_p`` of each hyper-cell (the
        sum of its member cells' probabilities).
    cell_ids:
        Flat grid-cell indices belonging to each hyper-cell.
    hypercell_of_cell:
        ``(space.n_cells,)`` int32 array mapping a flat grid cell to its
        hyper-cell, or ``-1`` for cells that were dropped (empty
        membership or below the popularity cut).
    weights:
        Optional ``(n_subscribers,)`` int64 column weights.  The
        aggregation layer fits on columns that stand for several
        identical subscriptions each; with weights set, ``sizes`` (and
        hence ``popularity``) count the subscriptions behind each
        column, so aggregate-level fits see exactly the subscriber-level
        values.  ``None`` (the default) means every column counts once.
    """

    space: EventSpace
    membership: np.ndarray
    probs: np.ndarray
    cell_ids: List[np.ndarray]
    hypercell_of_cell: np.ndarray
    weights: Optional[np.ndarray] = None
    #: lazily built packed-bitset mirror of ``membership`` (see
    #: :mod:`repro.kernels`); built once and shared by every fit
    _packed: Optional[PackedBits] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.membership.ndim != 2:
            raise ValueError("membership must be a 2-d matrix")
        if len(self.probs) != len(self.membership):
            raise ValueError("probs / membership length mismatch")
        if len(self.cell_ids) != len(self.membership):
            raise ValueError("cell_ids / membership length mismatch")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.int64)
            if self.weights.shape != (self.membership.shape[1],):
                raise ValueError("weights must have one entry per column")

    def __len__(self) -> int:
        return len(self.membership)

    @property
    def n_subscribers(self) -> int:
        return self.membership.shape[1]

    @property
    def packed(self) -> PackedBits:
        """Packed uint64 view of ``membership``, built once per cell set.

        The clustering hot paths (pairwise merging, waste evaluation)
        run on this instead of the boolean matrix; subsets propagate it
        by row selection so repeated fits never re-pack.
        """
        if self._packed is None:
            self._packed = pack_rows(self.membership)
        return self._packed

    @property
    def sizes(self) -> np.ndarray:
        """Number of interested subscribers per hyper-cell (weighted
        columns count their multiplicity)."""
        if self.weights is not None:
            return self.membership.astype(np.int64) @ self.weights
        return self.membership.sum(axis=1)

    @property
    def popularity(self) -> np.ndarray:
        """Popularity rating ``r(a) = p_p(a) * |s(a)|`` per hyper-cell."""
        return self.probs * self.sizes

    def subscribers_of(self, hypercell: int) -> np.ndarray:
        """Subscriber ids interested in a hyper-cell."""
        return np.nonzero(self.membership[hypercell])[0]

    def top_by_popularity(self, n: int) -> "CellSet":
        """A new :class:`CellSet` keeping only the ``n`` most popular."""
        if n >= len(self):
            return self
        order = np.argsort(-self.popularity, kind="stable")[:n]
        return self._subset(order)

    def _subset(self, order: np.ndarray) -> "CellSet":
        mapping = np.full(self.space.n_cells, -1, dtype=np.int32)
        cell_ids = []
        for new_idx, old_idx in enumerate(order):
            ids = self.cell_ids[old_idx]
            cell_ids.append(ids)
            mapping[ids] = new_idx
        subset = CellSet(
            space=self.space,
            membership=self.membership[order],
            probs=self.probs[order],
            cell_ids=cell_ids,
            hypercell_of_cell=mapping,
            weights=self.weights,
        )
        if self._packed is not None:
            subset._packed = self._packed.take(order)
        return subset


def build_cell_set(
    space: EventSpace,
    subscriptions: SubscriptionSet,
    cell_pmf: np.ndarray,
    max_cells: Optional[int] = None,
) -> CellSet:
    """Run the preprocessing stage of the grid-based framework.

    1. Build the membership matrix over the full grid.
    2. Drop cells with no interested subscribers (nothing to deliver).
    3. Merge cells with identical membership vectors into hyper-cells,
       accumulating their publication probabilities.
    4. Keep at most ``max_cells`` hyper-cells, the most popular by
       ``r(a) = p_p(a)·|s(a)|``.
    """
    cell_pmf = np.asarray(cell_pmf, dtype=np.float64)
    if cell_pmf.shape != (space.n_cells,):
        raise ValueError(
            f"cell_pmf must have one entry per grid cell "
            f"({space.n_cells}), got {cell_pmf.shape}"
        )
    with get_tracer().span(
        "grid.build_cell_set",
        n_grid_cells=space.n_cells,
        max_cells=max_cells,
    ) as span:
        cells = _build_cell_set(space, subscriptions, cell_pmf, max_cells)
        span.set("n_hypercells", len(cells))
    return cells


def _build_cell_set(
    space: EventSpace,
    subscriptions: SubscriptionSet,
    cell_pmf: np.ndarray,
    max_cells: Optional[int],
) -> CellSet:
    membership = build_membership_matrix(space, subscriptions)
    return cell_set_from_membership(space, membership, cell_pmf, max_cells)


def cell_set_from_membership(
    space: EventSpace,
    membership: np.ndarray,
    cell_pmf: np.ndarray,
    max_cells: Optional[int] = None,
    weights: Optional[np.ndarray] = None,
) -> CellSet:
    """Steps 2-4 of :func:`build_cell_set` on a prebuilt membership matrix.

    This is the delta-update entry point of the online runtime: a caller
    that maintains the dense ``(n_cells, n_subscribers)`` matrix
    incrementally across subscription churn (one column flip per
    join/leave) re-derives hyper-cells from it directly, skipping the
    per-subscription rasterisation pass of
    :func:`build_membership_matrix`.

    Hyper-cells come out in the lexicographic order of their bit-packed
    rows.  The popularity cut to ``max_cells`` happens before the
    per-cell lists are built, so only the kept hyper-cells get a
    ``cell_ids`` entry and a ``hypercell_of_cell`` slot; the result
    equals ``top_by_popularity(max_cells)`` of the uncut set.
    """
    if membership.shape[0] != space.n_cells:
        raise ValueError("membership must have one row per grid cell")
    if max_cells is not None and max_cells < 1:
        raise ValueError("max_cells must be at least 1")
    packed = np.packbits(membership, axis=1)
    nonempty = np.flatnonzero(packed.any(axis=1))
    if len(nonempty) == 0:
        raise ValueError("no grid cell is covered by any subscription")

    # merge identical membership rows into hyper-cells
    words = _big_endian_words(packed[nonempty])
    first_idx, hyper = _group_equal_rows(words)
    n_hyper = len(first_idx)
    first_cells = nonempty[first_idx]
    probs = np.bincount(hyper, weights=cell_pmf[nonempty], minlength=n_hyper)

    # cut to the most popular first (CellSet.popularity, stable ties), so
    # only the kept hyper-cells get rows, cell lists and map entries
    if max_cells is not None and max_cells < n_hyper:
        if weights is not None:
            sizes = membership[first_cells].astype(np.int64) @ weights
        else:
            sizes = popcount_rows(words[first_idx])
        keep = np.argsort(-(probs * sizes), kind="stable")[:max_cells]
        first_cells, probs = first_cells[keep], probs[keep]
        new_of_old = np.full(n_hyper, -1, dtype=np.int64)
        new_of_old[keep] = np.arange(max_cells)
        hyper = new_of_old[hyper]
        kept = hyper >= 0
        hyper, nonempty = hyper[kept], nonempty[kept]

    order = np.argsort(hyper, kind="stable")
    boundaries = np.flatnonzero(np.diff(hyper[order])) + 1
    mapping = np.full(space.n_cells, -1, dtype=np.int32)
    mapping[nonempty] = hyper
    return CellSet(
        space=space,
        membership=membership[first_cells],
        probs=probs,
        cell_ids=np.split(nonempty[order], boundaries),
        hypercell_of_cell=mapping,
        weights=weights,
    )


def _big_endian_words(packed: np.ndarray) -> np.ndarray:
    """``uint8`` rows zero-padded to whole 8-byte words and read as
    big-endian ``uint64``, so comparing words from the first one on is
    comparing bytes."""
    n_rows, n_bytes = packed.shape
    padded = np.zeros((n_rows, -(-n_bytes // 8) * 8), dtype=np.uint8)
    padded[:, :n_bytes] = packed
    return padded.view(">u8")


def _group_equal_rows(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group equal rows of a :func:`_big_endian_words` matrix:
    ``np.unique(packed, axis=0, return_index=True,
    return_inverse=True)`` of the packed bytes without the unique rows
    themselves.

    Word order is byte order, so one stable ``lexsort`` over the words
    yields the same group order and the same first occurrences as
    ``np.unique``.  Returns ``(first_idx, inverse)``.
    """
    n_rows = len(words)
    # lexsort's primary key is its last one
    order = np.lexsort(words.T[::-1])
    sorted_words = words[order]
    starts = np.ones(n_rows, dtype=bool)
    starts[1:] = (sorted_words[1:] != sorted_words[:-1]).any(axis=1)
    inverse = np.empty(n_rows, dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse
