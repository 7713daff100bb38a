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
from typing import List, Optional, Tuple

import numpy as np

from ..geometry import EventSpace
from ..kernels import PackedBits, get_backend, pack_rows, popcount_rows
from ..obs import get_tracer
from ..workload import SubscriptionSet

__all__ = [
    "CellSet",
    "build_cell_set",
    "cell_set_from_membership",
    "pack_membership",
]


def pack_membership(
    space: EventSpace, subscriptions: SubscriptionSet
) -> np.ndarray:
    """Packed membership rows over all grid cells.

    Returns the ``(space.n_cells, ceil(n_subscribers / 8))`` uint8
    matrix whose row ``c`` is ``s(c)`` from equation (1) of the paper,
    in the bit order of ``np.packbits(axis=1)``.  Every subscription
    row overlaps a *contiguous box* of cells, one
    :meth:`EventSpace.cell_boxes` pass over the set's bounds finds all
    the boxes, and each box is one OR of its owner's column bit into a
    strided block of the packed bytes; no dense ``(n_cells,
    n_subscribers)`` matrix is ever built.  Empty, off-grid and
    departed rows cover nothing; padding bits stay zero.
    """
    los, his = subscriptions.bounds()
    starts, stops = space.cell_boxes(los, his)
    columns = subscriptions.row_owners
    n_bytes = -(-subscriptions.n_subscribers // 8)
    packed = get_backend().rasterise_boxes(
        starts, stops, columns, space.shape, n_bytes
    )
    if packed is not None:
        return packed
    packed = np.zeros((space.n_cells, n_bytes), dtype=np.uint8)
    shaped = packed.reshape(space.shape + (n_bytes,))
    covering = np.flatnonzero((stops > starts).all(axis=1))
    for row in covering.tolist():
        column = int(columns[row])
        box = tuple(map(slice, starts[row].tolist(), stops[row].tolist()))
        shaped[box + (column >> 3,)] |= 0x80 >> (column & 7)
    return packed


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
    """

    space: EventSpace
    membership: np.ndarray
    probs: np.ndarray
    cell_ids: List[np.ndarray]
    hypercell_of_cell: np.ndarray
    #: lazily built packed-bitset mirror of ``membership`` (see
    #: :mod:`repro.kernels`); built once and shared by every fit
    _packed: Optional[PackedBits] = field(
        default=None, init=False, repr=False, compare=False
    )
    _sizes: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.membership.ndim != 2:
            raise ValueError("membership must be a 2-d matrix")
        if len(self.probs) != len(self.membership):
            raise ValueError("probs / membership length mismatch")
        if len(self.cell_ids) != len(self.membership):
            raise ValueError("cell_ids / membership length mismatch")

    def __len__(self) -> int:
        return len(self.membership)

    @property
    def n_subscribers(self) -> int:
        return self.membership.shape[1]

    @property
    def packed(self) -> PackedBits:
        """Packed uint64 view of ``membership``, built once per cell set.

        The clustering hot paths (pairwise merging, waste evaluation)
        run on this instead of the boolean matrix, so repeated fits on
        one cell set (a broker's warm and cold refits) never re-pack.
        """
        if self._packed is None:
            self._packed = pack_rows(self.membership)
        return self._packed

    @property
    def sizes(self) -> np.ndarray:
        """Number of interested subscribers per hyper-cell (read-only
        int64): one popcount of :attr:`packed`, taken once."""
        if self._sizes is None:
            sizes = popcount_rows(self.packed.words)
            sizes.flags.writeable = False
            self._sizes = sizes
        return self._sizes

    @property
    def popularity(self) -> np.ndarray:
        """Popularity rating ``r(a) = p_p(a) * |s(a)|`` per hyper-cell."""
        return self.probs * self.sizes


def build_cell_set(
    space: EventSpace,
    subscriptions: SubscriptionSet,
    cell_pmf: np.ndarray,
    max_cells: Optional[int] = None,
) -> CellSet:
    """Run the preprocessing stage of the grid-based framework.

    1. Rasterise the packed membership rows over the full grid.
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
    packed = pack_membership(space, subscriptions)
    return cell_set_from_membership(
        space, packed, subscriptions.n_subscribers, cell_pmf, max_cells
    )


def cell_set_from_membership(
    space: EventSpace,
    packed: np.ndarray,
    n_columns: int,
    cell_pmf: np.ndarray,
    max_cells: Optional[int] = None,
) -> CellSet:
    """Steps 2-4 of :func:`build_cell_set` on packed membership rows.

    ``packed`` is the ``(space.n_cells, ceil(n_columns / 8))`` uint8
    output of :func:`pack_membership` (``np.packbits(axis=1)`` bit
    order, zero padding bits).

    Hyper-cells come out in the lexicographic order of their packed
    rows (``np.unique(packed, axis=0)`` order), each one's cells in
    ascending order.  The popularity cut to ``max_cells`` (the most
    popular by :attr:`CellSet.popularity`, stable on ties) happens
    before the per-cell lists are built, so only the kept hyper-cells
    get a ``cell_ids`` entry, a ``hypercell_of_cell`` slot and an
    unpacked ``membership`` row.
    """
    if packed.shape != (space.n_cells, -(-n_columns // 8)):
        raise ValueError(
            "packed membership must have one row per grid cell and "
            "ceil(n_columns / 8) bytes per row"
        )
    if max_cells is not None and max_cells < 1:
        raise ValueError("max_cells must be at least 1")
    # merge identical membership rows into hyper-cells
    nonempty, first_idx, hyper, sizes = _seen_groups(packed)
    if len(nonempty) == 0:
        raise ValueError("no grid cell is covered by any subscription")
    n_hyper = len(first_idx)
    first_cells = nonempty[first_idx]
    probs = np.bincount(hyper, weights=cell_pmf[nonempty], minlength=n_hyper)

    # hyper-cells in the byte order of their rows; with a cut, the most
    # popular first (CellSet.popularity, ties in byte order), and only
    # the keys up to the max_cells-th smallest are ranked at all
    if max_cells is not None and max_cells < n_hyper:
        keys = -(probs * sizes)
        kth = np.partition(keys, max_cells - 1)[max_cells - 1]
        candidates = np.flatnonzero(keys <= kth)
        candidates = candidates[_byte_order(packed, first_cells[candidates])]
        keep = candidates[
            np.argsort(keys[candidates], kind="stable")[:max_cells]
        ]
    else:
        keep = _byte_order(packed, first_cells)
    first_cells, probs = first_cells[keep], probs[keep]
    new_of_old = np.full(n_hyper, -1, dtype=np.int64)
    new_of_old[keep] = np.arange(len(keep))
    hyper = new_of_old[hyper]
    kept = hyper >= 0
    hyper, nonempty = hyper[kept], nonempty[kept]

    order = np.argsort(hyper, kind="stable")
    boundaries = np.flatnonzero(np.diff(hyper[order])) + 1
    mapping = np.full(space.n_cells, -1, dtype=np.int32)
    mapping[nonempty] = hyper
    return CellSet(
        space=space,
        membership=_unpack(packed[first_cells], n_columns),
        probs=probs,
        cell_ids=np.split(nonempty[order], boundaries),
        hypercell_of_cell=mapping,
    )


def _unpack(packed: np.ndarray, n_columns: int) -> np.ndarray:
    """Boolean ``(rows, n_columns)`` matrix of packed membership rows."""
    return np.unpackbits(packed, axis=1, count=n_columns).view(bool)


def _seen_groups(
    packed: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(nonempty, first_idx, inverse, sizes)`` of packed membership
    rows, the groups of equal rows numbered in order of first
    occurrence.

    ``nonempty`` are the rows with a set bit, ascending; over those
    rows, ``first_idx`` (ascending) and ``inverse`` are the groups of
    ``np.unique(axis=0, return_index=True, return_inverse=True)``, and
    ``sizes`` each group's bit count.  The active backend's
    ``group_rows`` kernel does it in one hashing pass; the numpy
    reference sorts big-endian words with one ``lexsort`` and
    renumbers.  :func:`_byte_order` ranks the groups a caller keeps.
    """
    grouped = get_backend().group_rows(packed)
    if grouped is not None:
        return grouped
    nonempty = np.flatnonzero(packed.any(axis=1))
    if len(nonempty) == 0:
        empty = np.empty(0, dtype=np.int64)
        return nonempty, empty, empty, empty
    words = _big_endian_words(packed[nonempty])
    first_idx, inverse = _group_equal_rows(words)
    seen = np.argsort(first_idx)
    number = np.empty_like(seen)
    number[seen] = np.arange(len(seen))
    return (
        nonempty, first_idx[seen], number[inverse],
        popcount_rows(words[first_idx[seen]]),
    )


def _byte_order(packed: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The order of distinct packed rows ``packed[rows]`` by their bytes
    (``np.unique``'s lexicographic order): the active backend's
    ``sort_rows`` kernel, or one ``lexsort`` of big-endian words."""
    order = get_backend().sort_rows(packed, rows)
    if order is not None:
        return order
    return np.lexsort(_big_endian_words(packed[rows]).T[::-1])


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
