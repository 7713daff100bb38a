"""Aggregate-level views that expand back to exact subscriber results.

:class:`AggregateView` answers the same interest queries as
:class:`~repro.workload.subscriptions.SubscriptionSet` — identical
sorted subscriber-id arrays — by broadcasting an event batch against
the ``n_agg`` distinct rectangles instead of all ``m`` rows and
expanding hits through the aggregate member lists.

:func:`build_aggregate_cells` runs the grid preprocessing stage on
aggregate columns and expands the result: the returned pair is a
*weighted* aggregate :class:`~repro.grid.cells.CellSet` for the fits
(column weights = multiplicities, so sizes and popularity equal the
subscriber-level values exactly) and its expansion, byte-identical to
``build_cell_set`` on the unaggregated subscriptions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import EventSpace, Rectangle
from ..grid.cells import CellSet, cell_set_from_membership
from .subsume import AggregateSet, aggregate_subscriptions

__all__ = [
    "AggregateView",
    "build_aggregate_cells",
    "expand_cell_set",
]


class AggregateView:
    """Interest queries over aggregates, expanded to subscriber ids."""

    def __init__(
        self,
        subscriptions,
        aggregates: Optional[AggregateSet] = None,
    ) -> None:
        self.subscriptions = subscriptions
        self.aggregates = (
            aggregates
            if aggregates is not None
            else aggregate_subscriptions(subscriptions)
        )

    def expand(self, agg_ids: Sequence[int]) -> np.ndarray:
        """Sorted unique subscriber ids behind a set of aggregates."""
        owner_lists = [self.aggregates.owners[int(a)] for a in agg_ids]
        if not owner_lists:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(owner_lists))

    def batch_interested_subscribers(
        self, points: Sequence[Sequence[float]]
    ) -> List[np.ndarray]:
        """Same contract (and results) as
        ``SubscriptionSet.batch_interested_subscribers`` — one broadcast
        over ``n_agg`` bounds instead of ``m`` rows, then per-event
        expansion through the member lists.
        """
        agg = self.aggregates
        pts = np.asarray(points, dtype=np.float64)
        n_dims = agg.los.shape[1] if agg.n_aggregates else len(
            self.subscriptions.space.dimensions
        )
        if pts.size == 0:
            pts = pts.reshape(0, n_dims)
        if pts.ndim != 2 or pts.shape[1] != n_dims:
            raise ValueError("points must be an (E, n_dims) array-like")
        if agg.n_aggregates == 0:
            return [np.empty(0, dtype=np.int64) for _ in range(len(pts))]
        x = pts[:, None, :]
        matched = np.all(
            (agg.los[None, :, :] < x) & (x <= agg.his[None, :, :]), axis=2
        )
        return [
            self.expand(np.nonzero(row)[0]) for row in matched
        ]


# ----------------------------------------------------------------------
def expand_cell_set(agg_cells: CellSet, sub_map: np.ndarray) -> CellSet:
    """Subscriber-level :class:`CellSet` from an aggregate-level one.

    A subscriber's rasterised column equals its aggregate's, so the
    expansion is one fancy index over columns; probs, cell ids and
    hypercell mapping are shared (they are column-width independent).
    """
    if np.any(sub_map < 0):
        raise ValueError("sub_map has departed subscribers (-1 entries)")
    # the column gather comes out Fortran-ordered; the packed-bitset
    # mirror (and the row-major kernels) need C-contiguous rows
    return CellSet(
        space=agg_cells.space,
        membership=np.ascontiguousarray(agg_cells.membership[:, sub_map]),
        probs=agg_cells.probs,
        cell_ids=agg_cells.cell_ids,
        hypercell_of_cell=agg_cells.hypercell_of_cell,
    )


def _rasterise_aggregates(
    space: EventSpace, aggregates: AggregateSet
) -> np.ndarray:
    """``(n_cells, n_agg)`` membership matrix of the aggregate
    rectangles — the same block-slice rasterisation as
    ``build_membership_matrix``, one column per aggregate.
    """
    membership = np.zeros(
        (space.n_cells, aggregates.n_aggregates), dtype=bool
    )
    grid = membership.reshape(*space.shape, aggregates.n_aggregates)
    for a in range(aggregates.n_aggregates):
        rect = Rectangle.from_bounds(aggregates.los[a], aggregates.his[a])
        try:
            slices = space.cell_slices(rect)
        except ValueError:
            continue  # rectangle misses the grid: matches nothing
        grid[slices + (a,)] = True
    return membership


def build_aggregate_cells(
    space: EventSpace,
    subscriptions,
    aggregates: AggregateSet,
    cell_pmf: np.ndarray,
    max_cells: Optional[int] = None,
) -> Tuple[CellSet, CellSet]:
    """Grid preprocessing on aggregate columns, plus its expansion.

    Returns ``(agg_cells, expanded_cells)``: the first carries column
    weights (multiplicities) so the fits see exact subscriber counts;
    the second is byte-identical to
    ``build_cell_set(space, subscriptions, cell_pmf, max_cells)``.
    """
    cell_pmf = np.asarray(cell_pmf, dtype=np.float64)
    if cell_pmf.shape != (space.n_cells,):
        raise ValueError(
            f"cell_pmf must have one entry per grid cell "
            f"({space.n_cells}), got {cell_pmf.shape}"
        )
    sub_map = aggregates.subscriber_map(subscriptions.n_subscribers)
    if np.any(sub_map < 0):
        raise ValueError(
            "aggregated cell build requires every subscriber to be live; "
            "compact the subscription set first"
        )
    membership = _rasterise_aggregates(space, aggregates)
    # nothing collapsed: the aggregate columns equal the subscriber
    # columns, so drop the all-ones weights — unweighted fits keep the
    # packed-bitset kernels
    weights = aggregates.multiplicity
    if aggregates.n_aggregates == aggregates.n_subscriptions:
        weights = None
    agg_cells = cell_set_from_membership(
        space,
        membership,
        cell_pmf,
        max_cells=max_cells,
        weights=weights,
    )
    return agg_cells, expand_cell_set(agg_cells, sub_map)
