"""The event space ``Omega`` and its regular grid discretisation.

Section 2 defines the event space as a subset of ``R^N``; section 4.1
overlays a regular grid on it.  We model each dimension as an integer
lattice: dimension ``d`` takes the integer values ``lo_d .. hi_d`` and its
grid consists of unit-width half-open cells ``(v-1, v]`` — one per lattice
value — matching the paper's integer attributes ("integer values between 0
and 20") and its open-left/closed-right convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .interval import Interval
from .rectangle import Rectangle

__all__ = ["Dimension", "EventSpace"]


@dataclass(frozen=True)
class Dimension:
    """One attribute of the event space.

    ``lo`` and ``hi`` are the smallest and largest integer values the
    attribute takes (inclusive); the dimension has ``hi - lo + 1`` grid
    cells, cell ``i`` covering ``(lo + i - 1, lo + i]``.
    """

    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"dimension {self.name!r}: hi < lo")

    @property
    def n_cells(self) -> int:
        return self.hi - self.lo + 1

    @property
    def domain(self) -> Interval:
        """The half-open interval spanned by the whole dimension."""
        return Interval.make(self.lo - 1.0, float(self.hi))

    def values(self) -> range:
        """The lattice values of this dimension."""
        return range(self.lo, self.hi + 1)

    def clip_value(self, x: float) -> int:
        """Round a continuous sample to the nearest in-domain lattice value."""
        return int(min(max(round(x), self.lo), self.hi))


class EventSpace:
    """A product of integer-lattice dimensions with a flat cell indexing.

    Cells are indexed in row-major (C) order over the per-dimension cell
    counts, so the flat index of cell coordinates ``(c_0, .., c_{N-1})``
    is ``np.ravel_multi_index``-compatible.
    """

    def __init__(self, dimensions: Sequence[Dimension]) -> None:
        if not dimensions:
            raise ValueError("event space needs at least one dimension")
        self.dimensions: Tuple[Dimension, ...] = tuple(dimensions)
        self.shape: Tuple[int, ...] = tuple(d.n_cells for d in self.dimensions)
        self.n_cells = int(np.prod(self.shape))
        self._strides = np.array(
            [int(np.prod(self.shape[i + 1 :])) for i in range(len(self.shape))],
            dtype=np.int64,
        )
        self._dim_los = np.array([d.lo for d in self.dimensions], dtype=np.float64)
        self._dim_his = np.array([d.hi for d in self.dimensions], dtype=np.float64)

    # ------------------------------------------------------------------
    @property
    def n_dims(self) -> int:
        return len(self.dimensions)

    def domain(self) -> Rectangle:
        """The rectangle covering the whole space."""
        return Rectangle(tuple(d.domain for d in self.dimensions))

    # ------------------------------------------------------------------
    # cell indexing
    # ------------------------------------------------------------------
    def locate_batch(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """Flat cell indices of many points at once (-1 when outside).

        A point ``x`` lies in the cell with coordinates
        ``ceil(x_d - lo_d)`` when ``lo_d - 1 < x_d <= hi_d`` in every
        dimension; the matchers place a whole event batch on the grid in
        a handful of numpy passes.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, self.n_dims)
        if pts.ndim != 2 or pts.shape[1] != self.n_dims:
            raise ValueError("points must be an (E, n_dims) array-like")
        inside = np.all(
            (pts > self._dim_los - 1.0) & (pts <= self._dim_his), axis=1
        )
        # clip before casting so outside points (masked to -1 below) cannot
        # overflow the integer conversion
        coords = np.clip(
            np.ceil(pts - self._dim_los), 0, np.asarray(self.shape) - 1
        ).astype(np.int64)
        flat = coords @ self._strides
        flat[~inside] = -1
        return flat

    # ------------------------------------------------------------------
    # rectangle <-> grid
    # ------------------------------------------------------------------
    def cell_slices(self, rectangle: Rectangle) -> Tuple[slice, ...]:
        """Per-dimension slices of the grid cells a rectangle overlaps.

        Raises ``ValueError`` when the rectangle misses the grid entirely
        in some dimension; callers treat that as "matches nothing".
        """
        if rectangle.dimensions != self.n_dims:
            raise ValueError("rectangle dimensionality mismatch")
        slices = []
        for dim, side in zip(self.dimensions, rectangle.sides):
            cells = side.cell_range(dim.lo - 1.0, 1.0, dim.n_cells)
            if len(cells) == 0:
                raise ValueError("rectangle does not overlap the grid")
            slices.append(slice(cells.start, cells.stop))
        return tuple(slices)

    def cell_boxes(
        self, los: np.ndarray, his: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-dimension ``[start, stop)`` cell ranges of many rectangles.

        ``los`` and ``his`` are ``(k, n_dims)`` bounds of ``(lo, hi]``
        sides (:meth:`SubscriptionSet.bounds`).  Returns two
        ``(k, n_dims)`` int64 arrays: the :meth:`cell_slices` of every
        row in one pass, by the float arithmetic of
        :meth:`Interval.cell_range` on unit cells.  A side that misses
        the grid — empty, off-grid or a departed ``(+inf, -inf]`` row —
        gets ``stop <= start``, so its rectangle covers nothing.
        """
        origin = self._dim_los - 1.0
        span_hi = origin + np.asarray(self.shape, dtype=np.float64)
        lo = np.maximum(los, origin)
        hi = np.minimum(his, span_hi)
        inside = hi > lo
        first = np.floor(np.where(inside, lo - origin, 0.0))
        last = np.ceil(np.where(inside, hi - origin, 0.0)) - 1.0
        starts = np.maximum(first, 0.0).astype(np.int64)
        stops = np.minimum(last, np.asarray(self.shape) - 1).astype(np.int64)
        return starts, stops + 1

    def cells_in_rectangle(self, rectangle: Rectangle) -> np.ndarray:
        """Flat indices of all cells a rectangle overlaps, vectorised.

        The block of covered cells is the outer sum of the per-dimension
        stride offsets, built dimension by dimension — no python-level
        product loop.  A rectangle that misses the grid entirely in some
        dimension covers no cells (empty array), matching the "matches
        nothing" convention of the membership-matrix builder.  Indices
        are int32, like :attr:`CellSet.hypercell_of_cell`: a grid has
        fewer than 2**31 cells.
        """
        try:
            slices = self.cell_slices(rectangle)
        except ValueError:
            return np.empty(0, dtype=np.int32)
        flat = np.zeros(1, dtype=np.int32)
        for s, stride in zip(slices, self._strides):
            offsets = np.arange(s.start, s.stop, dtype=np.int32) * int(stride)
            flat = (flat[:, None] + offsets[None, :]).reshape(-1)
        return flat

    def clip_point(self, point: Sequence[float]) -> Tuple[int, ...]:
        """Round/clip a continuous point onto the lattice."""
        return tuple(
            dim.clip_value(x) for dim, x in zip(self.dimensions, point)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = ", ".join(
            f"{d.name}[{d.lo}..{d.hi}]" for d in self.dimensions
        )
        return f"EventSpace({dims})"

