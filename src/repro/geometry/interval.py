"""Half-open intervals on the real line.

The paper (section 1) assumes, without loss of generality, that every
subscription predicate range is *open on the left and closed on the right*:
``(lo, hi]``.  This module implements that interval algebra, including
intervals that are unbounded on either side (``lo = -inf`` and/or
``hi = +inf``), which the section 5.1 subscription model generates with
probabilities ``q0``, ``q1`` and ``q2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Interval", "EMPTY_INTERVAL", "FULL_INTERVAL"]


@dataclass(frozen=True)
class Interval:
    """A half-open interval ``(lo, hi]`` with optionally infinite endpoints.

    The empty interval is represented canonically as ``Interval.empty()``;
    any construction with ``lo >= hi`` normalises to it through
    :meth:`make`.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.hi < self.lo:
            raise ValueError(
                f"interval upper end {self.hi} below lower end {self.lo}; "
                "use Interval.make() to normalise degenerate input"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def make(lo: float, hi: float) -> "Interval":
        """Build ``(lo, hi]``, normalising any degenerate pair to empty."""
        if hi <= lo:
            return EMPTY_INTERVAL
        return Interval(lo, hi)

    @staticmethod
    def empty() -> "Interval":
        """The canonical empty interval."""
        return EMPTY_INTERVAL

    @staticmethod
    def full() -> "Interval":
        """The whole real line ``(-inf, +inf]``."""
        return FULL_INTERVAL

    @staticmethod
    def at_most(hi: float) -> "Interval":
        """Left-unbounded interval ``(-inf, hi]``."""
        return Interval.make(-math.inf, hi)

    @staticmethod
    def greater_than(lo: float) -> "Interval":
        """Right-unbounded interval ``(lo, +inf]``."""
        return Interval.make(lo, math.inf)

    @staticmethod
    def point(value: float, width: float = 1.0) -> "Interval":
        """Interval ``(value - width, value]`` covering a single grid cell.

        Used to express equality predicates (e.g. the regional attribute in
        the section 3 model) on a unit grid.
        """
        return Interval.make(value - width, value)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.hi <= self.lo

    @property
    def is_full(self) -> bool:
        return self.lo == -math.inf and self.hi == math.inf

    @property
    def bounded(self) -> bool:
        return self.lo > -math.inf and self.hi < math.inf

    def contains(self, x: float) -> bool:
        """True when ``x`` lies in ``(lo, hi]``."""
        return self.lo < x <= self.hi

    def __contains__(self, x: float) -> bool:
        return self.contains(x)

    def overlaps(self, other: "Interval") -> bool:
        """True when the two half-open intervals share at least one point."""
        if self.is_empty or other.is_empty:
            return False
        return self.lo < other.hi and other.lo < self.hi

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        """Intersection; half-open intervals intersect to half-open ones."""
        return Interval.make(max(self.lo, other.lo), min(self.hi, other.hi))

    def clip(self, lo: float, hi: float) -> "Interval":
        """Intersect with the bounded domain ``(lo, hi]``."""
        return self.intersect(Interval.make(lo, hi))

    @property
    def length(self) -> float:
        """Length of the interval (``inf`` when unbounded, 0 when empty)."""
        if self.is_empty:
            return 0.0
        return self.hi - self.lo

    # ------------------------------------------------------------------
    # grid support
    # ------------------------------------------------------------------
    def cell_range(self, origin: float, width: float, n_cells: int) -> range:
        """Indices of unit-grid cells this interval overlaps.

        The grid consists of ``n_cells`` half-open cells
        ``(origin + i*width, origin + (i+1)*width]`` for ``i`` in
        ``range(n_cells)``.  Returns the (possibly empty) range of indices
        ``i`` whose cell overlaps this interval.
        """
        if self.is_empty or n_cells <= 0:
            return range(0)
        span_hi = origin + n_cells * width
        clipped = self.clip(origin, span_hi)
        if clipped.is_empty:
            return range(0)
        # Cell i covers (origin + i*w, origin + (i+1)*w].  Two half-open
        # intervals overlap iff each lower end is strictly below the other
        # upper end, so cell i overlaps (lo, hi] iff
        #   origin + i*w < hi   and   lo < origin + (i+1)*w
        # which yields first = floor((lo-origin)/w), last = ceil((hi-origin)/w) - 1.
        first = int(math.floor((clipped.lo - origin) / width))
        last = int(math.ceil((clipped.hi - origin) / width)) - 1
        first = max(first, 0)
        last = min(last, n_cells - 1)
        if last < first:
            return range(0)
        return range(first, last + 1)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_empty:
            return "Interval.empty()"
        return f"Interval({self.lo!r}, {self.hi!r}]"


EMPTY_INTERVAL = Interval(0.0, 0.0)
FULL_INTERVAL = Interval(-math.inf, math.inf)

