"""Aligned rectangles in the publication event space.

A subscription in the paper's model is an aligned rectangle in the event
space ``Omega`` — a Cartesian product of half-open intervals, one per
attribute dimension.  Published events are points of ``Omega``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .interval import EMPTY_INTERVAL, FULL_INTERVAL, Interval

__all__ = ["Rectangle", "Point"]

Point = Tuple[float, ...]


@dataclass(frozen=True)
class Rectangle:
    """An aligned rectangle: a product of half-open intervals.

    A rectangle is *empty* if any of its side intervals is empty.  Since a
    subscription may leave any attribute as a "don't care" wildcard, side
    intervals may be unbounded.
    """

    sides: Tuple[Interval, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.sides, tuple):
            object.__setattr__(self, "sides", tuple(self.sides))
        if not self.sides:
            raise ValueError("rectangle must have at least one dimension")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_bounds(los: Sequence[float], his: Sequence[float]) -> "Rectangle":
        """Build a rectangle from parallel arrays of lower/upper bounds."""
        if len(los) != len(his):
            raise ValueError("bounds arrays must have equal length")
        return Rectangle(tuple(Interval.make(lo, hi) for lo, hi in zip(los, his)))

    @staticmethod
    def full(dimensions: int) -> "Rectangle":
        """The whole event space in ``dimensions`` dimensions."""
        return Rectangle((FULL_INTERVAL,) * dimensions)

    @staticmethod
    def empty(dimensions: int) -> "Rectangle":
        """A canonical empty rectangle."""
        return Rectangle((EMPTY_INTERVAL,) * dimensions)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        return len(self.sides)

    @property
    def is_empty(self) -> bool:
        return any(side.is_empty for side in self.sides)

    @property
    def bounded(self) -> bool:
        return all(side.bounded for side in self.sides)

    def contains(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside the rectangle."""
        if len(point) != self.dimensions:
            raise ValueError(
                f"point has {len(point)} coordinates, rectangle has "
                f"{self.dimensions} dimensions"
            )
        return all(side.contains(x) for side, x in zip(self.sides, point))

    def __contains__(self, point: Sequence[float]) -> bool:
        return self.contains(point)

    def overlaps(self, other: "Rectangle") -> bool:
        """True when the rectangles share at least one point."""
        self._check_dims(other)
        return all(a.overlaps(b) for a, b in zip(self.sides, other.sides))

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _check_dims(self, other: "Rectangle") -> None:
        if other.dimensions != self.dimensions:
            raise ValueError(
                f"dimension mismatch: {self.dimensions} vs {other.dimensions}"
            )

    def bounds(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Return ``(los, his)`` tuples of the side bounds."""
        return (
            tuple(side.lo for side in self.sides),
            tuple(side.hi for side in self.sides),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"({side.lo:g}, {side.hi:g}]" if not side.is_empty else "()"
            for side in self.sides
        )
        return f"Rectangle[{parts}]"

