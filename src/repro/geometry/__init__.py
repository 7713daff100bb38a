"""Geometric primitives of the publication event space.

Subscriptions are aligned rectangles (products of half-open intervals) and
publications are points, following section 2 of the paper.
"""

from .interval import EMPTY_INTERVAL, FULL_INTERVAL, Interval
from .rectangle import Point, Rectangle

__all__ = [
    "EMPTY_INTERVAL",
    "FULL_INTERVAL",
    "Interval",
    "Point",
    "Rectangle",
]

from .space import Dimension, EventSpace

__all__ += ["Dimension", "EventSpace"]
