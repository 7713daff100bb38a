"""Real-time event matching (section 4.6): R-tree stabbing index, the
grid-based matcher (Figure 5), the no-loss matcher (Figure 6) and the
brute-force oracle."""

from .matchers import BruteForceMatcher, GridMatcher, NoLossMatcher
from .plan import DeliveryPlan
from .rtree import RTree

__all__ = [
    "BruteForceMatcher",
    "GridMatcher",
    "NoLossMatcher",
    "DeliveryPlan",
    "RTree",
]
