"""Real-time event matching (section 4.6): the grid-based matcher
(Figure 5) and the no-loss matcher (Figure 6)."""

from .matchers import GridMatcher, NoLossMatcher
from .plan import DeliveryPlan, GroupTable, PlanRun

__all__ = [
    "GridMatcher",
    "NoLossMatcher",
    "DeliveryPlan",
    "GroupTable",
    "PlanRun",
]
