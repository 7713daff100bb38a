"""Subscription aggregation & subsumption (pre-clustering reduction).

Collapses identical subscription rectangles into weighted aggregates
with exact multiplicity accounting, indexes containment between the
distinct rectangles, and exposes aggregate-level views whose results
expand back to per-subscriber values byte-identical to the unaggregated
computation.  See docs/aggregation.md for the algorithm and the
equivalence argument.
"""

from .online import AggregateSnapshot, OnlineAggregator
from .subsume import AggregateSet, aggregate_subscriptions
from .view import (
    AggregateView,
    build_aggregate_cells,
    expand_cell_set,
    weighted_cell_set,
)

__all__ = [
    "AggregateSet",
    "AggregateSnapshot",
    "AggregateView",
    "OnlineAggregator",
    "aggregate_subscriptions",
    "build_aggregate_cells",
    "expand_cell_set",
    "weighted_cell_set",
]
