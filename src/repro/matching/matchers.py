"""Event-to-group matching algorithms (section 4.6).

Two matchers share the interface ``match_batch(points) -> PlanRun``,
one plan per event of the batch in one array form:

* :class:`GridMatcher` — Figure 5: locate the grid cell of the event; if
  the cell carries a multicast group and the proportion of its members
  that are interested exceeds a threshold, multicast to the group (plus
  unicast to interested non-members); otherwise unicast only.
* :class:`NoLossMatcher` — Figure 6: among the no-loss regions containing
  the event, multicast to the group of the heaviest one and unicast to
  the remaining interested subscribers.  All group members are interested
  by construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..clustering import Clustering, NoLossResult
from ..obs import get_registry, get_tracer
from ..workload import SubscriptionSet, as_points, stab_flat
from .plan import GroupTable, PlanRun

__all__ = [
    "GridMatcher",
    "NoLossMatcher",
]

#: the matching counters: (name, description, label)
_EVENTS = ("matching_events_total", "events run through a matcher", "matcher")
_MULTICAST = (
    "matching_multicast_plans_total",
    "plans that used at least one multicast group",
    "matcher",
)
_FALLBACKS = (
    "matching_threshold_fallbacks_total",
    "grid-cell groups rejected by the threshold rule "
    "(event fell back to pure unicast)",
    "matcher",
)


def _record_match_metrics(
    matcher: str,
    n_events: int,
    n_multicast: int,
    n_fallbacks: int = 0,
) -> None:
    """Fold one matched batch into the registry.

    Counts are aggregated per call site before touching the registry so
    that ``match_batch`` costs a fixed number of counter increments
    regardless of batch size — the per-event hot path stays metric-free;
    each counter child is resolved once per registry.
    """
    registry = get_registry()
    registry.counter_child(*_EVENTS, matcher).inc(n_events)
    if n_multicast:
        registry.counter_child(*_MULTICAST, matcher).inc(n_multicast)
    if n_fallbacks:
        registry.counter_child(*_FALLBACKS, matcher).inc(n_fallbacks)


def _interest_of(subscriptions: SubscriptionSet, points, interested):
    """Each event's interested ids one event after another, and their
    counts: from ``interested`` when given, else one stab of the run."""
    if interested is None:
        return stab_flat(
            as_points(points, subscriptions.space.n_dims),
            *subscriptions.bounds(), subscriptions.row_owners,
            subscriptions.n_subscribers,
        )
    counts = np.fromiter(map(len, interested), np.int64, len(interested))
    ids = (
        np.concatenate(interested).astype(np.int64, copy=False)
        if len(interested) else np.empty(0, dtype=np.int64)
    )
    return ids, counts


class GridMatcher:
    """Matching for the grid-based clustering algorithms (Figure 5)."""

    def __init__(
        self,
        clustering: Clustering,
        subscriptions: SubscriptionSet,
        threshold: float = 0.0,
    ) -> None:
        """``threshold`` is the minimum proportion of group members that
        must be interested for the multicast to be used; the Figure 5
        "send only to interested subscribers" fallback fires below it.
        With the default 0.0 the group is used whenever at least one
        member is interested (the proportion must be *above* the
        threshold)."""
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be a proportion")
        self.clustering = clustering
        self.subscriptions = subscriptions
        self.threshold = threshold
        self._space = subscriptions.space
        dims = self._space.dimensions
        self._dim_bounds = (
            np.array([d.lo for d in dims], dtype=np.float64),
            np.array([d.hi for d in dims], dtype=np.float64),
            self._space.shape,
        )
        self._version = None
        self._refresh()

    def _refresh(self) -> None:
        """Re-stage the group state after incremental membership churn
        (online joins/leaves mutate the clustering in place and keep
        its member lists up to date): once per clustering version."""
        clustering = self.clustering
        if clustering.version != self._version:
            lists = clustering.group_member_lists()
            self._table = GroupTable(lists, clustering.group_membership)
            # what the native match_run needs of the grid and groups
            self._grid = self._dim_bounds + (
                clustering.cells.hypercell_of_cell,
                clustering.assignment,
                clustering.group_membership,
                np.fromiter(map(len, lists), np.int64, len(lists)),
                self.threshold,
            )
            self._version = clustering.version

    def match_batch(
        self,
        points: Sequence[Sequence[float]],
        interested: Optional[Sequence[np.ndarray]] = None,
    ) -> PlanRun:
        """The run's plans, as one :class:`PlanRun`.

        The native backend matches the run in one
        :meth:`SubscriptionSet.match_run` call (interest sets, grid
        cell, group and the Figure 5 rule) and the run is its buffer.
        Otherwise, or when ``interested`` supplies precomputed
        per-event interest sets, the run is located with
        :meth:`EventSpace.locate_batch` and assembled by
        :meth:`PlanRun.assemble`."""
        with get_tracer().span(
            "matching.match_batch", matcher="grid", n_events=len(points)
        ) as span:
            self._refresh()
            run = None
            if interested is None:
                run = self.subscriptions.match_run(points, self._grid)
            if run is None:
                ids, counts = _interest_of(
                    self.subscriptions, points, interested
                )
                groups = self.clustering.groups_of_grid_cells(
                    self._space.locate_batch(points)
                )
                plans, n_fallbacks = PlanRun.assemble(
                    ids, counts, groups, self._table, self.threshold
                )
            else:
                bounds, groups, ids, n_fallbacks = run
                plans = PlanRun(bounds, groups, ids, self._table)
            n_multicast = int(np.count_nonzero(plans.groups >= 0))
            span.set("n_multicast", n_multicast)
            span.set("n_fallbacks", n_fallbacks)
            _record_match_metrics(
                "grid", len(plans), n_multicast, n_fallbacks=n_fallbacks
            )
            return plans


class NoLossMatcher:
    """Matching for the No-Loss algorithm (Figure 6)."""

    def __init__(
        self,
        result: NoLossResult,
        subscriptions: SubscriptionSet,
    ) -> None:
        self.result = result
        self.subscriptions = subscriptions
        # each region owns itself, so a point's first hit is the
        # heaviest region containing it
        self._region_ids = np.arange(len(result), dtype=np.int64)
        # group membership rows, so the unicast ids of a plan are one
        # gather over its interest set
        self._table = GroupTable.of(
            result.group_members, subscriptions.n_subscribers
        )

    def match_batch(
        self,
        points: Sequence[Sequence[float]],
        interested: Optional[Sequence[np.ndarray]] = None,
    ) -> PlanRun:
        """The run's plans at once: one interest pass and one region
        stab for the whole run; an event in a region multicasts to the
        region's group and unicasts to its interested non-members."""
        with get_tracer().span(
            "matching.match_batch", matcher="no-loss", n_events=len(points)
        ) as span:
            ids, counts = _interest_of(self.subscriptions, points, interested)
            regions = np.array(self.regions_of(points), dtype=np.int64)
            groups = np.full(len(regions), -1, dtype=np.int64)
            inside = regions >= 0
            groups[inside] = self.result.group_of[regions[inside]]
            plans, _ = PlanRun.assemble(ids, counts, groups, self._table)
            n_multicast = int(np.count_nonzero(plans.groups >= 0))
            span.set("n_multicast", n_multicast)
            _record_match_metrics("no-loss", len(plans), n_multicast)
            return plans

    def regions_of(self, points: Sequence[Sequence[float]]) -> List[int]:
        """Per point, the heaviest retained region containing it, or
        ``-1``.  Regions are stored in decreasing weight order, so that
        is the smallest ``r`` with ``lo_r < x <= hi_r``: the first id of
        the point's :func:`~repro.workload.stab_flat` over the region
        rows."""
        pts = as_points(points, self.subscriptions.space.n_dims)
        ids, counts = stab_flat(
            pts, self.result.los, self.result.his, self._region_ids,
            len(self._region_ids),
        )
        regions = np.full(len(counts), -1, dtype=np.int64)
        hit = counts > 0
        regions[hit] = ids[(np.cumsum(counts) - counts)[hit]]
        return regions.tolist()
