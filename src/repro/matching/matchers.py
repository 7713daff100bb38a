"""Event-to-group matching algorithms (section 4.6).

Two matchers share the interface ``match_batch(points) ->
[DeliveryPlan]``, one plan per event of the batch:

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
from ..workload import SubscriptionSet, as_points, stab_run
from .plan import DeliveryPlan

__all__ = [
    "GridMatcher",
    "NoLossMatcher",
    "threshold_plan",
]


def _record_match_metrics(
    matcher: str,
    n_events: int,
    n_multicast: int,
    n_fallbacks: int = 0,
) -> None:
    """Fold one matched batch into the registry.

    Counts are aggregated per call site before touching the registry so
    that ``match_batch`` costs a fixed number of counter increments
    regardless of batch size — the per-event hot path stays metric-free.
    """
    registry = get_registry()
    registry.counter(
        "matching_events_total", "events run through a matcher"
    ).inc(n_events, matcher=matcher)
    if n_multicast:
        registry.counter(
            "matching_multicast_plans_total",
            "plans that used at least one multicast group",
        ).inc(n_multicast, matcher=matcher)
    if n_fallbacks:
        registry.counter(
            "matching_threshold_fallbacks_total",
            "grid-cell groups rejected by the threshold rule "
            "(event fell back to pure unicast)",
        ).inc(n_fallbacks, matcher=matcher)


def threshold_plan(
    interested: np.ndarray,
    group: int,
    group_members: Sequence[np.ndarray],
    group_sizes: np.ndarray,
    threshold: float,
    group_masks: np.ndarray,
) -> DeliveryPlan:
    """Assemble one Figure-5 delivery plan from precomputed group state.

    ``group`` is the multicast group of the event's grid cell (or ``-1``);
    ``group_members``/``group_sizes`` are the per-group sorted subscriber
    arrays and their lengths, and ``group_masks`` is the boolean
    group-membership matrix, which turns both set operations into a
    single gather over the interested ids.  Used by
    :meth:`GridMatcher.match_batch` once per event.
    """
    if group < 0:
        return DeliveryPlan(
            interested=interested, unicast_subscribers=interested
        )
    members = group_members[group]
    size = int(group_sizes[group])
    in_group = group_masks[group][interested]
    n_interested_members = int(in_group.sum())
    proportion = n_interested_members / size if size else 0.0
    if n_interested_members == 0 or proportion <= threshold:
        return DeliveryPlan(
            interested=interested, unicast_subscribers=interested
        )
    return DeliveryPlan(
        interested=interested,
        group_ids=[int(group)],
        group_members=[members],
        unicast_subscribers=interested[~in_group],
    )


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
        """Re-read the cached group state after incremental membership
        churn (online joins/leaves mutate the clustering in place and
        keep its member lists up to date)."""
        clustering = self.clustering
        if clustering.version != self._version:
            self._group_members = clustering.group_member_lists()
            self._group_sizes = np.array(
                [len(m) for m in self._group_members], dtype=np.int64
            )
            # what the native match_run needs of the grid and groups
            self._grid = self._dim_bounds + (
                clustering.cells.hypercell_of_cell,
                clustering.assignment,
                clustering.group_membership,
                self._group_sizes,
                self.threshold,
            )
            self._version = clustering.version

    def match_batch(
        self,
        points: Sequence[Sequence[float]],
        interested: Optional[Sequence[np.ndarray]] = None,
    ) -> List[DeliveryPlan]:
        """Plans for many events in one pass.

        The native backend matches the run in one
        :meth:`SubscriptionSet.match_run` call (interest sets, grid
        cell, group and the Figure 5 rule) and each plan's arrays are
        views of its one buffer.  Otherwise, or when ``interested``
        supplies precomputed per-event interest sets, the run is
        located with :meth:`EventSpace.locate_batch` and each plan
        built by :func:`threshold_plan`."""
        with get_tracer().span(
            "matching.match_batch", matcher="grid", n_events=len(points)
        ) as span:
            self._refresh()
            run = None
            if interested is None:
                run = self.subscriptions.match_run(points, self._grid)
            if run is None:
                plans, n_fallbacks = self._threshold_plans(points, interested)
            else:
                bounds, groups, ids, n_fallbacks = run
                plans = self._run_plans(bounds, groups, ids)
            n_multicast = sum(1 for p in plans if p.uses_multicast)
            span.set("n_multicast", n_multicast)
            span.set("n_fallbacks", n_fallbacks)
            _record_match_metrics(
                "grid", len(plans), n_multicast, n_fallbacks=n_fallbacks
            )
            return plans

    def _run_plans(self, bounds, groups, ids) -> List[DeliveryPlan]:
        """Plans from :meth:`SubscriptionSet.match_run`'s buffer."""
        bounds = bounds.tolist()
        members = self._group_members
        plans = []
        for e, group in enumerate(groups.tolist()):
            interested = ids[bounds[2 * e]:bounds[2 * e + 1]]
            if group < 0:
                plans.append(DeliveryPlan(
                    interested=interested, unicast_subscribers=interested
                ))
            else:
                plans.append(DeliveryPlan(
                    interested, [group], [members[group]],
                    ids[bounds[2 * e + 1]:bounds[2 * e + 2]],
                ))
        return plans

    def _threshold_plans(self, points, interested):
        """The numpy reference: interest sets (unless given), cells and
        groups of the run, then one :func:`threshold_plan` per event."""
        if interested is None:
            interested = self.subscriptions.batch_interested_subscribers(
                points
            )
        cells = self._space.locate_batch(points)
        groups = self.clustering.groups_of_grid_cells(cells)
        masks = self.clustering.group_membership
        plans = [
            threshold_plan(
                ids,
                int(group),
                self._group_members,
                self._group_sizes,
                self.threshold,
                masks,
            )
            for ids, group in zip(interested, groups)
        ]
        # a fallback is a grouped cell whose multicast the threshold
        # rule (Figure 5) rejected — the event went out pure unicast
        n_fallbacks = sum(
            1
            for plan, group in zip(plans, groups)
            if group >= 0 and not plan.uses_multicast
        )
        return plans, n_fallbacks


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

    def match_batch(
        self,
        points: Sequence[Sequence[float]],
        interested: Optional[Sequence[np.ndarray]] = None,
    ) -> List[DeliveryPlan]:
        """Plans for many events at once: one interest pass and one
        :meth:`regions_of` stab for the whole run."""
        with get_tracer().span(
            "matching.match_batch", matcher="no-loss", n_events=len(points)
        ) as span:
            if interested is None:
                interested = self.subscriptions.batch_interested_subscribers(
                    points
                )
            plans = [
                self._assemble(ids, region)
                for ids, region in zip(interested, self.regions_of(points))
            ]
            n_multicast = sum(1 for p in plans if p.uses_multicast)
            span.set("n_multicast", n_multicast)
            _record_match_metrics("no-loss", len(plans), n_multicast)
            return plans

    def regions_of(self, points: Sequence[Sequence[float]]) -> List[int]:
        """Per point, the heaviest retained region containing it, or
        ``-1``.  Regions are stored in decreasing weight order, so that
        is the smallest ``r`` with ``lo_r < x <= hi_r``: the first id of
        the point's :func:`~repro.workload.stab_run` over the region
        rows."""
        pts = as_points(points, self.subscriptions.space.n_dims)
        hits = stab_run(
            pts, self.result.los, self.result.his, self._region_ids,
            len(self._region_ids),
        )
        return [int(ids[0]) if len(ids) else -1 for ids in hits]

    def _assemble(self, interested: np.ndarray, region: int) -> DeliveryPlan:
        if region < 0:
            return DeliveryPlan(
                interested=interested, unicast_subscribers=interested
            )
        group = int(self.result.group_of[region])
        members = self.result.group_members[group]
        uncovered = np.setdiff1d(interested, members)
        return DeliveryPlan(
            interested=interested,
            group_ids=[group],
            group_members=[members],
            unicast_subscribers=uncovered,
        )
