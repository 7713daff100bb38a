"""Event-to-group matching algorithms (section 4.6).

Three matchers share the interface ``match(point) -> DeliveryPlan``:

* :class:`BruteForceMatcher` — no multicast groups at all; every event is
  unicast to the interested subscribers.  Doubles as the ground-truth
  oracle for the others.
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
from ..workload import SubscriptionSet
from .plan import DeliveryPlan
from .rtree import RTree

__all__ = [
    "BruteForceMatcher",
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
    """Fold one match call (or batch) into the registry.

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
    single gather over the interested ids.  Used by :class:`GridMatcher`
    per event and in batch.
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


class BruteForceMatcher:
    """Unicast-only matching; also the correctness oracle."""

    def __init__(self, subscriptions: SubscriptionSet) -> None:
        self.subscriptions = subscriptions

    def match(self, point: Sequence[float]) -> DeliveryPlan:
        interested = self.subscriptions.interested_subscribers(point)
        _record_match_metrics("brute-force", 1, 0)
        return DeliveryPlan(
            interested=interested, unicast_subscribers=interested
        )

    def match_batch(
        self,
        points: Sequence[Sequence[float]],
        interested: Optional[Sequence[np.ndarray]] = None,
    ) -> List[DeliveryPlan]:
        """Plans for many events at once.

        ``interested`` may supply the per-event interest sets (e.g. the
        experiment context's precomputed
        :meth:`~repro.workload.SubscriptionSet.batch_interested_subscribers`
        output) to skip recomputing them.
        """
        with get_tracer().span(
            "matching.match_batch",
            matcher="brute-force",
            n_events=len(points),
        ):
            if interested is None:
                interested = self.subscriptions.batch_interested_subscribers(
                    points
                )
            _record_match_metrics("brute-force", len(points), 0)
            return [
                DeliveryPlan(interested=ids, unicast_subscribers=ids)
                for ids in interested
            ]


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
        self._version = clustering.version
        self._group_members = clustering.group_member_lists()
        self._group_sizes = np.array(
            [len(m) for m in self._group_members], dtype=np.int64
        )

    def _refresh(self) -> None:
        """Re-derive cached group state after incremental membership
        churn (online joins/leaves mutate the clustering in place)."""
        if self.clustering.version != self._version:
            self._group_members = self.clustering.group_member_lists()
            self._group_sizes = np.array(
                [len(m) for m in self._group_members], dtype=np.int64
            )
            self._version = self.clustering.version

    def match(self, point: Sequence[float]) -> DeliveryPlan:
        self._refresh()
        interested = self.subscriptions.interested_subscribers(point)
        cell = self._space.locate(point)
        group = self.clustering.group_of_grid_cell(cell) if cell >= 0 else -1
        plan = threshold_plan(
            interested,
            group,
            self._group_members,
            self._group_sizes,
            self.threshold,
            self.clustering.group_membership,
        )
        _record_match_metrics(
            "grid",
            1,
            int(plan.uses_multicast),
            n_fallbacks=int(group >= 0 and not plan.uses_multicast),
        )
        return plan

    def match_batch(
        self,
        points: Sequence[Sequence[float]],
        interested: Optional[Sequence[np.ndarray]] = None,
    ) -> List[DeliveryPlan]:
        """Plans for many events in one pass (vectorised cell location and
        group lookup; optional precomputed per-event interest sets)."""
        with get_tracer().span(
            "matching.match_batch", matcher="grid", n_events=len(points)
        ) as span:
            self._refresh()
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
            n_multicast = sum(1 for p in plans if p.uses_multicast)
            # a fallback is a grouped cell whose multicast the threshold
            # rule (Figure 5) rejected — the event went out pure unicast
            n_fallbacks = sum(
                1
                for plan, group in zip(plans, groups)
                if group >= 0 and not plan.uses_multicast
            )
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
        use_rtree: bool = True,
    ) -> None:
        self.result = result
        self.subscriptions = subscriptions
        self._rtree: Optional[RTree] = None
        if use_rtree and len(result) > 0:
            self._rtree = RTree.from_bounds(result.los, result.his)

    def match(self, point: Sequence[float]) -> DeliveryPlan:
        interested = self.subscriptions.interested_subscribers(point)
        plan = self._assemble(interested, self._locate(point))
        _record_match_metrics("no-loss", 1, int(plan.uses_multicast))
        return plan

    def match_batch(
        self,
        points: Sequence[Sequence[float]],
        interested: Optional[Sequence[np.ndarray]] = None,
    ) -> List[DeliveryPlan]:
        """Plans for many events at once (shared interest pass; region
        stabbing stays per event — the R-tree makes it cheap)."""
        with get_tracer().span(
            "matching.match_batch", matcher="no-loss", n_events=len(points)
        ) as span:
            if interested is None:
                interested = self.subscriptions.batch_interested_subscribers(
                    points
                )
            plans = [
                self._assemble(ids, self._locate(point))
                for ids, point in zip(interested, points)
            ]
            n_multicast = sum(1 for p in plans if p.uses_multicast)
            span.set("n_multicast", n_multicast)
            _record_match_metrics("no-loss", len(plans), n_multicast)
            return plans

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

    def _locate(self, point: Sequence[float]) -> int:
        """Heaviest group region containing the point (regions are stored
        in decreasing weight order, so the smallest stabbed index wins)."""
        if self._rtree is not None:
            hits = self._rtree.stab(point)
            return int(hits[0]) if len(hits) else -1
        return self.result.match(point)
