"""Delivery receipts and the statistics the broker accumulates from them.

:class:`DeliveryStats` keeps the per-broker running totals the tests and
reports read directly; every fold also mirrors into the process-wide
:mod:`repro.obs` registry (``broker_events_total``,
``broker_rebuilds_total``, ``broker_membership_changes_total``,
``broker_rebuild_seconds``) so broker activity shows up in the same
snapshot as the rest of the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from ..obs import get_registry

__all__ = ["DeliveryReceipt", "DeliveryStats"]


@dataclass(frozen=True)
class DeliveryReceipt:
    """What happened to one published event."""

    n_interested: int
    used_multicast: bool
    cost: float
    unicast_cost: float
    ideal_cost: float
    wasted_deliveries: int
    #: delivery mode actually executed ("plan" for the fixed policy,
    #: "fault" for the degraded path, else the adaptive choice)
    mode: str = "plan"
    #: fault-aware classification: delivered / degraded / lost
    outcome: str = "delivered"
    #: interested subscribers whose node was down or partitioned away
    lost_deliveries: int = 0
    #: multicast groups served by unicast fallback, and what that cost
    degraded_groups: int = 0
    fallback_cost: float = 0.0


@dataclass
class DeliveryStats:
    """Running totals over the events a broker has delivered."""

    n_events: int = 0
    n_multicast: int = 0
    n_unicast_only: int = 0
    n_no_interest: int = 0
    total_cost: float = 0.0
    total_unicast_cost: float = 0.0
    total_ideal_cost: float = 0.0
    total_wasted_deliveries: int = 0
    n_rebuilds: int = 0
    #: subscriber↔group membership changes across rebuilds — the
    #: join/leave signalling a real multicast substrate would pay (the
    #: "overhead of managing a large number of multicast groups" that
    #: motivates the paper's limited group budget)
    group_membership_changes: int = 0
    #: wall clock spent rebuilding the grouping state (cell-set build +
    #: clustering fit + matcher/dispatcher construction)
    total_rebuild_seconds: float = 0.0
    #: rebuilds that re-clustered cold (ignored the warm-start grouping)
    n_full_rebuilds: int = 0
    # ---- fault-injection outcome accounting ---------------------------
    #: publications fully served through the planned groups
    n_delivered: int = 0
    #: publications that fell back to per-subscriber unicast for at
    #: least one broken multicast group, or lost part of their audience
    n_degraded: int = 0
    #: publications whose entire interested audience was unreachable
    n_lost: int = 0
    #: subscriber-level deliveries owed across all publications
    expected_deliveries: int = 0
    #: subscriber-level deliveries that could not be made (down or
    #: partitioned nodes) — explicitly counted, never silently dropped
    lost_deliveries: int = 0
    #: multicast groups served by unicast fallback because their tree
    #: traversed a failed element
    n_degraded_groups: int = 0
    #: network cost spent on those fallback unicasts
    unicast_fallback_cost: float = 0.0

    def record_run(self, receipts: Iterable[DeliveryReceipt]) -> None:
        """Fold a run of publications' receipts into the totals.

        Receipts fold in order, so every running float sum is the one a
        per-event fold produces.  ``outcome`` is the fault-aware
        classification: ``"delivered"`` (the plan executed as priced),
        ``"degraded"`` (unicast fallback and/or partial audience loss)
        or ``"lost"`` (nobody reachable).  Every interested subscriber
        lands in ``expected_deliveries`` and either reaches its node or
        is counted in ``lost_deliveries``.  The registry counters are
        tallied per kind and outcome (first occurrence first) and
        incremented once each per run.
        """
        kinds: Dict[str, int] = {}
        outcomes: Dict[str, int] = {}
        lost_total = 0
        for receipt in receipts:
            outcome = receipt.outcome
            if outcome not in ("delivered", "degraded", "lost"):
                raise ValueError(f"unknown outcome {outcome!r}")
            n_interested = receipt.n_interested
            lost = int(receipt.lost_deliveries)
            self.n_events += 1
            self.total_cost += receipt.cost
            self.total_unicast_cost += receipt.unicast_cost
            self.total_ideal_cost += receipt.ideal_cost
            self.total_wasted_deliveries += receipt.wasted_deliveries
            self.expected_deliveries += int(n_interested)
            self.lost_deliveries += lost
            self.n_degraded_groups += int(receipt.degraded_groups)
            self.unicast_fallback_cost += float(receipt.fallback_cost)
            if outcome == "delivered":
                self.n_delivered += 1
            elif outcome == "degraded":
                self.n_degraded += 1
            else:
                self.n_lost += 1
            if n_interested == 0:
                self.n_no_interest += 1
                kind = "no_interest"
            elif receipt.used_multicast:
                self.n_multicast += 1
                kind = "multicast"
            else:
                self.n_unicast_only += 1
                kind = "unicast_only"
            kinds[kind] = kinds.get(kind, 0) + 1
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            lost_total += lost
        if not kinds:
            return
        registry = get_registry()
        events = registry.counter(
            "broker_events_total", "events delivered by brokers"
        )
        for kind, n in kinds.items():
            events.inc(n, kind=kind)
        publications = registry.counter(
            "broker_publications_total",
            "publication outcomes under fault injection",
        )
        for outcome, n in outcomes.items():
            publications.inc(n, outcome=outcome)
        if lost_total:
            registry.counter(
                "broker_lost_deliveries_total",
                "subscriber deliveries lost to failed network elements",
            ).inc(lost_total)

    def record_rebuild(
        self, seconds: float, membership_changes: int, full: bool = False
    ) -> None:
        """Fold one grouping rebuild (timing + join/leave churn).

        Safe under overlapping debounce windows: every call folds its
        own deltas, so two rebuilds racing through one coalesced change
        burst still sum — nothing is keyed on "the" current rebuild.
        """
        self.n_rebuilds += 1
        if full:
            self.n_full_rebuilds += 1
        self.total_rebuild_seconds += float(seconds)
        self.group_membership_changes += int(membership_changes)
        registry = get_registry()
        registry.counter(
            "broker_rebuilds_total", "grouping rebuilds performed"
        ).inc(kind="full" if full else "incremental")
        registry.counter(
            "broker_membership_changes_total",
            "subscriber join/leave operations across rebuilds",
        ).inc(int(membership_changes))
        registry.histogram(
            "broker_rebuild_seconds", "wall clock of one grouping rebuild"
        ).observe(float(seconds))

    @property
    def improvement_percentage(self) -> float:
        """Realised improvement over unicast on the 0-100 ideal scale."""
        headroom = self.total_unicast_cost - self.total_ideal_cost
        if headroom <= 1e-12:
            return 0.0
        return 100.0 * (self.total_unicast_cost - self.total_cost) / headroom

    @property
    def availability(self) -> float:
        """Fraction of owed subscriber deliveries actually made."""
        if self.expected_deliveries == 0:
            return 1.0
        return 1.0 - self.lost_deliveries / self.expected_deliveries

    @property
    def multicast_rate(self) -> float:
        """Fraction of events with interest that used a multicast group."""
        with_interest = self.n_events - self.n_no_interest
        if with_interest == 0:
            return 0.0
        return self.n_multicast / with_interest

    def as_dict(self) -> Dict[str, float]:
        return {
            "n_events": self.n_events,
            "n_multicast": self.n_multicast,
            "n_unicast_only": self.n_unicast_only,
            "n_no_interest": self.n_no_interest,
            "total_cost": self.total_cost,
            "total_unicast_cost": self.total_unicast_cost,
            "total_ideal_cost": self.total_ideal_cost,
            "total_wasted_deliveries": self.total_wasted_deliveries,
            "improvement_percentage": self.improvement_percentage,
            "multicast_rate": self.multicast_rate,
            "n_rebuilds": self.n_rebuilds,
            "n_full_rebuilds": self.n_full_rebuilds,
            "group_membership_changes": self.group_membership_changes,
            "total_rebuild_seconds": self.total_rebuild_seconds,
            "n_delivered": self.n_delivered,
            "n_degraded": self.n_degraded,
            "n_lost": self.n_lost,
            "expected_deliveries": self.expected_deliveries,
            "lost_deliveries": self.lost_deliveries,
            "availability": self.availability,
            "n_degraded_groups": self.n_degraded_groups,
            "unicast_fallback_cost": self.unicast_fallback_cost,
        }
