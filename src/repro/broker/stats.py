"""Delivery receipts and the statistics the broker accumulates from them.

:class:`DeliveryStats` keeps the per-broker running totals the tests and
reports read directly; every fold also mirrors into the process-wide
:mod:`repro.obs` registry (``broker_events_total``,
``broker_rebuilds_total``, ``broker_membership_changes_total``,
``broker_rebuild_seconds``) so broker activity shows up in the same
snapshot as the rest of the pipeline.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import fold_sum, get_registry

__all__ = ["DeliveryReceipt", "DeliveryStats", "ReceiptRun"]

#: the fault-aware outcome of a publication
OUTCOMES = ("delivered", "degraded", "lost")
#: how an event counts in ``broker_events_total``
KINDS = ("no_interest", "multicast", "unicast_only")

#: the publish-path counters: (name, description, label)
_EVENTS = ("broker_events_total", "events delivered by brokers", "kind")
_PUBLICATIONS = (
    "broker_publications_total",
    "publication outcomes under fault injection",
    "outcome",
)
_LOST = (
    "broker_lost_deliveries_total",
    "subscriber deliveries lost to failed network elements",
)


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


class ReceiptRun(Sequence):
    """A run's receipts as columns, in event order.

    ``mode`` indexes ``modes`` per event.  ``faults`` is ``None`` when
    every publication was delivered as priced (the intact-network path),
    else the ``(outcome, lost_deliveries, degraded_groups,
    fallback_cost)`` columns, ``outcome`` indexing :data:`OUTCOMES`.
    Indexing builds one event's :class:`DeliveryReceipt`.
    """

    __slots__ = (
        "n_interested", "used_multicast", "cost", "unicast_cost",
        "ideal_cost", "wasted", "mode", "modes", "faults",
    )

    def __init__(
        self,
        n_interested: np.ndarray,
        used_multicast: np.ndarray,
        cost: np.ndarray,
        unicast_cost: np.ndarray,
        ideal_cost: np.ndarray,
        wasted: np.ndarray,
        mode: np.ndarray,
        modes: Tuple[str, ...],
        faults: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> None:
        self.n_interested = n_interested
        self.used_multicast = used_multicast
        self.cost = cost
        self.unicast_cost = unicast_cost
        self.ideal_cost = ideal_cost
        self.wasted = wasted
        self.mode = mode
        self.modes = modes
        self.faults = faults

    @classmethod
    def idle(cls, n_events: int) -> "ReceiptRun":
        """A run published to a broker with no subscriptions."""
        zeros = np.zeros(n_events, dtype=np.int64)
        costs = np.zeros(n_events, dtype=np.float64)
        return cls(
            zeros, zeros.astype(bool), costs, costs, costs, zeros, zeros,
            ("plan",),
        )

    @classmethod
    def of(cls, receipts: List[DeliveryReceipt]) -> "ReceiptRun":
        """The columns of per-event receipts (the fault path's)."""
        modes: Dict[str, int] = {}
        for receipt in receipts:
            if receipt.outcome not in OUTCOMES:
                raise ValueError(f"unknown outcome {receipt.outcome!r}")
            modes.setdefault(receipt.mode, len(modes))

        def column(name, dtype):
            return np.array(
                [getattr(receipt, name) for receipt in receipts], dtype=dtype
            )

        return cls(
            column("n_interested", np.int64),
            column("used_multicast", bool),
            column("cost", np.float64),
            column("unicast_cost", np.float64),
            column("ideal_cost", np.float64),
            column("wasted_deliveries", np.int64),
            np.array([modes[r.mode] for r in receipts], dtype=np.int64),
            tuple(modes),
            (
                np.array(
                    [OUTCOMES.index(r.outcome) for r in receipts],
                    dtype=np.int64,
                ),
                column("lost_deliveries", np.int64),
                column("degraded_groups", np.int64),
                column("fallback_cost", np.float64),
            ),
        )

    def __len__(self) -> int:
        return len(self.cost)

    def __getitem__(self, e) -> DeliveryReceipt:
        if not -len(self) <= e < len(self):
            raise IndexError("event index out of range")
        fields = {}
        if self.faults is not None:
            outcome, lost, degraded, fallback = self.faults
            fields = dict(
                outcome=OUTCOMES[outcome[e]],
                lost_deliveries=int(lost[e]),
                degraded_groups=int(degraded[e]),
                fallback_cost=float(fallback[e]),
            )
        return DeliveryReceipt(
            n_interested=int(self.n_interested[e]),
            used_multicast=bool(self.used_multicast[e]),
            cost=float(self.cost[e]),
            unicast_cost=float(self.unicast_cost[e]),
            ideal_cost=float(self.ideal_cost[e]),
            wasted_deliveries=int(self.wasted[e]),
            mode=self.modes[self.mode[e]],
            **fields,
        )

    def outcomes(self) -> List[str]:
        """Each event's outcome."""
        if self.faults is None:
            return ["delivered"] * len(self)
        return [OUTCOMES[code] for code in self.faults[0].tolist()]

    def lost_rates(self) -> List[float]:
        """Each event's lost share of its interested subscribers."""
        if self.faults is None:
            return [0.0] * len(self)
        return [
            lost / max(1, n)
            for lost, n in zip(
                self.faults[1].tolist(), self.n_interested.tolist()
            )
        ]


def _tally(codes) -> Dict[int, int]:
    """How often each code occurs, keyed in order of first occurrence
    (the order a per-event fold creates the registry's children in)."""
    counts: Dict[int, int] = {}
    for code in codes:
        counts[code] = counts.get(code, 0) + 1
    return counts


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

    def record_run(self, receipts: ReceiptRun) -> None:
        """Fold a run of publications' receipts into the totals.

        The columns fold in event order, so every running float sum is
        the one a per-event fold produces.  ``outcome`` is the
        fault-aware classification: ``"delivered"`` (the plan executed
        as priced), ``"degraded"`` (unicast fallback and/or partial
        audience loss) or ``"lost"`` (nobody reachable).  Every
        interested subscriber lands in ``expected_deliveries`` and
        either reaches its node or is counted in ``lost_deliveries``.
        The registry counters are tallied per kind and outcome (first
        occurrence first) and incremented once each per run.
        """
        n_events = len(receipts)
        if not n_events:
            return
        n_interested = receipts.n_interested.tolist()
        self.n_events += n_events
        self.total_cost = fold_sum(self.total_cost, receipts.cost)
        self.total_unicast_cost = fold_sum(
            self.total_unicast_cost, receipts.unicast_cost
        )
        self.total_ideal_cost = fold_sum(
            self.total_ideal_cost, receipts.ideal_cost
        )
        self.total_wasted_deliveries += sum(receipts.wasted.tolist())
        self.expected_deliveries += sum(n_interested)
        kinds = _tally(
            0 if not n else 1 if used else 2
            for n, used in zip(
                n_interested, receipts.used_multicast.tolist()
            )
        )
        self.n_no_interest += kinds.get(0, 0)
        self.n_multicast += kinds.get(1, 0)
        self.n_unicast_only += kinds.get(2, 0)
        lost_total = 0
        if receipts.faults is None:
            outcomes = {0: n_events}
        else:
            outcome, lost, degraded, fallback = receipts.faults
            outcomes = _tally(outcome.tolist())
            lost_total = sum(lost.tolist())
            self.lost_deliveries += lost_total
            self.n_degraded_groups += sum(degraded.tolist())
            self.unicast_fallback_cost = fold_sum(
                self.unicast_fallback_cost, fallback
            )
        self.n_delivered += outcomes.get(0, 0)
        self.n_degraded += outcomes.get(1, 0)
        self.n_lost += outcomes.get(2, 0)
        registry = get_registry()
        for kind, n in kinds.items():
            registry.counter_child(*_EVENTS, KINDS[kind]).inc(n)
        for outcome, n in outcomes.items():
            registry.counter_child(*_PUBLICATIONS, OUTCOMES[outcome]).inc(n)
        if lost_total:
            registry.counter_child(*_LOST).inc(lost_total)

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
