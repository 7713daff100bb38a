"""Dynamic unicast / multicast / broadcast selection.

The paper's abstract: "Some of these same concepts can be applied ...
to determine dynamically whether to unicast, multicast or broadcast
information about the events over the network to the matched
subscribers."  This module implements that per-event decision: price
the matcher's plan, the pure-unicast fallback and a broadcast (which
reaches a superset of the matched subscribers — permitted explicitly by
the paper, "possibly to a superset of those subscribers ... to be
filtered out as necessary"), and execute the cheapest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..matching import DeliveryPlan
from ..obs import get_registry
from .dispatcher import Dispatcher

__all__ = ["AdaptiveDecision", "AdaptiveDeliveryPolicy"]


@dataclass(frozen=True)
class AdaptiveDecision:
    """Outcome of the per-event mode selection."""

    mode: str  # "unicast" | "multicast" | "broadcast"
    cost: float
    candidate_costs: Dict[str, float]

    @property
    def savings_vs_unicast(self) -> float:
        return self.candidate_costs["unicast"] - self.cost

    @property
    def realized_gap(self) -> float:
        """Cost the fixed policy (execute the matcher's plan) would have
        paid beyond the adaptive choice.  Zero when the plan was already
        the cheapest mode."""
        realized = self.candidate_costs.get(
            "multicast", self.candidate_costs["unicast"]
        )
        return realized - self.cost


class AdaptiveDeliveryPolicy:
    """Chooses the cheapest delivery mode per event.

    ``broadcast_penalty`` (>= 1) discounts against broadcast: delivering
    to every node costs filtering work at uninterested nodes, so a
    deployment may require broadcast to be strictly cheaper by a factor
    before flooding.  ``multicast`` is only considered when the plan
    actually uses a group.
    """

    def __init__(
        self, dispatcher: Dispatcher, broadcast_penalty: float = 1.0
    ) -> None:
        if broadcast_penalty < 1.0:
            raise ValueError("broadcast_penalty must be at least 1")
        self.dispatcher = dispatcher
        self.broadcast_penalty = broadcast_penalty
        #: per-mode selection counts, for reporting
        self.mode_counts: Dict[str, int] = {
            "unicast": 0,
            "multicast": 0,
            "broadcast": 0,
        }
        # instruments bound once: decide() runs on every publish run
        registry = get_registry()
        counter = registry.counter(
            "delivery_mode_total", "adaptive per-event mode decisions"
        )
        self._mode_children = {
            mode: counter.labels(mode=mode) for mode in self.mode_counts
        }
        self._gap_hist = registry.histogram(
            "delivery_mode_cost_gap",
            "cost the matcher's fixed plan would have paid beyond the "
            "adaptive choice",
            buckets=(0.0, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
                     5000.0),
        ).labels()

    # ------------------------------------------------------------------
    def decide(
        self,
        plans: Sequence[DeliveryPlan],
        unicast: Sequence[float],
        plan_cost: Sequence[float],
        broadcast: Sequence[float],
    ) -> List[AdaptiveDecision]:
        """Pick the cheapest of {unicast, plan-multicast, broadcast} for
        each event of a run.

        ``unicast``, ``plan_cost`` and ``broadcast`` are the events'
        priced costs (the columns of :meth:`Dispatcher.price_run`).
        ``delivery_mode_total`` is incremented once per mode of the
        run; the cost-gap histogram observes each event in order.
        """
        decisions = []
        tally: Dict[str, int] = {}
        penalty = self.broadcast_penalty
        observe = self._gap_hist.observe
        for plan, uni, multi, flood in zip(
            plans, unicast, plan_cost, broadcast
        ):
            candidates: Dict[str, float] = {"unicast": uni}
            if plan.uses_multicast:
                candidates["multicast"] = multi
            if len(plan.interested):
                candidates["broadcast"] = flood * penalty
            mode = min(candidates, key=candidates.get)
            tally[mode] = tally.get(mode, 0) + 1
            decision = AdaptiveDecision(
                mode=mode,
                cost=candidates[mode],
                candidate_costs=candidates,
            )
            observe(decision.realized_gap)
            decisions.append(decision)
        for mode, n in tally.items():
            self.mode_counts[mode] += n
            self._mode_children[mode].inc(n)
        return decisions

    # ------------------------------------------------------------------
    def mode_rates(self) -> Dict[str, float]:
        """Fraction of decisions per mode."""
        total = sum(self.mode_counts.values())
        if total == 0:
            return {mode: 0.0 for mode in self.mode_counts}
        return {
            mode: count / total for mode, count in self.mode_counts.items()
        }
