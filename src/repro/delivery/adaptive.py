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

from typing import Dict, NamedTuple, Sequence

import numpy as np

from ..matching import PlanRun
from ..obs import get_registry
from .dispatcher import Dispatcher

__all__ = ["AdaptiveDeliveryPolicy", "DecisionRun", "MODES"]

#: the modes, in the order the first-minimum rule prefers them on ties
MODES = ("unicast", "multicast", "broadcast")


class DecisionRun(NamedTuple):
    """A run's decisions as columns: per event the chosen ``mode`` (an
    index into :data:`MODES`) and its ``cost``."""

    mode: np.ndarray
    cost: np.ndarray


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
        self.mode_counts: Dict[str, int] = {mode: 0 for mode in MODES}
        # instruments bound once: decide() runs on every publish run
        registry = get_registry()
        counter = registry.counter(
            "delivery_mode_total", "adaptive per-event mode decisions"
        )
        self._mode_children = [counter.labels(mode=mode) for mode in MODES]
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
        plans: PlanRun,
        unicast: Sequence[float],
        plan_cost: Sequence[float],
        broadcast: Sequence[float],
    ) -> DecisionRun:
        """Pick the cheapest of {unicast, plan-multicast, broadcast} for
        each event of a run, as a column comparison.

        ``plans`` is the run's :class:`PlanRun`; ``unicast``,
        ``plan_cost`` and ``broadcast`` are its events' priced costs
        (the columns of :meth:`Dispatcher.price_run`).  Multicast is a
        candidate when the plan uses a group, broadcast (times the
        penalty) when anyone is interested; ties go to the first of
        unicast, multicast, broadcast.  ``delivery_mode_total``
        is incremented once per mode of the run; the cost-gap histogram
        observes each event in order.
        """
        bounds = plans.bounds
        uses_multicast = plans.groups >= 0
        has_interest = bounds[1::2] > bounds[0:-1:2]
        unicast = np.asarray(unicast, dtype=np.float64)
        multicast = np.asarray(plan_cost, dtype=np.float64)
        flood = np.asarray(broadcast, dtype=np.float64)
        if self.broadcast_penalty != 1.0:
            flood = flood * self.broadcast_penalty
        # a later candidate wins only when strictly cheaper
        fixed = np.where(uses_multicast, multicast, unicast)
        to_multicast = fixed < unicast
        cost = np.where(to_multicast, multicast, unicast)
        to_flood = has_interest & (flood < cost)
        np.copyto(cost, flood, where=to_flood)
        mode = np.where(to_flood, 2, to_multicast)
        # the cost the fixed policy (the matcher's plan) would have paid
        # beyond the choice
        self._gap_hist.observe_many(fixed - cost)
        for code, n in enumerate(np.bincount(mode, minlength=3).tolist()):
            if n:
                self.mode_counts[MODES[code]] += n
                self._mode_children[code].inc(n)
        return DecisionRun(mode, cost)
