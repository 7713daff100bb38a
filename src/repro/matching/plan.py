"""Delivery plans produced by the matchers.

A plan says how one published event is to be distributed: via zero or more
precomputed multicast groups, plus unicast to any interested subscribers
the groups do not cover.  The delivery layer turns plans into network
costs under either multicast framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["DeliveryPlan"]


@dataclass
class DeliveryPlan:
    """How to deliver one event.

    Attributes
    ----------
    interested:
        Ground truth: subscriber ids interested in the event.
    group_ids:
        Identifiers of the multicast groups the message is sent to
        (indices into the clustering result; informational).
    group_members:
        Subscriber composition of each used multicast group.
    unicast_subscribers:
        Interested subscribers not covered by any used group, to be
        reached by unicast.
    """

    interested: np.ndarray
    group_ids: List[int] = field(default_factory=list)
    group_members: List[np.ndarray] = field(default_factory=list)
    unicast_subscribers: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    def __post_init__(self) -> None:
        if len(self.group_ids) != len(self.group_members):
            raise ValueError("group_ids / group_members length mismatch")

    # ------------------------------------------------------------------
    @property
    def uses_multicast(self) -> bool:
        return bool(self.group_ids)

    def covered_subscribers(self) -> np.ndarray:
        """All subscribers that receive the message (sorted, unique)."""
        parts = [np.asarray(m, dtype=np.int64) for m in self.group_members]
        parts.append(np.asarray(self.unicast_subscribers, dtype=np.int64))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def audit(self) -> int:
        """Validate completeness and return the wasted-delivery count.

        Raises ``AssertionError`` if an interested subscriber is left
        unreached; otherwise returns how many covered subscribers are not
        interested.  One pass over the covered set answers both.
        Assumes ``interested`` is sorted and unique, as every matcher
        produces it.
        """
        if not self.group_members and self.unicast_subscribers is self.interested:
            return 0  # pure-unicast plan reusing the interest array
        covered = self.covered_subscribers()
        interested = np.asarray(self.interested, dtype=np.int64)
        if interested.size:
            if covered.size == 0:
                raise AssertionError(
                    "delivery plan misses interested subscribers: "
                    f"{interested[:10]}"
                )
            idx = np.searchsorted(covered, interested)
            present = (idx < covered.size) & (
                covered[np.minimum(idx, covered.size - 1)] == interested
            )
            if not present.all():
                raise AssertionError(
                    "delivery plan misses interested subscribers: "
                    f"{interested[~present][:10]}"
                )
        return int(covered.size - interested.size)
