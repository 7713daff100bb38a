"""Delivery plans produced by the matchers.

A plan says how one published event is to be distributed: via zero or more
precomputed multicast groups, plus unicast to any interested subscribers
the groups do not cover.  The delivery layer turns plans into network
costs under either multicast framework.

Both matchers return a run of plans in one array form, :class:`PlanRun`
(at most one group per event, as Figures 5 and 6 choose it); a
:class:`DeliveryPlan` object is built from it only when one event is
read on its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import index as as_index
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["DeliveryPlan", "GroupTable", "PlanRun"]


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


class GroupTable:
    """The multicast groups a run's plans name: per group its sorted
    member ids (``lists``) and its boolean membership row (``masks``,
    ``(groups, subscribers)``), which the kernels test membership in.
    A grid clustering keeps both up to date through joins and leaves,
    so a run shares them as they stand; a matcher makes a new table
    per clustering version."""

    __slots__ = ("lists", "masks", "_csr")

    def __init__(self, lists: Sequence, masks: np.ndarray) -> None:
        self.lists = lists
        self.masks = masks
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The member lists as one ``(offsets, members)`` pair: group
        ``g``'s members are ``members[offsets[g]:offsets[g + 1]]``.
        Built on first use, so once per table."""
        if self._csr is None:
            lists = self.lists
            offsets = np.zeros(len(lists) + 1, dtype=np.int64)
            np.cumsum(
                np.fromiter(map(len, lists), np.int64, len(lists)),
                out=offsets[1:],
            )
            members = (
                np.concatenate(lists).astype(np.int64, copy=False)
                if len(lists) else np.empty(0, dtype=np.int64)
            )
            self._csr = (offsets, members)
        return self._csr

    @classmethod
    def of(cls, lists, width: int) -> "GroupTable":
        """The table of member arrays over subscriber ids below
        ``width``."""
        masks = np.zeros((len(lists), width), dtype=bool)
        for group, members in enumerate(lists):
            masks[group, members] = True
        return cls(lists, masks)


_NO_GROUPS = GroupTable([], np.zeros((0, 0), dtype=bool))


class _InterestSets(Sequence):
    """Each event's interested ids: views of a run's id buffer."""

    __slots__ = ("_bounds", "_ids")

    def __init__(self, bounds: np.ndarray, ids: np.ndarray) -> None:
        self._bounds = bounds
        self._ids = ids

    def __len__(self) -> int:
        return len(self._bounds) // 2

    def __getitem__(self, e):
        e = _event_index(e, len(self))
        return self._ids[self._bounds[2 * e]:self._bounds[2 * e + 1]]


def _event_index(e, n: int) -> int:
    e = as_index(e)
    if e < 0:
        e += n
    if not 0 <= e < n:
        raise IndexError("event index out of range")
    return e


class PlanRun(Sequence):
    """A run of delivery plans as arrays, one plan per event.

    ``bounds`` ``(2E + 1,)`` cuts ``ids``: event ``e``'s sorted unique
    interested ids are ``ids[bounds[2e]:bounds[2e + 1]]``.  ``groups[e]``
    is its multicast group (an index into ``table``) or ``-1``; with a
    group its unicast ids (interested, not members) are
    ``ids[bounds[2e + 1]:bounds[2e + 2]]``, without one that slice is
    empty and the whole interest set goes unicast.  This is the buffer
    the native ``match_run`` writes; ``price_dense`` reads it as is.

    Indexing builds the event's :class:`DeliveryPlan` (a unicast-only
    plan reuses its interest array, a group plan shares the table's
    member array), for the consumers that read one event at a time.
    """

    __slots__ = ("bounds", "groups", "ids", "table", "_interested")

    def __init__(
        self,
        bounds: np.ndarray,
        groups: np.ndarray,
        ids: np.ndarray,
        table: GroupTable = _NO_GROUPS,
    ) -> None:
        if len(bounds) != 2 * len(groups) + 1:
            raise ValueError("a run needs 2E + 1 bounds for E groups")
        self.bounds = bounds
        self.groups = groups
        self.ids = ids
        self.table = table
        self._interested: Optional[_InterestSets] = None

    @classmethod
    def of_interest(cls, interested) -> "PlanRun":
        """The unicast-only run of per-event interest arrays."""
        counts = np.fromiter(map(len, interested), np.int64, len(interested))
        ids = (
            np.concatenate(interested).astype(np.int64, copy=False)
            if len(interested) else np.empty(0, dtype=np.int64)
        )
        bounds = np.empty(2 * len(counts) + 1, dtype=np.int64)
        bounds[0] = 0
        np.cumsum(counts, out=bounds[1::2])
        bounds[2::2] = bounds[1::2]
        return cls(bounds, np.full(len(counts), -1, dtype=np.int64), ids)

    @classmethod
    def assemble(
        cls,
        ids: np.ndarray,
        counts: np.ndarray,
        groups: np.ndarray,
        table: GroupTable,
        threshold: Optional[float] = None,
    ) -> Tuple["PlanRun", int]:
        """The numpy reference of the run form, and the number of
        groups the threshold rule rejected.

        ``ids`` holds each event's sorted unique interested ids one
        event after another (``counts`` per event) and ``groups`` each
        event's candidate group or ``-1``; the table's membership rows
        make finding which interested ids a group covers one gather.
        With a ``threshold`` the Figure 5 rule drops a group none of
        whose members is interested, or whose interested share of its
        members is at most the threshold; without one every candidate
        group is used (No-Loss, Figure 6)."""
        n_events = len(counts)
        groups = np.asarray(groups, dtype=np.int64)
        event = np.repeat(np.arange(n_events), counts)
        grouped = groups[event] >= 0
        in_group = np.zeros(len(ids), dtype=bool)
        in_group[grouped] = table.masks[
            groups[event[grouped]], ids[grouped]
        ]
        n_fallbacks = 0
        if threshold is not None:
            members = np.bincount(event[in_group], minlength=n_events)
            sizes = np.count_nonzero(table.masks, axis=1)[
                np.maximum(groups, 0)
            ] if len(table.lists) else np.zeros(n_events, dtype=np.int64)
            proportion = np.zeros(n_events)
            np.divide(members, sizes, out=proportion, where=sizes > 0)
            use = (members > 0) & (proportion > threshold)
            n_fallbacks = int(np.count_nonzero((groups >= 0) & ~use))
            groups = np.where(use, groups, -1)
            grouped &= use[event]
        unicast = grouped & ~in_group
        # each event's interested ids, then its unicast ids
        keys = np.concatenate((2 * event, 2 * event[unicast] + 1))
        order = np.argsort(keys, kind="stable")
        run_ids = np.concatenate((ids, ids[unicast]))[order]
        bounds = np.searchsorted(keys[order], np.arange(2 * n_events + 1))
        return cls(bounds, groups, run_ids, table), n_fallbacks

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.groups)

    def __getitem__(self, e) -> DeliveryPlan:
        if isinstance(e, slice):
            return [self[i] for i in range(*e.indices(len(self)))]
        e = _event_index(e, len(self))
        start, mid, stop = self.bounds[2 * e:2 * e + 3].tolist()
        interested = self.ids[start:mid]
        group = int(self.groups[e])
        if group < 0:
            return DeliveryPlan(
                interested=interested, unicast_subscribers=interested
            )
        return DeliveryPlan(
            interested, [group], [self.table.lists[group]],
            self.ids[mid:stop],
        )

    @property
    def interested(self) -> _InterestSets:
        """Each event's interested ids (views, built on access)."""
        if self._interested is None:
            self._interested = _InterestSets(self.bounds, self.ids)
        return self._interested

    def n_interested(self) -> np.ndarray:
        """Interested subscribers per event."""
        return self.bounds[1::2] - self.bounds[0:-1:2]

    def n_unicast(self) -> np.ndarray:
        """Unicast legs per event (the whole interest set without a
        group)."""
        bounds = self.bounds
        return np.where(
            self.groups >= 0, bounds[2::2] - bounds[1::2],
            bounds[1::2] - bounds[0:-1:2],
        )
