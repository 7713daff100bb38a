"""Subscription aggregation: collapse identical rectangles.

At millions of subscriptions the width ``m`` of the membership matrix
dominates every hot path — the pairwise fit, the K-means passes, the
grid build and the batch interest sweep all scale with it.  Real
workloads are heavily skewed (Shi et al., "Towards Scalable Subscription
Aggregation and Real Time Event Matching in a Large-Scale Content-Based
Network"): many subscribers register the *same* rectangle.

This module collapses identical rectangles into one *aggregate* carrying
a multiplicity (how many subscription rows it stands for) — the exact,
lossless reduction every downstream consumer can run on.

The invariants the test battery enforces:

* multiplicities sum to the number of live subscription rows;
* expanding an aggregate-level result back to subscriber level is
  byte-identical to the unaggregated computation (matching, grid build,
  fits, delivery stats);
* ``expand_rows`` (de-aggregation) reproduces the original bounds
  exactly.

Aggregates are ordered by their smallest member subscriber id.  That
ordering is load-bearing: it makes the lexicographic order of packed
grid-cell membership rows over aggregate columns coincide with the
order over subscriber columns, so ``np.unique`` produces hypercells in
the same order with or without aggregation (see docs/aggregation.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["AggregateSet", "aggregate_subscriptions"]


@dataclass(frozen=True)
class AggregateSet:
    """The distinct live rectangles of a subscription set, with members.

    ``los``/``his`` are ``(n_agg, N)`` bound matrices in min-member
    order; ``members[a]``/``owners[a]`` list the subscription rows and
    subscriber ids collapsed into aggregate ``a`` (both ascending);
    ``agg_of_row`` maps every subscription row to its aggregate (``-1``
    for departed rows).
    """

    los: np.ndarray
    his: np.ndarray
    members: Tuple[np.ndarray, ...]
    owners: Tuple[np.ndarray, ...]
    agg_of_row: np.ndarray
    multiplicity: np.ndarray
    n_subscriptions: int

    # ------------------------------------------------------------------
    @property
    def n_aggregates(self) -> int:
        return len(self.multiplicity)

    @property
    def aggregation_ratio(self) -> float:
        """Live subscriptions per aggregate (1.0 = nothing collapsed)."""
        if self.n_aggregates == 0:
            return 1.0
        return self.n_subscriptions / self.n_aggregates

    # ------------------------------------------------------------------
    def subscriber_map(self, n_subscribers: int) -> np.ndarray:
        """Aggregate index per subscriber id (``-1`` for departed ids).

        Requires each live subscriber to own exactly one subscription
        row — the shape every generator and the broker produce — since
        a subscriber with several rows belongs to several aggregates.
        """
        sub_map = np.full(n_subscribers, -1, dtype=np.int64)
        total = 0
        for a, owner_list in enumerate(self.owners):
            if len(owner_list) != len(self.members[a]):
                raise ValueError(
                    "subscriber_map needs one subscription row per "
                    "subscriber; some subscriber owns several rows"
                )
            sub_map[owner_list] = a
            total += len(owner_list)
        if total != self.n_subscriptions:
            raise ValueError(
                "subscriber_map needs one subscription row per subscriber"
            )
        return sub_map

    def expand_rows(self, n_rows: int) -> Tuple[np.ndarray, np.ndarray]:
        """De-aggregate: per-row ``(los, his)`` bounds reconstructed from
        the aggregates.  Departed rows come back blanked
        (``lo=+inf, hi=-inf``), exactly as :class:`SubscriptionSet`
        stores them — the round trip is the identity.
        """
        n_dims = self.los.shape[1]
        los = np.full((n_rows, n_dims), np.inf, dtype=np.float64)
        his = np.full((n_rows, n_dims), -np.inf, dtype=np.float64)
        alive = self.agg_of_row[:n_rows] >= 0
        rows = np.nonzero(alive)[0]
        los[rows] = self.los[self.agg_of_row[rows]]
        his[rows] = self.his[self.agg_of_row[rows]]
        return los, his


def aggregate_subscriptions(subscriptions) -> AggregateSet:
    """Group the live rows of a :class:`SubscriptionSet` by rectangle.

    Rows with identical bounds become one aggregate; aggregates are
    ordered by smallest member subscriber id (ties by smallest row).
    """
    los, his = subscriptions.bounds()
    owners = subscriptions.row_owners
    alive_rows = np.nonzero(subscriptions.alive_rows)[0]
    n_rows = len(owners)
    agg_of_row = np.full(n_rows, -1, dtype=np.int64)

    if len(alive_rows) == 0:
        return AggregateSet(
            los=np.empty((0, los.shape[1]), dtype=np.float64),
            his=np.empty((0, his.shape[1]), dtype=np.float64),
            members=(),
            owners=(),
            agg_of_row=agg_of_row,
            multiplicity=np.empty(0, dtype=np.int64),
            n_subscriptions=0,
        )

    keys = np.concatenate(
        [los[alive_rows], his[alive_rows]], axis=1
    )
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    boundaries = np.nonzero(np.diff(inverse[order]))[0] + 1
    groups = np.split(alive_rows[order], boundaries)

    min_owner = np.array(
        [owners[g].min() for g in groups], dtype=np.int64
    )
    min_row = np.array([g[0] for g in groups], dtype=np.int64)
    perm = np.lexsort((min_row, min_owner))

    n_agg = len(groups)
    members = tuple(np.sort(groups[p]) for p in perm)
    owner_lists = tuple(
        np.unique(owners[member_rows]) for member_rows in members
    )
    for a, member_rows in enumerate(members):
        agg_of_row[member_rows] = a

    n_dims = los.shape[1]
    agg_los = uniq[perm, :n_dims].copy()
    agg_his = uniq[perm, n_dims:].copy()
    multiplicity = np.array(
        [len(member_rows) for member_rows in members], dtype=np.int64
    )
    return AggregateSet(
        los=agg_los,
        his=agg_his,
        members=members,
        owners=owner_lists,
        agg_of_row=agg_of_row,
        multiplicity=multiplicity,
        n_subscriptions=int(len(alive_rows)),
    )
