"""Common interfaces of the subscription clustering algorithms.

Every grid-based algorithm (K-means, Forgy, MST, Pairwise Grouping)
partitions the selected hyper-cells into at most ``K`` multicast groups.
The result object carries the per-group membership vectors (which *are*
the multicast groups: the subscribers whose interest touches any cell of
the group) and the cell-to-group map the grid matcher uses at event time.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..grid import CellSet
from ..kernels import PackedBits, pack_rows
from ..obs import get_registry, get_tracer

__all__ = ["Clustering", "GridClusteringAlgorithm"]


@dataclass
class Clustering:
    """A partition of hyper-cells into multicast groups.

    Attributes
    ----------
    cells:
        The hyper-cells that were clustered.
    assignment:
        ``(m,)`` int array: hyper-cell -> group index in ``0..n_groups-1``.
    group_membership:
        ``(n_groups, n_subscribers)`` boolean matrix; row ``g`` is the
        union of the membership vectors of the group's hyper-cells —
        i.e. the subscriber composition of multicast group ``g``.
    group_probs:
        ``(n_groups,)`` publication probability mass of each group.
    """

    cells: CellSet
    assignment: np.ndarray
    group_membership: np.ndarray = field(init=False)
    group_probs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.shape != (len(self.cells),):
            raise ValueError("assignment must map every hyper-cell")
        if len(assignment) and assignment.min() < 0:
            raise ValueError("every hyper-cell must belong to a group")
        self.assignment = assignment
        n_groups = int(assignment.max()) + 1 if len(assignment) else 0
        # union the member rows in packed form (one OR-reduce over
        # uint64 words per group) and unpack once; identical to
        # any(axis=0) over the boolean rows
        packed_cells = self.cells.packed
        group_words = np.zeros(
            (n_groups, packed_cells.n_words), dtype=np.uint64
        )
        probs = np.zeros(n_groups, dtype=np.float64)
        for g in range(n_groups):
            members = assignment == g
            if not members.any():
                raise ValueError(f"group {g} is empty")
            group_words[g] = np.bitwise_or.reduce(
                packed_cells.words[members], axis=0
            )
            probs[g] = self.cells.probs[members].sum()
        packed_groups = PackedBits(group_words, packed_cells.n_bits)
        self.group_membership = packed_groups.unpack()
        self.group_probs = probs
        self._member_lists: Optional[List[np.ndarray]] = None
        self._version = 0
        self._packed_groups: Optional[PackedBits] = packed_groups
        self._packed_groups_version = 0

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.group_membership)

    def subscribers_of_group(self, group: int) -> np.ndarray:
        """Subscriber ids composing a multicast group."""
        return np.nonzero(self.group_membership[group])[0]

    def group_member_lists(self) -> List[np.ndarray]:
        """Per-group subscriber id arrays (sorted), computed once.

        The matchers build one delivery plan per event; sharing these
        arrays keeps plan assembly at a lookup instead of a
        ``np.nonzero`` per event, and lets the dispatcher's cost cache
        key repeated groups cheaply.
        """
        if self._member_lists is None:
            self._member_lists = [
                np.nonzero(self.group_membership[g])[0]
                for g in range(self.n_groups)
            ]
        return self._member_lists

    # ------------------------------------------------------------------
    # incremental membership maintenance (the online runtime's hooks)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Bumped on every incremental membership mutation.

        Consumers that cache derived state (the grid matcher's member
        lists and group sizes) compare against this to refresh lazily.
        """
        return self._version

    def ensure_subscribers(self, n_subscribers: int) -> None:
        """Grow the membership matrix to cover ``n_subscribers`` columns.

        New columns are all-False: a freshly joined subscriber belongs to
        no group until :meth:`add_member` places it.  Growth doubles the
        column capacity so a stream of joins costs amortised O(1) copies.
        """
        current = self.group_membership.shape[1]
        if n_subscribers <= current:
            return
        buf = getattr(self, "_membership_buf", None)
        if buf is None or buf.shape[1] < n_subscribers:
            capacity = max(n_subscribers, 2 * current)
            buf = np.zeros(
                (self.group_membership.shape[0], capacity), dtype=bool
            )
            buf[:, :current] = self.group_membership
            self._membership_buf = buf
        # new columns are all-False: every member list stays as it is
        self.group_membership = buf[:, :n_subscribers]
        self._version += 1

    def add_member(self, group: int, subscriber: int) -> None:
        """Incrementally add a subscriber to one multicast group.

        This is the online join hook: the cell structure (``cells``,
        ``assignment``) is left untouched — only the group's membership
        vector gains the subscriber, exactly as a multicast substrate
        would process a group join.  ``total_expected_waste`` goes stale
        after incremental mutations; the online maintainer tracks the
        live waste instead.
        """
        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} out of range")
        self.ensure_subscribers(subscriber + 1)
        if not self.group_membership[group, subscriber]:
            self.group_membership[group, subscriber] = True
            self._patch_member_lists([group], subscriber, insert=True)
        self._version += 1

    def remove_member(self, subscriber: int) -> None:
        """Incrementally drop a subscriber from every multicast group."""
        if not 0 <= subscriber < self.group_membership.shape[1]:
            return
        groups = np.nonzero(self.group_membership[:, subscriber])[0]
        self.group_membership[groups, subscriber] = False
        self._patch_member_lists(groups.tolist(), subscriber, insert=False)
        self._version += 1

    def _patch_member_lists(
        self, groups: Sequence[int], subscriber: int, insert: bool
    ) -> None:
        """Insert or drop one subscriber in the cached member lists of
        the touched groups.  Each touched group gets a new array (plans
        made before share the old one) and the list itself is copied,
        so a list handed out before stays as it was."""
        if self._member_lists is None or not len(groups):
            return
        lists = list(self._member_lists)
        for g in groups:
            members = lists[g]
            at = int(np.searchsorted(members, subscriber))
            if insert:
                lists[g] = np.insert(members, at, subscriber)
            else:
                lists[g] = np.delete(members, at)
        self._member_lists = lists

    def groups_of_subscriber(self, subscriber: int) -> np.ndarray:
        """Multicast groups whose membership vector includes a subscriber."""
        if not 0 <= subscriber < self.group_membership.shape[1]:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.group_membership[:, subscriber])[0]

    def groups_of_grid_cells(self, flat_cells: Sequence[int]) -> np.ndarray:
        """Multicast group of each flat grid cell (-1 when unassigned).

        ``-1`` entries (events outside the grid) and cells without a
        hyper-cell map to ``-1``.
        """
        flat = np.asarray(flat_cells, dtype=np.int64)
        groups = np.full(flat.shape, -1, dtype=np.int64)
        valid = flat >= 0
        if valid.any():
            hyper = self.cells.hypercell_of_cell[flat[valid]].astype(np.int64)
            assigned = np.where(
                hyper >= 0, self.assignment[np.maximum(hyper, 0)], -1
            )
            groups[valid] = assigned
        return groups

    def group_sizes(self) -> np.ndarray:
        """Number of subscribers in each group."""
        return self.group_membership.sum(axis=1)

    def _group_packed(self) -> PackedBits:
        """Packed group membership rows, refreshed on version bumps."""
        if (
            self._packed_groups is None
            or self._packed_groups_version != self._version
        ):
            self._packed_groups = pack_rows(self.group_membership)
            self._packed_groups_version = self._version
        return self._packed_groups

    # ------------------------------------------------------------------
    def total_expected_waste(self) -> float:
        """Objective value: expected wasted deliveries per published event.

        For hyper-cell ``a`` in group ``G`` the waste contribution is
        ``p_p(a) * |s(G) \\ s(a)|``; summing over all clustered cells gives
        the expectation (restricted to events landing in clustered cells).
        """
        group_sizes = self.group_membership.sum(axis=1).astype(np.float64)
        # |s(a) ∩ s(G)| via one AND + popcount over each cell's packed
        # row against its own group's packed row; the counts are exact
        # integers, so this matches the float32-matmul formulation bit
        # for bit
        cell_words = self.cells.packed.words
        chosen = self._group_packed().words[self.assignment]
        per_cell = (
            np.bitwise_count(cell_words & chosen)
            .sum(axis=1, dtype=np.int64)
            .astype(np.float64)
        )
        extra = group_sizes[self.assignment] - per_cell
        return float(np.sum(self.cells.probs * extra))


class GridClusteringAlgorithm(abc.ABC):
    """A grid-based subscription clustering algorithm (section 4)."""

    #: human-readable name used in reports and figures
    name: str = "abstract"

    @abc.abstractmethod
    def fit(
        self,
        cells: CellSet,
        n_groups: int,
        rng: Optional[np.random.Generator] = None,
    ) -> Clustering:
        """Partition ``cells`` into at most ``n_groups`` multicast groups."""

    @staticmethod
    def _validate(cells: CellSet, n_groups: int) -> None:
        if n_groups < 1:
            raise ValueError("need at least one group")
        if len(cells) == 0:
            raise ValueError("cannot cluster an empty cell set")

    @staticmethod
    def _compact_assignment(raw: np.ndarray) -> np.ndarray:
        """Renumber group labels to a dense 0..n-1 range."""
        _, dense = np.unique(raw, return_inverse=True)
        return dense.reshape(-1)

    # ------------------------------------------------------------------
    # observability helpers shared by every algorithm's fit()
    # ------------------------------------------------------------------
    def _fit_span(self, cells: CellSet, n_groups: int):
        """Tracer span wrapping one fit (no-op while tracing is off)."""
        return get_tracer().span(
            "clustering.fit",
            algorithm=self.name,
            n_cells=len(cells),
            n_groups=n_groups,
        )

    def _record_fit(
        self,
        iterations: Optional[int] = None,
        merges: Optional[int] = None,
        distance_evals: Optional[int] = None,
    ) -> None:
        """Fold one fit's work counters into the registry."""
        registry = get_registry()
        registry.counter(
            "clustering_fit_total", "clustering fits performed"
        ).inc(algorithm=self.name)
        if iterations is not None:
            registry.counter(
                "clustering_iterations_total",
                "refinement iterations across fits",
            ).inc(iterations, algorithm=self.name)
        if merges is not None:
            registry.counter(
                "clustering_merges_total",
                "agglomerative merge steps across fits",
            ).inc(merges, algorithm=self.name)
        if distance_evals:
            registry.counter(
                "clustering_distance_evals_total",
                "pairwise expected-waste distance evaluations",
            ).inc(distance_evals)
