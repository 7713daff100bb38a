"""K-means and Forgy K-means subscription clustering (section 4.2).

Both variants start from the same initial partition: the ``K`` hyper-cells
with the highest popularity rating become the group centroids and every
other hyper-cell joins the closest group under the expected-waste
distance.  They differ in the update schedule:

* **K-means** (MacQueen) re-examines hyper-cells one at a time and updates
  the group membership vector *immediately* after every move.
* **Forgy K-means** reassigns all hyper-cells against frozen group
  vectors and updates all groups only at the end of the sweep.

A hyper-cell never leaves a group it is the last member of, so groups
stay non-empty (in the Forgy batch update, a group emptied by the sweep
is re-seeded with the cell that is farthest from its chosen group).

MacQueen's one-cell-at-a-time sweeps are a python loop over the cells.
A compiled kernel backend runs them all in one call instead
(``kmeans_sweeps``, see docs/kernels.md), move for move identical:
the intersections it counts as integers are the exact integers the
loop's float32 matvec yields.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..grid import CellSet
from ..kernels import get_backend, pack_rows
from .base import Clustering, GridClusteringAlgorithm
from .distance import waste_to_clusters

__all__ = ["KMeansClustering", "ForgyKMeansClustering"]


class _KMeansBase(GridClusteringAlgorithm):
    """Shared initialisation of the two K-means variants."""

    def __init__(
        self,
        max_iters: int = 100,
        initial_assignment: Optional[np.ndarray] = None,
    ) -> None:
        """``initial_assignment`` warm-starts the iteration from an
        existing partition (hyper-cell -> group).  This is how the paper
        suggests accommodating subscription dynamics: re-run "a number of
        re-balancing iterations" from the current grouping instead of
        clustering from scratch (section 4.2)."""
        if max_iters < 1:
            raise ValueError("max_iters must be positive")
        self.max_iters = max_iters
        self.initial_assignment = initial_assignment
        #: iterations actually used by the last fit() call
        self.n_iterations_: Optional[int] = None

    def _initial_assignment(
        self, cells: CellSet, n_groups: int
    ) -> np.ndarray:
        """Seed groups with the most popular cells, assign the rest.

        When a warm-start partition was supplied, it is sanitised (dense
        group labels, empty groups dropped) and used instead.
        """
        if self.initial_assignment is not None:
            warm = np.asarray(self.initial_assignment, dtype=np.int64)
            if warm.shape != (len(cells),):
                raise ValueError(
                    "initial_assignment must map every hyper-cell"
                )
            if warm.min() < 0:
                raise ValueError("initial_assignment labels must be >= 0")
            _, dense = np.unique(warm, return_inverse=True)
            dense = dense.reshape(-1)
            if dense.max() + 1 > n_groups:
                raise ValueError(
                    "initial_assignment uses more groups than n_groups"
                )
            return dense
        m = len(cells)
        seeds = np.argsort(-cells.popularity, kind="stable")[:n_groups]
        assignment = np.full(m, -1, dtype=np.int64)
        assignment[seeds] = np.arange(n_groups)
        rest = np.nonzero(assignment < 0)[0]
        if len(rest):
            distances = waste_to_clusters(
                cells.membership[rest],
                cells.probs[rest],
                cells.membership[seeds],
                cells.probs[seeds],
            )
            assignment[rest] = np.argmin(distances, axis=1)
        return assignment

    @staticmethod
    def _group_stats(
        cells: CellSet, assignment: np.ndarray, n_groups: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Union membership and summed probability of every group."""
        membership = np.zeros((n_groups, cells.n_subscribers), dtype=bool)
        probs = np.zeros(n_groups, dtype=np.float64)
        for g in range(n_groups):
            members = assignment == g
            if members.any():
                membership[g] = cells.membership[members].any(axis=0)
                probs[g] = cells.probs[members].sum()
        return membership, probs


class ForgyKMeansClustering(_KMeansBase):
    """Forgy's variant: batch reassignment against frozen group vectors."""

    name = "forgy"

    def fit(
        self,
        cells: CellSet,
        n_groups: int,
        rng: Optional[np.random.Generator] = None,
    ) -> Clustering:
        self._validate(cells, n_groups)
        m = len(cells)
        if n_groups >= m:
            self.n_iterations_ = 0
            self._record_fit(iterations=0)
            return Clustering(cells, np.arange(m, dtype=np.int64))

        with self._fit_span(cells, n_groups) as span:
            assignment = self._initial_assignment(cells, n_groups)
            # a warm start may occupy fewer groups; iterate with exactly
            # the groups present so empty groups never enter the
            # distance kernel
            n_groups = int(assignment.max()) + 1
            for iteration in range(1, self.max_iters + 1):
                membership, probs = self._group_stats(
                    cells, assignment, n_groups
                )
                distances = waste_to_clusters(
                    cells.membership,
                    cells.probs,
                    membership,
                    probs,
                )
                new_assignment = np.argmin(distances, axis=1)
                new_assignment = self._fix_empty_groups(
                    new_assignment, distances, n_groups
                )
                if np.array_equal(new_assignment, assignment):
                    self.n_iterations_ = iteration
                    break
                assignment = new_assignment
            else:
                self.n_iterations_ = self.max_iters
            span.set("iterations", self.n_iterations_)
            self._record_fit(iterations=self.n_iterations_)
        return Clustering(cells, assignment)

    @staticmethod
    def _fix_empty_groups(
        assignment: np.ndarray, distances: np.ndarray, n_groups: int
    ) -> np.ndarray:
        """Re-seed groups emptied by the batch sweep.

        Each empty group is given the cell that currently fits its own
        group worst, taken from groups that can spare a member.
        """
        assignment = assignment.copy()
        counts = np.bincount(assignment, minlength=n_groups)
        empty = np.nonzero(counts == 0)[0]
        if len(empty) == 0:
            return assignment
        own_distance = distances[np.arange(len(assignment)), assignment]
        order = np.argsort(-own_distance, kind="stable")
        for g in empty:
            for cell in order:
                if counts[assignment[cell]] > 1:
                    counts[assignment[cell]] -= 1
                    assignment[cell] = g
                    counts[g] = 1
                    break
        return assignment


class KMeansClustering(_KMeansBase):
    """MacQueen's K-means: group vectors updated after every single move."""

    name = "kmeans"

    def fit(
        self,
        cells: CellSet,
        n_groups: int,
        rng: Optional[np.random.Generator] = None,
    ) -> Clustering:
        self._validate(cells, n_groups)
        m = len(cells)
        if n_groups >= m:
            self.n_iterations_ = 0
            self._record_fit(iterations=0)
            return Clustering(cells, np.arange(m, dtype=np.int64))

        with self._fit_span(cells, n_groups) as span:
            assignment = self._initial_assignment(cells, n_groups)
            n_groups = int(assignment.max()) + 1

            # incremental group state: per-subscriber member counts (so
            # that removing a cell can shrink the union), probability
            # mass, cell counts and union sizes.  It is built here in
            # numpy's summation order for either sweep path below.
            counts = np.zeros(
                (n_groups, cells.n_subscribers), dtype=np.int32
            )
            probs = np.zeros(n_groups, dtype=np.float64)
            n_cells_in = np.zeros(n_groups, dtype=np.int64)
            cell_membership_int = cells.membership.astype(np.int32)
            for g in range(n_groups):
                members = assignment == g
                counts[g] = cell_membership_int[members].sum(axis=0)
                probs[g] = cells.probs[members].sum()
                n_cells_in[g] = int(members.sum())
            membership = counts > 0
            group_sizes = membership.sum(axis=1).astype(np.float64)
            cell_sizes = cells.sizes.astype(np.float64)

            # a compiled backend runs every sweep in one call,
            # move-for-move identical to the python loop
            swept = get_backend().kmeans_sweeps(
                cells.packed, cells.probs, cell_sizes, counts,
                pack_rows(membership).words, group_sizes, probs,
                n_cells_in, assignment, self.max_iters,
            )
            if swept is None:
                swept = self._sweeps(
                    cells, cell_sizes, cell_membership_int, assignment,
                    counts, membership, group_sizes, probs, n_cells_in,
                )
            self.n_iterations_, distance_evals = swept
            span.set("iterations", self.n_iterations_)
            self._record_fit(
                iterations=self.n_iterations_, distance_evals=distance_evals
            )
        return Clustering(cells, assignment)

    def _sweeps(
        self,
        cells: CellSet,
        cell_sizes: np.ndarray,
        cell_membership_int: np.ndarray,
        assignment: np.ndarray,
        counts: np.ndarray,
        membership: np.ndarray,
        group_sizes: np.ndarray,
        probs: np.ndarray,
        n_cells_in: np.ndarray,
    ) -> Tuple[int, int]:
        """The MacQueen sweeps in python: the reference for the
        compiled ``kmeans_sweeps`` kernel and the path on hosts without
        one.  Mutates ``assignment`` and the group state in place;
        returns ``(iterations, distance_evals)``."""
        m = len(cells)
        n_groups = len(probs)
        # float32 rows are consumed by the inner-loop matmul below;
        # convert the whole matrix once instead of once per cell visit
        cell_membership_f32 = cells.membership.astype(np.float32)
        membership_f32 = membership.astype(np.float32)
        # the inner loop evaluates one cell against every group; the
        # count is accumulated locally and recorded once per fit to
        # keep registry traffic off the hot path
        distance_evals = 0
        for iteration in range(1, self.max_iters + 1):
            moved = 0
            for cell in range(m):
                current = int(assignment[cell])
                if n_cells_in[current] <= 1:
                    continue  # last hyper-cell of group cannot move
                s_cell = membership_f32 @ cell_membership_f32[cell]
                distances = cells.probs[cell] * (group_sizes - s_cell)
                distances += probs * (cell_sizes[cell] - s_cell)
                distance_evals += n_groups
                target = int(np.argmin(distances))
                if target == current:
                    continue
                moved += 1
                assignment[cell] = target
                row = cell_membership_int[cell]
                counts[current] -= row
                counts[target] += row
                probs[current] -= cells.probs[cell]
                probs[target] += cells.probs[cell]
                n_cells_in[current] -= 1
                n_cells_in[target] += 1
                for g in (current, target):
                    membership[g] = counts[g] > 0
                    membership_f32[g] = membership[g]
                    group_sizes[g] = float(membership[g].sum())
            if moved == 0:
                return iteration, distance_evals
        return self.max_iters, distance_evals
