"""Pairwise Grouping and its approximate variant (section 4.3).

Pairwise Grouping is bottom-up agglomeration: every hyper-cell starts in
its own group; while more than ``K`` groups remain, the two groups at
minimum expected-waste distance are merged (the merged group's membership
vector is the union, its probability the sum).  Distances are between
*groups*, so they must be recomputed after every merge — this is what
makes Pairwise Grouping slower than MST clustering on the same data.

The **approximate** variant replaces the exact minimum search with the
classic secretary rule: it inspects a fraction ``1/e`` of the candidate
pairs, remembers the best distance seen, then keeps scanning and stops at
the first pair that beats it (falling back to the remembered best).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..grid import CellSet
from ..kernels import get_backend
from .base import Clustering, GridClusteringAlgorithm
from .distance import _count_evals, pairwise_waste_matrix

__all__ = ["PairwiseGroupingClustering", "ApproximatePairwiseClustering"]


def _dense_labels(parent: np.ndarray) -> np.ndarray:
    """Dense group labels from a merge forest (path-compressed roots)."""
    roots = parent.copy()
    for idx in range(len(roots)):
        r = idx
        while parent[r] != r:
            r = parent[r]
        roots[idx] = r
    _, dense = np.unique(roots, return_inverse=True)
    return dense.reshape(-1)


class _AgglomerativeState:
    """Mutable merge state shared by the exact and approximate variants."""

    def __init__(self, cells: CellSet) -> None:
        m = len(cells)
        self.cells = cells
        self.active = np.ones(m, dtype=bool)
        # packed uint64 membership words, mutated in place on merges;
        # the active kernel backend supplies the AND+popcount sweeps
        self.kernel = get_backend()
        self.probs = cells.probs.copy().astype(np.float64)
        self.words = cells.packed.words.copy()
        self.sizes = self.kernel.popcount_rows(self.words).astype(np.float64)
        self.parent = np.arange(m, dtype=np.int64)
        # full distance matrix with +inf masking for inactive/diagonal
        self.distances = pairwise_waste_matrix(
            cells.membership,
            cells.probs,
            packed=cells.packed,
        ).astype(np.float32)
        np.fill_diagonal(self.distances, np.inf)
        self.n_active = m
        # work counters, accumulated locally and folded into the
        # registry once per fit (registry traffic stays off the merge
        # hot path)
        self.n_merges = 0
        self.n_distance_evals = 0

    def merge(self, i: int, j: int) -> None:
        """Absorb group ``j`` into group ``i`` and refresh distances."""
        if i == j or not (self.active[i] and self.active[j]):
            raise ValueError("merge requires two distinct active groups")
        self.probs[i] += self.probs[j]
        self.words[i] |= self.words[j]
        self.sizes[i] = float(
            int(self.kernel.popcount_rows(self.words[i : i + 1])[0])
        )
        self.active[j] = False
        self.parent[j] = i
        self.n_active -= 1
        self.n_merges += 1
        self.distances[j, :] = np.inf
        self.distances[:, j] = np.inf
        # recompute group-i distances to every other active group
        others = np.nonzero(self.active)[0]
        others = others[others != i]
        self.n_distance_evals += len(others)
        if len(others) == 0:
            self.distances[i, :] = np.inf
            return
        # one AND + popcount sweep over the packed rows of the active
        # groups; intersection counts are exact integers, so the float
        # arithmetic below matches the old float32-matvec path bit for
        # bit
        inter = self.kernel.intersect_counts(
            self.words[others], self.words[i]
        ).astype(np.float64)
        row = self.probs[i] * (self.sizes[others] - inter)
        row += self.probs[others] * (self.sizes[i] - inter)
        self.distances[i, :] = np.inf
        self.distances[:, i] = np.inf
        self.distances[i, others] = row.astype(np.float32)
        self.distances[others, i] = row.astype(np.float32)

    def assignment(self) -> np.ndarray:
        """Dense group labels after all merges (path-compressed roots)."""
        return _dense_labels(self.parent)


class PairwiseGroupingClustering(GridClusteringAlgorithm):
    """Exact Pairwise Grouping: merge the globally closest pair each step.

    The closest pair is found through maintained per-row nearest-neighbour
    candidates instead of a full-matrix ``argmin`` per merge.  Row ``k``
    carries ``(nn_idx[k], nn_dist[k])`` — its current row minimum — and a
    merge of ``(i, j)`` only invalidates the rows whose candidate pointed
    at ``i`` or ``j`` (their rows are rescanned lazily) plus a vectorised
    check of the rewritten column ``i``.  One merge therefore costs
    ``O(m + s·m)`` with ``s`` the handful of stale rows, dropping the
    total from the naive ``O(m^3)`` to about ``O(m^2 log m)`` while
    producing *merge-for-merge identical* clusterings: selection scans
    rows first and columns second exactly like the row-major
    ``argmin`` of the full matrix, including tie-breaking.
    """

    name = "pairs"

    def fit(
        self,
        cells: CellSet,
        n_groups: int,
        rng: Optional[np.random.Generator] = None,
    ) -> Clustering:
        self._validate(cells, n_groups)
        m = len(cells)
        if n_groups >= m:
            self._record_fit(merges=0)
            return Clustering(cells, np.arange(m, dtype=np.int64))
        with self._fit_span(cells, n_groups) as span:
            clustering = self._fit(cells, n_groups)
            span.set("merges", m - n_groups)
        return clustering

    def _fit(self, cells: CellSet, n_groups: int) -> Clustering:
        m = len(cells)
        kernel = get_backend()
        fused = kernel.pairwise_fit(
            cells.packed, np.asarray(cells.probs, dtype=np.float64), n_groups
        )
        if fused is not None:
            # a compiled backend ran the whole merge loop in one call
            # (merge-for-merge identical to the python loop below);
            # account the same distance-evaluation work: m^2 for the
            # initial matrix plus the per-merge row recomputes
            parent, n_merges, n_evals = fused
            _count_evals(m * m)
            self._record_fit(merges=n_merges, distance_evals=n_evals)
            return Clustering(cells, _dense_labels(parent))
        state = _AgglomerativeState(cells)
        distances = state.distances
        rows = np.arange(m)
        nn_idx = np.argmin(distances, axis=1).astype(np.int64)
        nn_dist = distances[rows, nn_idx].copy()
        while state.n_active > n_groups:
            candidates = np.where(state.active, nn_dist, np.inf)
            i = int(np.argmin(candidates))
            j = int(nn_idx[i])
            state.merge(i, j)
            nn_dist[j] = np.inf
            # rows whose candidate pair involved i or j are stale: column j
            # is gone and column i was rewritten, so rescan those rows
            # (this always includes row i itself, whose candidate was j)
            stale = np.nonzero(
                state.active & ((nn_idx == i) | (nn_idx == j))
            )[0]
            for k in stale:
                best = int(np.argmin(distances[k]))
                nn_idx[k] = best
                nn_dist[k] = distances[k, best]
            # the rewritten column i may now undercut other rows'
            # candidates (or tie with a smaller column index, which the
            # row-major argmin would prefer)
            col = distances[:, i]
            better = state.active & (
                (col < nn_dist) | ((col == nn_dist) & (i < nn_idx))
            )
            better[i] = False
            if better.any():
                nn_idx[better] = i
                nn_dist[better] = col[better]
        self._record_fit(
            merges=state.n_merges, distance_evals=state.n_distance_evals
        )
        return Clustering(cells, state.assignment())


class ApproximatePairwiseClustering(GridClusteringAlgorithm):
    """Pairwise Grouping with the secretary-rule approximate pair search.

    Each merge step draws candidate pairs of active groups uniformly at
    random: the first ``ceil(n_pairs / e)`` candidates establish a
    benchmark distance, and the scan stops at the first later candidate
    that beats the benchmark (or exhausts its inspection budget and falls
    back to the benchmark pair).  Faster than the exact search on large
    inputs, at some cost in solution quality.
    """

    name = "approx-pairs"

    def __init__(
        self, chunk_size: int = 32768, observe_cap: int = 32768
    ) -> None:
        """``observe_cap`` bounds the number of candidate pairs drawn in
        the observation phase of one merge step; the secretary fraction
        ``n_pairs / e`` is used when it is smaller."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if observe_cap < 1:
            raise ValueError("observe_cap must be positive")
        self.chunk_size = chunk_size
        self.observe_cap = observe_cap

    def fit(
        self,
        cells: CellSet,
        n_groups: int,
        rng: Optional[np.random.Generator] = None,
    ) -> Clustering:
        self._validate(cells, n_groups)
        if rng is None:
            rng = np.random.default_rng()
        if n_groups >= len(cells):
            self._record_fit(merges=0)
            return Clustering(cells, np.arange(len(cells), dtype=np.int64))
        with self._fit_span(cells, n_groups) as span:
            state = _AgglomerativeState(cells)
            while state.n_active > n_groups:
                i, j = self._select_pair(state, rng)
                state.merge(i, j)
            span.set("merges", state.n_merges)
            self._record_fit(
                merges=state.n_merges,
                distance_evals=state.n_distance_evals,
            )
        return Clustering(cells, state.assignment())

    def _select_pair(
        self, state: _AgglomerativeState, rng: np.random.Generator
    ) -> Tuple[int, int]:
        active = np.nonzero(state.active)[0]
        a = len(active)
        n_pairs = a * (a - 1) // 2
        if n_pairs <= 2 * self.chunk_size:
            # few enough pairs: exact search is cheaper than sampling
            sub = state.distances[np.ix_(active, active)]
            flat = int(np.argmin(sub))
            i, j = divmod(flat, a)
            return int(active[i]), int(active[j])

        # observation phase: one vectorised draw of the secretary fraction
        # (bounded by observe_cap to keep per-step work flat)
        observe = min(max(1, math.ceil(n_pairs / math.e)), self.observe_cap)
        ii = active[rng.integers(0, a, size=observe)]
        jj = active[rng.integers(0, a, size=observe)]
        valid = ii != jj
        ii, jj = ii[valid], jj[valid]
        ds = state.distances[ii, jj]
        k = int(np.argmin(ds))
        best_d = float(ds[k])
        best_pair = (int(ii[k]), int(jj[k]))

        # selection phase: keep drawing and stop at the first pair that
        # beats the benchmark; give up after the remaining pair budget
        remaining = min(n_pairs - observe, 2 * self.chunk_size)
        while remaining > 0:
            size = min(self.chunk_size, remaining)
            remaining -= size
            ii = active[rng.integers(0, a, size=size)]
            jj = active[rng.integers(0, a, size=size)]
            valid = ii != jj
            ii, jj = ii[valid], jj[valid]
            if len(ii) == 0:
                continue
            ds = state.distances[ii, jj]
            k = int(np.argmin(ds))
            if ds[k] < best_d:
                return int(ii[k]), int(jj[k])
        return best_pair
