"""Minimum-spanning-tree clustering (section 4.4).

Zahn-style MST clustering on the complete graph whose nodes are the
hyper-cells and whose edge lengths are the expected-waste distances
*between cells* (not between groups — that is the difference from
Pairwise Grouping, and why the edges can be sorted once up front, Kruskal
style).  Edges are processed in non-decreasing length order, merging
components, until exactly ``K`` components remain.

The scan stops long before the last of the ``m (m - 1) / 2`` edges, so
the edges are not all sorted.  They are sorted in bands: an
``np.partition`` finds a threshold ``t``, the band is every edge no
longer than ``t`` (ties included), and a stable sort of the band by
length keeps tied edges in edge-index order.  Only when the band runs
out before ``K`` components remain is the next band ``(t, t']`` cut.
The bands laid end to end are exactly a prefix of the full stable sort,
so the unions, the roots and the edge count are those of sorting every
edge.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..grid import CellSet
from ..network import UnionFind
from .base import Clustering, GridClusteringAlgorithm
from .distance import pairwise_waste_matrix

__all__ = ["MSTClustering"]

#: the first band holds about this many edges per hyper-cell; each
#: further band is ``_BAND_GROWTH`` times larger
_FIRST_BAND_PER_CELL = 4
_BAND_GROWTH = 4


class MSTClustering(GridClusteringAlgorithm):
    """Kruskal's algorithm stopped at ``K`` connected components."""

    name = "mst"

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
            distances = pairwise_waste_matrix(
                cells.membership,
                cells.probs,
                packed=cells.packed,
            ).astype(np.float32, copy=False)
            # upper-triangle lengths in edge order (row-major i < j)
            upper = np.triu(np.ones((m, m), dtype=bool), k=1)
            lengths = distances[upper]
            n_edges = len(lengths)

            components = UnionFind(m)
            edges_scanned = 0
            done = -np.inf  # every edge no longer than this is scanned
            size = min(n_edges, _FIRST_BAND_PER_CELL * m)
            while components.components > n_groups:
                # the size-th shortest length bounds the band; ties
                # beyond it ride along in edge-index order
                lengths.partition(size - 1)
                threshold = lengths[size - 1]
                rows, cols = np.nonzero(
                    upper & (distances <= threshold) & (distances > done)
                )
                order = np.argsort(distances[rows, cols], kind="stable")
                for a, b in zip(rows[order].tolist(), cols[order].tolist()):
                    if components.components <= n_groups:
                        break
                    edges_scanned += 1
                    components.union(a, b)
                done = threshold
                size = min(n_edges, size * _BAND_GROWTH)

            roots = np.fromiter(
                (components.find(i) for i in range(m)),
                dtype=np.int64,
                count=m,
            )
            span.set("edges_scanned", edges_scanned)
            self._record_fit(merges=m - components.components)
        return Clustering(cells, self._compact_assignment(roots))
