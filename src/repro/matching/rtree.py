"""A bulk-loaded R-tree for point-stabbing queries over aligned rectangles.

Section 4.6 reduces matching to "searching among aligned rectangles in
event space for the rectangles that contain a given point", citing the
R*-tree [5] and the S-tree [1].  This is a from-scratch replacement: a
static R-tree bulk-loaded by recursive median splits along the axis of
largest spread (a standard packing strategy in the spirit of STR).  Works
with unbounded rectangles (wildcard sides).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from ..geometry import Rectangle

__all__ = ["RTree"]

#: clamp for infinite bounds when computing split centres
_CLAMP = 1e18


@dataclass
class _Leaf:
    indices: np.ndarray
    mbr_lo: np.ndarray
    mbr_hi: np.ndarray


@dataclass
class _Inner:
    children: List[Union["_Inner", _Leaf]]
    mbr_lo: np.ndarray
    mbr_hi: np.ndarray


class RTree:
    """Static R-tree over a fixed collection of rectangles.

    ``stab(point)`` returns the indices (into the construction order) of
    every rectangle containing the point.  Containment follows the
    half-open convention ``lo < x <= hi`` in every dimension.
    """

    def __init__(
        self,
        rectangles: Sequence[Rectangle],
        leaf_capacity: int = 16,
    ) -> None:
        if not rectangles:
            raise ValueError("RTree requires at least one rectangle")
        if leaf_capacity < 1:
            raise ValueError("leaf_capacity must be positive")
        dims = rectangles[0].dimensions
        n = len(rectangles)
        self._los = np.empty((n, dims), dtype=np.float64)
        self._his = np.empty((n, dims), dtype=np.float64)
        for i, rect in enumerate(rectangles):
            if rect.dimensions != dims:
                raise ValueError("all rectangles must share dimensionality")
            for d, side in enumerate(rect.sides):
                self._los[i, d] = side.lo
                self._his[i, d] = side.hi
        self.leaf_capacity = leaf_capacity
        self._n_dims = dims
        centers = 0.5 * (
            np.clip(self._los, -_CLAMP, _CLAMP)
            + np.clip(self._his, -_CLAMP, _CLAMP)
        )
        self._root = self._build(np.arange(n, dtype=np.int64), centers)

    # ------------------------------------------------------------------
    @classmethod
    def from_bounds(
        cls, los: np.ndarray, his: np.ndarray, leaf_capacity: int = 16
    ) -> "RTree":
        """Construct directly from ``(n, N)`` bound matrices."""
        rectangles = [
            Rectangle.from_bounds(lo, hi) for lo, hi in zip(los, his)
        ]
        return cls(rectangles, leaf_capacity=leaf_capacity)

    # ------------------------------------------------------------------
    def _build(
        self, indices: np.ndarray, centers: np.ndarray
    ) -> Union[_Inner, _Leaf]:
        lo = self._los[indices].min(axis=0)
        hi = self._his[indices].max(axis=0)
        if len(indices) <= self.leaf_capacity:
            return _Leaf(indices=indices, mbr_lo=lo, mbr_hi=hi)
        spread = np.ptp(centers[indices], axis=0)
        axis = int(np.argmax(spread))
        order = indices[np.argsort(centers[indices, axis], kind="stable")]
        mid = len(order) // 2
        children = [
            self._build(order[:mid], centers),
            self._build(order[mid:], centers),
        ]
        return _Inner(children=children, mbr_lo=lo, mbr_hi=hi)

    # ------------------------------------------------------------------
    def stab(self, point: Sequence[float]) -> np.ndarray:
        """Indices of all rectangles containing ``point`` (sorted)."""
        x = np.asarray(point, dtype=np.float64)
        if x.shape != (self._n_dims,):
            raise ValueError("point dimensionality mismatch")
        hits: List[int] = []
        stack: List[Union[_Inner, _Leaf]] = [self._root]
        while stack:
            node = stack.pop()
            if not (np.all(node.mbr_lo < x) and np.all(x <= node.mbr_hi)):
                continue
            if isinstance(node, _Leaf):
                idx = node.indices
                mask = np.all(
                    (self._los[idx] < x) & (x <= self._his[idx]), axis=1
                )
                hits.extend(int(i) for i in idx[mask])
            else:
                stack.extend(node.children)
        hits.sort()
        return np.asarray(hits, dtype=np.int64)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._los)

    def height(self) -> int:
        """Height of the tree (a single leaf has height 1)."""

        def depth(node: Union[_Inner, _Leaf]) -> int:
            if isinstance(node, _Leaf):
                return 1
            return 1 + max(depth(child) for child in node.children)

        return depth(self._root)
