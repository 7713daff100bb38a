"""Event-space partitioning for the multi-broker fleet.

A fleet splits the *event space* — not the subscriber population —
across broker shards: every grid cell has exactly one owner shard, and a
publication is matched only at the shard owning the cell it lands in.
Subscriptions register wherever their rectangle overlaps owned cells
(see :mod:`repro.online.service` for the replicate-vs-forward policy),
so delivery stays complete while per-shard matching touches only the
local subscription set.

Two partitioning strategies:

* ``hash`` — consistent hashing: each shard projects ``vnodes`` virtual
  nodes onto a 64-bit ring (BLAKE2b positions) and a cell belongs to the
  first virtual node at or after its own ring position.  Cell ownership
  is stable under shard-count changes (only ~``1/n`` of cells move when
  a shard is added), at the price of fragmenting rectangles across many
  shards.
* ``region`` — contiguous slabs of the flat cell index,
  ``shard(c) = (c * n_shards) // n_cells``.  Rectangles are compact in
  flat-index space, so region sharding minimises cross-shard
  registrations for regional workloads, at the price of full remapping
  when the shard count changes.

Both are pure functions of ``(space, n_shards, strategy, vnodes)`` —
every fleet participant derives the identical map with no coordination.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

__all__ = ["STRATEGIES", "ShardMap"]

STRATEGIES = ("hash", "region")

#: virtual nodes per shard on the consistent-hash ring; enough that the
#: expected per-shard cell-count imbalance stays within a few percent
_DEFAULT_VNODES = 64


def _ring_position(key: str) -> int:
    """Stable 64-bit ring position of a string key."""
    digest = hashlib.blake2b(key.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardMap:
    """Deterministic grid-cell → shard ownership map.

    The full ``cell_to_shard`` vector is materialised at construction
    (one int64 per grid cell): home-shard scoring and publication
    routing reduce to array gathers, and two maps built from the same
    parameters are bit-identical.
    """

    def __init__(
        self,
        space,
        n_shards: int,
        strategy: str = "hash",
        vnodes: int = _DEFAULT_VNODES,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.space = space
        self.n_shards = int(n_shards)
        self.strategy = strategy
        self.vnodes = int(vnodes)
        self.cell_to_shard = self._build()

    # ------------------------------------------------------------------
    def _build(self) -> np.ndarray:
        n_cells = self.space.n_cells
        if self.n_shards == 1:
            return np.zeros(n_cells, dtype=np.int64)
        if self.strategy == "region":
            # contiguous slabs, sized within one cell of each other
            return (
                np.arange(n_cells, dtype=np.int64) * self.n_shards
            ) // n_cells
        # consistent-hash ring: vnode positions sorted ascending; a cell
        # belongs to the first vnode clockwise from its own position
        # (searchsorted side="left" + wraparound)
        positions = np.empty(self.n_shards * self.vnodes, dtype=np.uint64)
        owners = np.empty(self.n_shards * self.vnodes, dtype=np.int64)
        i = 0
        for shard in range(self.n_shards):
            for v in range(self.vnodes):
                positions[i] = _ring_position(f"shard:{shard}:{v}")
                owners[i] = shard
                i += 1
        order = np.argsort(positions, kind="stable")
        positions = positions[order]
        owners = owners[order]
        cell_positions = np.fromiter(
            (_ring_position(f"cell:{c}") for c in range(n_cells)),
            dtype=np.uint64,
            count=n_cells,
        )
        slots = np.searchsorted(positions, cell_positions, side="left")
        slots[slots == len(positions)] = 0
        return owners[slots]

    # ------------------------------------------------------------------
    def shard_of_cell(self, cell: int) -> int:
        """Owner shard of one flat grid-cell index."""
        return int(self.cell_to_shard[cell])

    def shard_of_point(self, point: Sequence[float]) -> int:
        """Owner shard of the cell a published event lands in."""
        return int(self.cell_to_shard[self.space.locate(point)])

    def shards_of_cells(self, cells: np.ndarray) -> np.ndarray:
        """Sorted unique owner shards of a covered-cells footprint."""
        if len(cells) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.cell_to_shard[np.asarray(cells)])

    def home_shard(self, cells: np.ndarray, cell_pmf: np.ndarray) -> int:
        """The shard owning the most publication mass of a footprint.

        Ties (and zero-mass footprints) break to the covered-cell count,
        then to the lowest shard id; an empty footprint homes at shard 0
        (the subscription matches nothing, any owner works).
        """
        if len(cells) == 0:
            return 0
        cells = np.asarray(cells)
        owners = self.cell_to_shard[cells]
        mass = np.bincount(
            owners, weights=cell_pmf[cells], minlength=self.n_shards
        )
        if mass.max() > 0.0:
            return int(np.argmax(mass))
        counts = np.bincount(owners, minlength=self.n_shards)
        return int(np.argmax(counts))

    def shard_cell_counts(self) -> np.ndarray:
        """Owned grid cells per shard (balance diagnostics)."""
        return np.bincount(self.cell_to_shard, minlength=self.n_shards)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """Reconstruction parameters (the map itself is derived)."""
        return {
            "n_shards": self.n_shards,
            "strategy": self.strategy,
            "vnodes": self.vnodes,
        }
