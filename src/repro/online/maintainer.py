"""Incremental cluster maintenance across subscription churn.

A full re-cluster per join/leave is the offline answer to subscription
dynamics; the paper's own suggestion (iterative algorithms warm-started
from the previous grouping) still pays a complete cell-set build plus a
fit per change.  :class:`ClusterMaintainer` keeps the broker's grouping
*good enough* between refits at O(covered cells) per event:

* **join** — the new subscription is spliced into the live runtime
  (matched and served immediately via the unicast top-up, which
  guarantees completeness) and assigned to the existing multicast group
  minimising the expected-waste score ``p_G - 2·overlap_G``, where
  ``overlap_G`` is the publication mass of the joining rectangle's grid
  cells that belong to ``G``.  ``p_G - overlap_G`` is the exact waste the
  join adds; the second ``overlap_G`` credits the unicast legs the group
  now absorbs.  A rectangle overlapping no clustered cell joins nothing
  and stays unicast-served.
* **leave** — the subscriber is dropped from every group membership
  vector and its interest blanked; the waste its group memberships were
  causing is subtracted exactly.
* **drift** — the maintainer tracks the live expected waste against the
  waste of the last full fit.  Under a *fixed* cell-to-group assignment
  both deltas are exact (a member's waste contribution in group ``G`` is
  ``p_G`` minus the mass of ``G``'s cells its rectangle covers, and no
  other member's term moves), so the inflation ratio
  ``current_waste / fit_waste`` is a measurement, not an estimate.  It
  feeds the broker's :class:`~repro.broker.RebuildScheduler`, whose
  ``drift_threshold`` turns sustained degradation into one bounded,
  warm-started refit instead of a refit per event.

Under the fleet's ``forward`` policy some registrations are match-only
(``forward_handles``): a refit over *all* live columns would silently
promote them into groups, so :meth:`capture` scrubs their memberships
before every baseline capture.  With no forward registrations (every
single broker, every ``replicate`` shard) the scrub is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from ..broker import ContentBroker
from ..geometry import Rectangle
from ..kernels import get_backend
from ..obs import get_flight_recorder, get_registry

__all__ = ["MaintainerConfig", "ClusterMaintainer"]

#: rectangle-keyed covered-cells fallback cache bound (entries); only
#: consulted when the broker's per-handle tracking is disabled
_FOOTPRINT_CACHE_CAP = 4096

#: waste floor used when the last fit had (near-)zero expected waste —
#: the inflation ratio degenerates there, so drift falls back to the
#: absolute live waste measured against this floor
_WASTE_FLOOR = 1e-9


@dataclass(frozen=True)
class MaintainerConfig:
    """Knobs of the incremental maintainer.

    ``report_drift`` feeds every inflation measurement to the broker's
    rebuild scheduler (requires the broker to have a ``drift_threshold``
    to act on it).  ``min_fit_waste`` clamps the denominator of the
    inflation ratio.
    """

    report_drift: bool = True
    min_fit_waste: float = _WASTE_FLOOR

    def __post_init__(self) -> None:
        if not self.min_fit_waste > 0:
            raise ValueError("min_fit_waste must be positive")


@dataclass
class ClusterMaintainer:
    """Maintains one broker's grouping incrementally between refits."""

    broker: ContentBroker
    config: MaintainerConfig = field(default_factory=MaintainerConfig)

    #: expected waste of the last full fit (the drift baseline)
    fit_waste: float = 0.0
    #: live expected waste under the incrementally mutated membership
    current_waste: float = 0.0
    joins: int = 0
    leaves: int = 0
    #: joins whose rectangle overlapped no clustered cell (unicast-only)
    unassigned_joins: int = 0
    #: times :meth:`capture` re-based the drift baseline (i.e. refits seen)
    captures: int = 0

    def __post_init__(self) -> None:
        #: broker handles (not internal ids — rebuilds renumber those) of
        #: match-only registrations, kept out of every group
        self.forward_handles: Set[int] = set()
        self._cell_group: Optional[np.ndarray] = None
        self._group_mass: Optional[np.ndarray] = None
        # sentinel-extended group map (unclustered cells -> bucket
        # n_groups) consumed by the fused group-mass kernel
        self._cell_group_ext: Optional[np.ndarray] = None
        # rectangle -> covered flat cells, used only when the broker
        # does not track per-handle footprints (config.delta_cells off)
        self._footprints: Dict[Rectangle, np.ndarray] = {}
        # join scorer bound to the captured fit by the active kernel
        # backend (rebuilt lazily when either changes)
        self._scorer = None
        self._scorer_backend = None
        registry = get_registry()
        self._joins_total = registry.counter(
            "online_joins_total", "incremental subscription joins"
        )
        self._leaves_total = registry.counter(
            "online_leaves_total", "incremental subscription leaves"
        )
        self._drift_gauge = registry.gauge(
            "online_waste_inflation",
            "live expected waste over the last full fit's",
        )
        if self.broker.clustering is not None:
            self.capture()

    # ------------------------------------------------------------------
    def capture(self) -> None:
        """Re-base the drift baseline on the broker's current fit.

        Call after every rebuild: derives the per-grid-cell group map and
        per-group publication mass from the fresh clustering and resets
        the live waste to the fit's.
        """
        clustering = self.broker.clustering
        if clustering is None:
            raise RuntimeError("broker has no clustering to capture")
        self._scrub_forward(clustering)
        cells = clustering.cells
        hyper = cells.hypercell_of_cell.astype(np.int64)
        cell_group = np.where(
            hyper >= 0, clustering.assignment[np.maximum(hyper, 0)], -1
        )
        n_groups = clustering.n_groups
        clustered = cell_group >= 0
        group_mass = np.bincount(
            cell_group[clustered],
            weights=self.broker.cell_pmf[clustered],
            minlength=n_groups,
        )
        self._cell_group = cell_group
        self._group_mass = group_mass
        self._cell_group_ext = np.ascontiguousarray(
            np.where(cell_group >= 0, cell_group, n_groups), dtype=np.int64
        )
        self._footprints.clear()
        self._scorer_backend = None
        self.fit_waste = clustering.total_expected_waste()
        self.current_waste = self.fit_waste
        self.captures += 1
        self._drift_gauge.set(1.0)

    def _scrub_forward(self, clustering) -> None:
        """Strip match-only subscribers' group memberships, so the
        captured fit waste never charges for members served by unicast."""
        dispatcher = self.broker._dispatcher
        for handle in sorted(self.forward_handles):
            internal = self.broker.internal_id(handle)
            groups = clustering.groups_of_subscriber(internal)
            if not len(groups):
                continue
            if dispatcher is not None:
                for group in groups:
                    dispatcher.invalidate_members(
                        clustering.subscribers_of_group(int(group))
                    )
            clustering.remove_member(internal)

    @property
    def inflation(self) -> float:
        """Live waste-inflation ratio against the last fit."""
        floor = max(self.config.min_fit_waste, _WASTE_FLOOR)
        return self.current_waste / max(self.fit_waste, floor)

    # ------------------------------------------------------------------
    def join(self, node: int, rectangle: Rectangle, now: float) -> int:
        """Admit one subscription online; returns its broker handle.

        The subscription is registered, spliced into the live runtime and
        placed into the best existing multicast group (or none) — no
        refit, no cell-set rebuild.
        """
        if self._cell_group is None:
            raise RuntimeError("capture() the broker's fit first")
        broker = self.broker
        handle = broker.subscribe(node, rectangle)
        broker.attach(handle)
        group, overlap = self._score(self._covered(rectangle, handle))
        if group >= 0:
            broker.apply_join(handle, group)
            self.current_waste += float(
                self._group_mass[group] - overlap[group]
            )
        else:
            self.unassigned_joins += 1
        self.joins += 1
        self._joins_total.inc()
        flight = get_flight_recorder()
        if flight.active:
            flight.stage(
                "join", node=node, group=int(group),
                assigned=bool(group >= 0), inflation=self.inflation,
            )
        self._note_drift(now)
        return handle

    def leave(self, handle: int, now: float) -> None:
        """Retire one subscription online (groups, interest, registry)."""
        if self._cell_group is None:
            raise RuntimeError("capture() the broker's fit first")
        broker = self.broker
        node, rectangle = broker.subscription(handle)
        internal = broker.internal_id(handle)
        groups = broker.clustering.groups_of_subscriber(internal)
        if len(groups):
            _, overlap = self._score(self._covered(rectangle, handle))
            removed = float(
                np.sum(self._group_mass[groups] - overlap[groups])
            )
            self.current_waste = max(0.0, self.current_waste - removed)
        broker.apply_leave(handle)
        broker.unsubscribe(handle)
        self.leaves += 1
        self._leaves_total.inc()
        flight = get_flight_recorder()
        if flight.active:
            flight.stage(
                "leave", node=node, groups=int(len(groups)),
                inflation=self.inflation,
            )
        self._note_drift(now)

    def maybe_rebuild(self, now: float) -> bool:
        """Let the broker's scheduler act on accumulated drift.

        Returns True when a (warm-started, drift-triggered) rebuild ran;
        the maintainer re-bases itself on the new fit.
        """
        inflation_before = self.inflation
        if self.broker.tick(now):
            self.capture()
            flight = get_flight_recorder()
            if flight.active:
                flight.stage(
                    "rebuild", inflation_before=inflation_before,
                    fits=self.captures,
                )
            return True
        return False

    # ------------------------------------------------------------------
    # checkpointing (see repro.persistence.save_shard_checkpoint)
    # ------------------------------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The captured per-cell group map and per-group mass vectors."""
        if self._cell_group is None:
            raise RuntimeError("nothing captured yet")
        return {
            "cell_group": self._cell_group,
            "group_mass": self._group_mass,
        }

    def restore(
        self,
        cell_group: np.ndarray,
        group_mass: np.ndarray,
        fit_waste: float,
        current_waste: float,
        joins: int = 0,
        leaves: int = 0,
        unassigned_joins: int = 0,
        captures: int = 0,
    ) -> None:
        """Resume drift accounting from a persisted checkpoint.

        The broker must already hold the matching clustering (persisted
        separately via :func:`repro.persistence.save_clustering`).
        """
        cell_group = np.asarray(cell_group, dtype=np.int64)
        if cell_group.shape != (self.broker.space.n_cells,):
            raise ValueError("cell_group must cover every grid cell")
        self._cell_group = cell_group
        self._group_mass = np.asarray(group_mass, dtype=np.float64)
        self._cell_group_ext = np.ascontiguousarray(
            np.where(cell_group >= 0, cell_group, len(self._group_mass)),
            dtype=np.int64,
        )
        self._footprints.clear()
        self._scorer_backend = None
        self.fit_waste = float(fit_waste)
        self.current_waste = float(current_waste)
        self.joins = int(joins)
        self.leaves = int(leaves)
        self.unassigned_joins = int(unassigned_joins)
        self.captures = int(captures)
        self._drift_gauge.set(self.inflation)

    # ------------------------------------------------------------------
    def _covered(
        self, rectangle: Rectangle, handle: Optional[int]
    ) -> np.ndarray:
        """The rectangle's covered grid cells, without re-rasterising.

        The broker's delta-cells tracking already rasterised the
        rectangle once at subscribe time; joins and leaves reuse that
        footprint through the handle.  When tracking is off, a bounded
        rectangle-keyed cache serves repeats.
        """
        if handle is not None:
            cached = self.broker.covered_cells(handle)
            if cached is not None:
                return cached
        covered = self._footprints.get(rectangle)
        if covered is None:
            covered = self.broker.space.cells_in_rectangle(rectangle)
            if len(self._footprints) >= _FOOTPRINT_CACHE_CAP:
                self._footprints.clear()
            self._footprints[rectangle] = covered
        return covered

    def _score(self, covered: np.ndarray):
        """``(group, overlap)`` of one covered-cells footprint.

        One fused gather+accumulate+argmin over the covered cells via
        the active backend's bound scorer: the sentinel-extended group
        map routes unclustered cells to a discarded bucket (no mask
        temporaries), and the chosen group is the argmin of
        ``group_mass[g] - 2·overlap[g]`` over positive overlaps (``-1``
        when nothing overlaps).  Accumulation order (covered-cell order)
        and the first-occurrence tie-break match the masked
        ``np.bincount`` + ``np.argmin`` formulation this replaces bit
        for bit.  The overlap vector may be a reused buffer — consume
        it before the next scoring call.
        """
        backend = get_backend()
        if self._scorer_backend is not backend:
            self._scorer = backend.group_scorer(
                self._cell_group_ext,
                self.broker.cell_pmf,
                self._group_mass,
            )
            self._scorer_backend = backend
        return self._scorer(covered)

    def _overlap(
        self, rectangle: Rectangle, handle: Optional[int] = None
    ) -> np.ndarray:
        """Per-group publication mass of the rectangle's clustered cells."""
        _, overlap = self._score(self._covered(rectangle, handle))
        return overlap

    def _note_drift(self, now: float) -> None:
        inflation = self.inflation
        self._drift_gauge.set(inflation)
        if self.config.report_drift:
            self.broker.note_drift(now, inflation)
