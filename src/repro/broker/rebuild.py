"""Churn-driven rebuild policy: debounce + exponential backoff.

Fault injection and subscription churn arrive in bursts; re-clustering
after every single event would thrash (each rebuild is a full cell-set
build + clustering fit).  The scheduler implements the standard taming
pair on a virtual clock:

* **debounce** — wait for a quiet period after the last change before
  rebuilding, so a burst of correlated faults is absorbed by one
  rebuild;
* **exponential backoff** — consecutive rebuilds close together stretch
  the minimum interval between rebuilds (up to a cap), so sustained
  churn degrades rebuild frequency gracefully instead of melting the
  broker.  A quiet spell longer than the cap resets the backoff.
* **drift trigger** — the online runtime's incremental maintainer
  reports the live waste-inflation ratio (current expected waste over
  the last full fit's) via :meth:`note_drift`; once it crosses
  ``drift_threshold`` the scheduler declares a rebuild due regardless of
  the debounce, still gated by the backoff so churn storms cannot force
  back-to-back refits.

The scheduler is pure policy: it never rebuilds anything itself, it only
answers :meth:`due`.  The broker asks on every :meth:`~ContentBroker.tick`
and calls :meth:`fired` when it actually rebuilt.

Every parameter is validated at construction — a NaN debounce or an
inverted backoff range would otherwise *silently* disable rebuilds
(NaN comparisons are always false), which is the worst possible failure
mode for a lazily maintained index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["RebuildScheduler"]


@dataclass
class RebuildScheduler:
    """Decides *when* accumulated changes justify a rebuild."""

    debounce: float = 0.0
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 60.0
    #: waste-inflation ratio beyond which a drift report makes the next
    #: rebuild due (``None`` disables the drift trigger; must be >= 1 —
    #: a ratio below 1 would re-cluster while the grouping is *better*
    #: than the last fit)
    drift_threshold: Optional[float] = None

    #: accumulated change weight since the last rebuild (churn events
    #: weighted by how many subscribers they touch)
    pending_weight: int = 0
    #: worst waste-inflation ratio reported since the last rebuild
    pending_drift: float = 0.0
    last_change: float = field(default=-math.inf)
    last_fired: float = field(default=-math.inf)
    #: earliest virtual time the next rebuild may fire (backoff gate)
    not_before: float = field(default=-math.inf)
    _backoff: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        for name in ("debounce", "backoff_base", "backoff_factor",
                     "backoff_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.debounce < 0 or self.backoff_base < 0:
            raise ValueError("debounce and backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max < self.backoff_base:
            raise ValueError("backoff_max must be >= backoff_base")
        if self.drift_threshold is not None and (
            not math.isfinite(self.drift_threshold)
            or self.drift_threshold < 1.0
        ):
            raise ValueError(
                "drift_threshold must be a finite waste-inflation "
                "ratio >= 1"
            )
        self._backoff = self.backoff_base

    # ------------------------------------------------------------------
    def note_change(self, now: float, weight: int = 1) -> None:
        """Record churn at virtual time ``now`` (restarts the debounce)."""
        if weight < 0:
            raise ValueError("weight must be non-negative")
        self.pending_weight += weight
        self.last_change = max(self.last_change, now)

    def note_drift(self, now: float, inflation: float) -> None:
        """Report the live waste-inflation ratio at virtual time ``now``.

        Unlike :meth:`note_change` this does *not* restart the debounce:
        drift is a measurement of accumulated damage, not a new burst to
        wait out.  The worst ratio since the last rebuild is retained.
        """
        if inflation < 0:
            raise ValueError("inflation must be non-negative")
        self.pending_drift = max(self.pending_drift, inflation)

    def drift_due(self, now: float) -> bool:
        """True when reported drift alone justifies a rebuild."""
        return (
            self.drift_threshold is not None
            and self.pending_drift >= self.drift_threshold
            and now >= self.not_before
        )

    def due(self, now: float) -> bool:
        """True when pending changes have settled and backoff allows."""
        if self.drift_due(now):
            return True
        return (
            self.pending_weight > 0
            and now - self.last_change >= self.debounce
            and now >= self.not_before
        )

    def fired(self, now: float) -> None:
        """Acknowledge a rebuild at ``now``; updates the backoff gate."""
        if (
            math.isfinite(self.last_fired)
            and now - self.last_fired <= self.backoff_max
        ):
            self._backoff = min(
                max(self._backoff, self.backoff_base) * self.backoff_factor
                if self._backoff > 0
                else self.backoff_base,
                self.backoff_max,
            )
        else:
            self._backoff = self.backoff_base
        self.last_fired = now
        self.not_before = now + self._backoff
        self.pending_weight = 0
        self.pending_drift = 0.0
        self.last_change = -math.inf
