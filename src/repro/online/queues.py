"""Bounded admission queues with backpressure for the broker service.

The online service consumes interleaved event streams (churn and
publications) through one bounded queue per stream.  Admission
control happens on the *virtual* clock, so a seeded run is exactly
reproducible:

* **rate limit** — a token bucket per queue; events arriving faster than
  the configured rate are shed (or, under the ``block`` policy, delayed
  to the next token).
* **capacity** — a full queue applies its backpressure policy:
  ``block`` stalls the producer until the consumer frees a slot,
  ``shed-oldest`` evicts the head (favouring fresh events),
  ``shed-lowest-priority`` evicts the lowest-priority entry — FIFO
  among equal priorities, *including* the arrival itself: an arrival
  that only ties the queued minimum still gets in, evicting the oldest
  equal-priority entry (the ``priority_tie`` shed reason); the arrival
  is refused only when everything queued strictly outranks it.

The token bucket accumulates in exact rational arithmetic
(:class:`fractions.Fraction` over the binary-exact float inputs), so
the admission decision depends only on the *total* elapsed virtual
time, never on how many intermediate refills observed it — long soaks
with fractional rates admit the same events regardless of clock
resolution.

Depth gauges and shed counters go to :mod:`repro.obs` labelled by queue
name, so a soak run's registry dump shows where pressure built up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, List, Optional, Tuple

from ..obs import get_registry

__all__ = ["QueueConfig", "BoundedQueue", "POLICIES"]

POLICIES = ("block", "shed-oldest", "shed-lowest-priority")


@dataclass(frozen=True)
class QueueConfig:
    """Admission parameters of one stream queue.

    ``rate`` is the sustained admission rate in events per virtual
    second (``None`` disables the token bucket); ``burst`` is the bucket
    depth (defaults to the queue capacity).
    """

    capacity: int = 256
    policy: str = "block"
    rate: Optional[float] = None
    burst: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.rate is not None and not (
            math.isfinite(self.rate) and self.rate > 0
        ):
            raise ValueError("rate must be a positive finite rate or None")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst must be at least 1 or None")


class BoundedQueue:
    """One stream's bounded, rate-limited admission queue.

    Entries are ``(admit_time, priority, seq, item)``; the service pops
    them in admission order.  All timing is virtual — the queue never
    sleeps, it *computes* when a blocked producer would get through.
    """

    def __init__(self, name: str, config: Optional[QueueConfig] = None):
        self.name = name
        self.config = config or QueueConfig()
        self._items: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        cfg = self.config
        # exact rational token accounting: floats are binary rationals,
        # so Fraction arithmetic over them is lossless and telescoping —
        # refilling in one step or a thousand sub-steps yields the same
        # token count (the old float accumulator drifted with step
        # granularity and admitted off-by-one events on long soaks)
        self._bucket = Fraction(cfg.burst or cfg.capacity)
        self._tokens = self._bucket
        self._rate = None if cfg.rate is None else Fraction(cfg.rate)
        self._last_refill = Fraction(0)
        registry = get_registry()
        self._depth_gauge = registry.gauge(
            "online_queue_depth", "entries awaiting service per queue"
        ).labels(queue=name)
        self._admitted = registry.counter(
            "online_queue_admitted_total", "events admitted per queue"
        ).labels(queue=name)
        self._shed = registry.counter(
            "online_queue_shed_total", "events shed per queue and reason"
        )
        self._depth_peak = 0
        #: admitted entries later evicted by a shed policy — the service
        #: folds these into its per-stream shed accounting
        self.evicted = 0
        #: reason of the most recent shed ("rate"/"capacity"/"priority");
        #: the flight recorder reads it right after a refused offer
        self.last_shed_reason: Optional[str] = None
        #: when True, evictions are logged as (time, item, reason) for
        #: :meth:`take_evictions` (the flight recorder / SLO engine turn
        #: this on; off by default so unobserved runs don't accumulate)
        self.record_evictions = False
        self._evictions: List[Tuple[float, Any, str]] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth_peak(self) -> int:
        """Deepest the queue has been since construction."""
        return self._depth_peak

    def _refill(self, now: float) -> None:
        if self._rate is None:
            return
        exact_now = Fraction(now)
        if exact_now > self._last_refill:
            self._tokens = min(
                self._bucket,
                self._tokens + (exact_now - self._last_refill) * self._rate,
            )
            self._last_refill = exact_now

    def _take_token(self, now: float) -> Optional[float]:
        """Consume one token; returns the retry time when none exists.

        ``None`` means a token was consumed immediately; a float is the
        earliest virtual time a retry is guaranteed to find a token
        (the ``block`` policy re-offers there).
        """
        if self._rate is None:
            return None
        self._refill(now)
        if self._tokens >= 1:
            self._tokens -= 1
            return None
        # exact token time, rounded UP to a representable float so the
        # re-offer never lands a hair before the token exists
        target = Fraction(now) + (1 - self._tokens) / self._rate
        retry = float(target)
        if Fraction(retry) < target:
            retry = math.nextafter(retry, math.inf)
        return retry

    # ------------------------------------------------------------------
    # checkpointing (the fleet's per-shard epochs carry bucket state)
    # ------------------------------------------------------------------
    def token_state(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Exact ``(tokens, last_refill)`` as numerator/denominator pairs."""
        return (
            (self._tokens.numerator, self._tokens.denominator),
            (self._last_refill.numerator, self._last_refill.denominator),
        )

    def restore_token_state(
        self,
        tokens: Tuple[int, int],
        last_refill: Tuple[int, int],
    ) -> None:
        """Resume the bucket exactly where :meth:`token_state` left it."""
        self._tokens = min(self._bucket, Fraction(*map(int, tokens)))
        self._last_refill = Fraction(*map(int, last_refill))

    # ------------------------------------------------------------------
    def offer(
        self, item: Any, now: float, priority: int = 0
    ) -> Tuple[bool, float]:
        """Try to admit ``item`` at virtual time ``now``.

        Returns ``(admitted, effective_time)``.  A shed arrival returns
        ``(False, now)``.  Under the ``block`` policy an arrival that
        must wait (for a token; capacity blocking is resolved by the
        service, which knows when the consumer frees a slot) returns
        ``(False, retry_time)`` with ``retry_time > now``.
        """
        retry = self._take_token(now)
        if retry is not None:
            if self.config.policy == "block":
                return False, retry
            self._shed.inc(queue=self.name, reason="rate")
            self.last_shed_reason = "rate"
            return False, now
        if len(self._items) >= self.config.capacity:
            if not self._evict(item, priority, now):
                if self.config.policy == "block":
                    # give the token back: the arrival will be re-offered
                    if self._rate is not None:
                        self._tokens = min(self._bucket, self._tokens + 1)
                    return False, now
                reason = (
                    "priority"
                    if self.config.policy == "shed-lowest-priority"
                    else "capacity"
                )
                self._shed.inc(queue=self.name, reason=reason)
                self.last_shed_reason = reason
                return False, now
        self._items.append((now, priority, self._seq, item))
        self._seq += 1
        self._admitted.inc()
        depth = len(self._items)
        self._depth_gauge.set(depth)
        self._depth_peak = max(self._depth_peak, depth)
        return True, now

    def _evict(self, item: Any, priority: int, now: float) -> bool:
        """Make room under a shed policy; False means the queue stays
        full (block, or the arrival is strictly the lowest priority)."""
        if self.config.policy == "shed-oldest":
            victim = min(
                range(len(self._items)),
                key=lambda i: (self._items[i][0], self._items[i][2]),
            )
            entry = self._items.pop(victim)
            self.evicted += 1
            self._shed.inc(queue=self.name, reason="capacity")
            if self.record_evictions:
                self._evictions.append((now, entry[3], "capacity"))
            return True
        if self.config.policy == "shed-lowest-priority":
            # scan on (priority, admit_time, seq): seq is assigned at
            # admission, so among equal (priority, time) entries the
            # victim is exactly the first inserted — FIFO by construction
            victim = min(
                range(len(self._items)),
                key=lambda i: (
                    self._items[i][1],
                    self._items[i][0],
                    self._items[i][2],
                ),
            )
            if self._items[victim][1] > priority:
                # everything queued strictly outranks the arrival: shed it
                return False
            # FIFO among equal lowest priorities includes the arrival:
            # it is the newest, so the oldest queued tie is the victim
            tie = self._items[victim][1] == priority
            reason = "priority_tie" if tie else "priority"
            entry = self._items.pop(victim)
            self.evicted += 1
            self._shed.inc(queue=self.name, reason=reason)
            if self.record_evictions:
                self._evictions.append((now, entry[3], reason))
            return True
        return False

    def take_evictions(self) -> List[Tuple[float, Any, str]]:
        """Drain the (time, item, reason) log of policy evictions."""
        if not self._evictions:
            return []
        taken = self._evictions
        self._evictions = []
        return taken

    def pop(self) -> Tuple[float, int, int, Any]:
        """Remove and return the earliest-admitted entry."""
        victim = min(range(len(self._items)), key=lambda i: self._items[i][:3])
        entry = self._items.pop(victim)
        self._depth_gauge.set(len(self._items))
        return entry

    def peek_admit_time(self) -> float:
        """Admission time of the entry :meth:`pop` would return."""
        if not self._items:
            return math.inf
        return min(self._items)[0]
