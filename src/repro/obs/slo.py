"""Declarative service-level objectives over sliding virtual-time windows.

An :class:`Objective` names a signal the online runtime emits, a
statistic over a sliding window of *virtual* seconds, and a threshold::

    {"name": "pub-latency-p95", "signal": "latency", "stat": "p95",
     "threshold": 0.5, "window": 100.0, "stream": "pub"}

The :class:`SloEngine` ingests raw observations ``(signal, t, value)``
as the service produces them, maintains one sliding window per
objective, and emits an :class:`SloBreach` on each *rising edge* — the
first observation at which the windowed statistic crosses the
threshold; the objective must recover (drop back under) before it can
breach again.  Rising-edge emission keeps breach streams short and —
because everything runs on the virtual clock over a deterministic
event stream — byte-identical across runs and worker counts.

Signals (all virtual-time):

``latency``
    end-to-end seconds from arrival to completion, per event;
``queue_wait``
    seconds from arrival to service start, per event;
``shed_rate``
    one 0/1 observation per arrival (1 = shed), so a windowed *mean*
    is the shed fraction;
``waste_inflation``
    the maintainer's current-waste / fit-waste ratio, sampled per
    membership change;
``lost_rate``
    per publication, lost deliveries / intended deliveries, so a
    windowed *mean* is the lost-delivery fraction.

Breaches can feed adaptation: an objective with ``feed_drift`` true
hands each breach to the engine's ``drift_sink`` (wired by the service
to :meth:`RebuildScheduler.note_drift` through the broker), turning an
alert into a rebuild trigger — measured telemetry driving adaptation.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SIGNALS",
    "STATS",
    "Objective",
    "SloBreach",
    "SloEngine",
    "load_slo_spec",
]

SIGNALS = (
    "latency",
    "queue_wait",
    "shed_rate",
    "waste_inflation",
    "lost_rate",
)

STATS = ("mean", "max", "p50", "p95", "p99")


@dataclass(frozen=True)
class Objective:
    """One declarative objective: stat(signal over window) vs threshold."""

    name: str
    signal: str
    stat: str
    threshold: float
    window: float
    stream: Optional[str] = None
    min_count: int = 1
    feed_drift: bool = False

    def __post_init__(self) -> None:
        if self.signal not in SIGNALS:
            raise ValueError(
                f"unknown signal {self.signal!r}; expected one of {SIGNALS}"
            )
        if self.stat not in STATS:
            raise ValueError(
                f"unknown stat {self.stat!r}; expected one of {STATS}"
            )
        if not (math.isfinite(self.threshold)):
            raise ValueError("threshold must be finite")
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValueError("window must be a positive virtual duration")
        if self.min_count < 1:
            raise ValueError("min_count must be at least 1")

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "signal": self.signal,
            "stat": self.stat,
            "threshold": self.threshold,
            "window": self.window,
            "stream": self.stream,
            "min_count": self.min_count,
            "feed_drift": self.feed_drift,
        }


@dataclass(frozen=True)
class SloBreach:
    """A rising-edge threshold crossing of one objective."""

    time: float
    objective: str
    signal: str
    stat: str
    value: float
    threshold: float
    window_count: int

    def as_dict(self) -> Dict:
        return {
            "time": self.time,
            "objective": self.objective,
            "signal": self.signal,
            "stat": self.stat,
            "value": self.value,
            "threshold": self.threshold,
            "window_count": self.window_count,
        }


#: quantile stats as integer rank fractions: index = ceil(q*n) - 1
#: computed as (num*n + den-1)//den - 1, all-integer on the hot path
_QUANTILE_RANKS = {"p50": (50, 100), "p95": (95, 100), "p99": (99, 100)}


class _Tracked:
    """One objective's live state: its sliding window (deque for
    expiry, sorted list for O(log n) quantiles, running sum for the
    mean) plus the objective's fields cached as plain slots.

    :meth:`SloEngine.observe` runs per event on the service hot path,
    so the window is folded into this object and the dataclass fields
    are denormalised — one attribute hop each, no method calls beyond
    ``insort``.
    """

    __slots__ = (
        "objective", "breached",
        "stream", "horizon", "min_count", "threshold", "feed_drift",
        "stat_name", "rank", "entries", "sorted_values", "total",
    )

    def __init__(self, objective: Objective) -> None:
        self.objective = objective
        self.breached = False
        self.stream = objective.stream
        self.horizon = objective.window
        self.min_count = objective.min_count
        self.threshold = objective.threshold
        self.feed_drift = objective.feed_drift
        self.stat_name = objective.stat
        self.rank = _QUANTILE_RANKS.get(objective.stat)
        self.entries: Deque[Tuple[float, float]] = deque()
        self.sorted_values: List[float] = []
        self.total = 0.0

    def stat(self) -> float:
        """The windowed statistic over the current (non-empty) window."""
        values = self.sorted_values
        n = len(values)
        if self.rank is not None:
            num, den = self.rank
            return values[max(0, (num * n + den - 1) // den - 1)]
        if self.stat_name == "mean":
            return self.total / n
        return values[-1]

    def __len__(self) -> int:
        return len(self.entries)


class SloEngine:
    """Evaluates a set of objectives over a stream of observations.

    ``drift_sink`` (optional) receives each breach whose objective set
    ``feed_drift`` — the service binds it to the broker's drift
    notification so SLO alerts become adaptation signals.

    Evaluation is split by role, the way alerting pipelines keep off
    the data path.  Objectives with ``feed_drift`` must influence the
    run *while it executes*, so they evaluate inline on every
    observation.  Alert-only objectives evaluate on a **deferred
    replay** of the buffered observations, triggered the first time
    breaches or summaries are read.  Each objective sees only its own
    signal, so the buffer keeps one flat ``t, value, stream, ...`` list
    per signal that an alert-only objective watches: the hot path pays
    one list extend per observation and allocates nothing that
    outlives it.  The replay is a pure function of each signal's
    observations in arrival order, so the breach output is
    byte-identical to inline evaluation; the merged breach list is
    ordered by ``(time, objective)`` either way.
    """

    def __init__(
        self,
        objectives: Iterable[Objective],
        drift_sink: Optional[Callable[[SloBreach], None]] = None,
    ) -> None:
        self.objectives = list(objectives)
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError("objective names must be unique")
        self.drift_sink = drift_sink
        self._breaches: List[SloBreach] = []
        self._by_signal: Dict[str, List[_Tracked]] = {}
        self._inline: Dict[str, List[_Tracked]] = {}
        self._deferred: Dict[str, List[_Tracked]] = {}
        for objective in self.objectives:
            entry = _Tracked(objective)
            self._by_signal.setdefault(objective.signal, []).append(entry)
            target = self._inline if objective.feed_drift else self._deferred
            target.setdefault(objective.signal, []).append(entry)
        #: per deferred signal: flat ``t, value, stream`` triples, and
        #: the prefix length the replay has already seen
        self._buffer: Dict[str, List] = {
            signal: [] for signal in self._deferred
        }
        self._replayed: Dict[str, int] = {
            signal: 0 for signal in self._deferred
        }
        #: per watched signal: its buffer (or None) and its inline
        #: objectives (or None), so an observation costs one lookup
        self._routes = {
            signal: (self._buffer.get(signal), self._inline.get(signal))
            for signal in self._by_signal
        }

    # ------------------------------------------------------------------
    @property
    def breaches(self) -> List[SloBreach]:
        """All breaches so far, ordered by ``(time, objective)``."""
        self._replay_deferred()
        return self._breaches

    def observe(
        self,
        signal: str,
        t: float,
        value: float,
        stream: Optional[str] = None,
    ) -> None:
        """Feed one raw observation.

        The observation is buffered for the deferred replay; objectives
        that feed drift evaluate immediately so their breaches can steer
        the run.
        """
        route = self._routes.get(signal)
        if route is None:
            return
        buffered, inline = route
        if buffered is not None:
            buffered.extend((t, value, stream))
        if inline is not None:
            self._evaluate(inline, signal, t, value, stream)

    def _replay_deferred(self) -> None:
        """Run alert-only objectives over the unseen buffer suffixes."""
        evaluate = self._evaluate
        for signal, tracked in self._deferred.items():
            buffered = self._buffer[signal]
            start = self._replayed[signal]
            self._replayed[signal] = len(buffered)
            for i in range(start, len(buffered), 3):
                evaluate(
                    tracked, signal,
                    buffered[i], buffered[i + 1], buffered[i + 2],
                )
        # deterministic merge of inline + replayed breaches; sort is
        # stable, so each objective's own breaches keep emission order
        self._breaches.sort(key=lambda b: (b.time, b.objective))

    def _evaluate(
        self,
        tracked: List[_Tracked],
        signal: str,
        t: float,
        value: float,
        stream: Optional[str],
    ) -> None:
        """Push one observation through the given objectives."""
        for entry in tracked:
            if entry.stream is not None and entry.stream != stream:
                continue
            entries = entry.entries
            sorted_values = entry.sorted_values
            entries.append((t, value))
            insort(sorted_values, value)
            entry.total += value
            cutoff = t - entry.horizon
            while entries[0][0] < cutoff:
                _, old = entries.popleft()
                del sorted_values[bisect_left(sorted_values, old)]
                entry.total -= old
            n = len(entries)
            if n < entry.min_count:
                continue
            rank = entry.rank
            if rank is not None:
                num, den = rank
                stat = sorted_values[(num * n + den - 1) // den - 1]
            elif entry.stat_name == "mean":
                stat = entry.total / n
            else:
                stat = sorted_values[-1]
            if stat > entry.threshold:
                if not entry.breached:
                    entry.breached = True
                    breach = SloBreach(
                        time=t,
                        objective=entry.objective.name,
                        signal=signal,
                        stat=entry.stat_name,
                        value=stat,
                        threshold=entry.threshold,
                        window_count=n,
                    )
                    self._breaches.append(breach)
                    if entry.feed_drift and self.drift_sink is not None:
                        self.drift_sink(breach)
            else:
                entry.breached = False

    # ------------------------------------------------------------------
    def summary(self) -> List[Dict]:
        """One row per objective: breach count and final window stat."""
        self._replay_deferred()
        rows = []
        for tracked in (
            entry for group in self._by_signal.values() for entry in group
        ):
            objective = tracked.objective
            count = sum(
                1 for b in self._breaches if b.objective == objective.name
            )
            rows.append(
                {
                    "objective": objective.name,
                    "signal": objective.signal,
                    "stat": objective.stat,
                    "threshold": objective.threshold,
                    "window": objective.window,
                    "stream": objective.stream,
                    "breaches": count,
                    "last_value": (
                        tracked.stat() if len(tracked) else None
                    ),
                    "breached_now": tracked.breached,
                }
            )
        rows.sort(key=lambda r: r["objective"])
        return rows

    def breach_dicts(self) -> List[Dict]:
        self._replay_deferred()
        return [b.as_dict() for b in self._breaches]


def load_slo_spec(source) -> List[Objective]:
    """Parse an SLO spec (path, JSON text, or parsed structure).

    The spec is either ``{"objectives": [...]}`` or a bare list of
    objective dictionaries; unknown keys are rejected by the dataclass.
    """
    if isinstance(source, (list, dict)):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith(("{", "[")):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as handle:
                data = json.load(handle)
    if isinstance(data, dict):
        data = data.get("objectives", [])
    if not isinstance(data, list):
        raise ValueError("SLO spec must be a list of objectives")
    return [Objective(**entry) for entry in data]
