"""Process-local metrics: counters, gauges and histograms with labels.

The registry is the write side of the observability layer: pipeline
stages record *what happened* (events matched, cache hits, merges
performed) as named instruments, and exporters or reports read one
consistent snapshot at the end of a run.  Everything is in-process and
dependency-free — the shape follows the Prometheus client model
(instrument -> labeled children -> samples) without any of its wire
formats.

Instruments are cheap enough for per-lookup hot paths: a bound child
(:meth:`Counter.labels` resolved once, outside the loop) increments a
single float under a lock, and a registry lookup is one dict access.
All mutation is thread-safe.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "fold_sum",
]

#: default histogram bucket upper bounds (seconds-oriented: spans from
#: microseconds to minutes), chosen so timing observations land usefully
#: without configuration
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def fold_sum(total: float, values) -> float:
    """``total`` plus each of ``values`` in order, one float addition
    at a time: bit for bit the running sum a per-item loop keeps (a
    numpy reduction would sum pairwise)."""
    for value in values.tolist() if hasattr(values, "tolist") else values:
        total += value
    return total


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Common machinery: a named family of labeled children."""

    kind = "abstract"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._children: Dict[LabelKey, object] = {}
        #: children bound by :meth:`child`, by label value
        self._by_value: Dict[object, object] = {}

    def child(self, label: Optional[str], value: object):
        """The child whose one ``label`` reads ``value`` (the unlabelled
        child for ``None``), resolved once.

        A path that increments a labelled instrument once per run would
        otherwise sort a label key on every run.  The child is created
        on the first call, as :meth:`labels` would create it, so a
        snapshot keeps its order; a fresh registry (a pool worker's)
        has fresh instruments, so nothing stays bound across them.
        """
        child = self._by_value.get(value)
        if child is None:
            labels = {} if label is None else {label: value}
            child = self._by_value[value] = self.labels(**labels)
        return child

    def labels(self, **labels: object):
        """The child tracking one label combination (created on demand)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self):
        raise NotImplementedError

    def reset(self) -> None:
        """Zero every child (the children themselves are kept)."""
        with self._lock:
            for child in self._children.values():
                child.reset()

    def samples(self) -> List[Dict]:
        """One flat record per labeled child."""
        with self._lock:
            items = list(self._children.items())
        records = []
        for key, child in items:
            record = {
                "name": self.name,
                "type": self.kind,
                "labels": dict(key),
            }
            record.update(child.sample())
            records.append(record)
        return records


class _CounterChild:
    """A monotonically increasing count for one label combination."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += value

    def merge(self, sample: Mapping) -> None:
        """Fold another child's sample into this one (adds the count)."""
        self.inc(float(sample.get("value", 0.0)))

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def sample(self) -> Dict:
        return {"value": self._value}


class Counter(_Instrument):
    """A monotonically increasing counter with optional labels."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    # convenience for the common unlabeled case
    def inc(self, value: float = 1.0, **labels: object) -> None:
        self.labels(**labels).inc(value)

    @property
    def value(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(child.value for child in self._children.values())


class _GaugeChild:
    """A point-in-time value for one label combination."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, value: float) -> None:
        with self._lock:
            self._value += value

    def merge(self, sample: Mapping) -> None:
        """Fold another child's sample into this one (last write wins —
        a gauge is a point-in-time reading, not an accumulation)."""
        self.set(float(sample.get("value", 0.0)))

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def sample(self) -> Dict:
        return {"value": self._value}


class Gauge(_Instrument):
    """A value that can go up and down (population sizes, cache sizes)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: object) -> None:
        self.labels(**labels).set(value)

    @property
    def value(self) -> float:
        with self._lock:
            children = list(self._children.values())
        if not children:
            return 0.0
        return children[-1].value if len(children) == 1 else sum(
            c.value for c in children
        )


class _HistogramChild:
    """Count/sum/min/max plus cumulative bucket counts."""

    __slots__ = (
        "_lock", "_bounds", "_edges", "_buckets", "count", "sum", "min",
        "max",
    )

    def __init__(self, bounds: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self._bounds = tuple(bounds)
        self._edges = np.array(self._bounds, dtype=np.float64)
        self._buckets = [0] * (len(self._bounds) + 1)  # +inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            for idx, bound in enumerate(self._bounds):
                if value <= bound:
                    self._buckets[idx] += 1
                    return
            self._buckets[-1] += 1

    def observe_many(self, values) -> None:
        """:meth:`observe` each of ``values`` (a float64 array) in order:
        the same count, sum, min, max and buckets."""
        if not len(values):
            return
        # the first bound at or above each value; NaN lands past the end
        slots = np.searchsorted(self._edges, values, side="left").tolist()
        with self._lock:
            self.count += len(slots)
            total, low, high = self.sum, self.min, self.max
            buckets = self._buckets
            for value, slot in zip(values.tolist(), slots):
                total += value
                if value < low:
                    low = value
                if value > high:
                    high = value
                buckets[slot] += 1
            self.sum, self.min, self.max = total, low, high

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _quantile_locked(self, q: float) -> Optional[float]:
        """Exact-over-bounds quantile estimate (caller holds the lock).

        The observation of rank ``ceil(q * count)`` fell in some bucket;
        its upper bound — clamped to the recorded ``[min, max]`` — is the
        tightest value the bucket layout can certify.  No interpolation,
        no dependencies, deterministic for a given stream of observes.
        """
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for idx, bound in enumerate(self._bounds):
            cumulative += self._buckets[idx]
            if cumulative >= rank:
                return min(max(bound, self.min), self.max)
        return self.max

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0 < q <= 1), or ``None`` when empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def merge(self, sample: Mapping) -> None:
        """Fold another child's sample into this one.

        Count, sum and the per-bucket counts add; min/max widen.  Bucket
        counts are matched by their ``le_*`` key, so only bounds both
        sides share contribute detail (count and sum stay exact either
        way).
        """
        count = int(sample.get("count", 0))
        if count <= 0:
            return
        buckets = sample.get("buckets") or {}
        with self._lock:
            self.count += count
            self.sum += float(sample.get("sum", 0.0))
            low = sample.get("min")
            if low is not None and float(low) < self.min:
                self.min = float(low)
            high = sample.get("max")
            if high is not None and float(high) > self.max:
                self.max = float(high)
            for idx, bound in enumerate(self._bounds):
                self._buckets[idx] += int(buckets.get(f"le_{bound:g}", 0))
            self._buckets[-1] += int(buckets.get("le_inf", 0))

    def reset(self) -> None:
        with self._lock:
            self._buckets = [0] * (len(self._bounds) + 1)
            self.count = 0
            self.sum = 0.0
            self.min = float("inf")
            self.max = float("-inf")

    def sample(self) -> Dict:
        with self._lock:
            empty = self.count == 0
            return {
                "count": self.count,
                "sum": self.sum,
                "min": None if empty else self.min,
                "max": None if empty else self.max,
                "mean": 0.0 if empty else self.sum / self.count,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
                "buckets": {
                    **{
                        f"le_{bound:g}": count
                        for bound, count in zip(self._bounds, self._buckets)
                    },
                    "le_inf": self._buckets[-1],
                },
            }


class Histogram(_Instrument):
    """A distribution of observations (timings, batch sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, description)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a sorted non-empty sequence")
        self.buckets = tuple(float(b) for b in buckets)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: object) -> None:
        self.labels(**labels).observe(value)

    def quantile(self, q: float, **labels: object) -> Optional[float]:
        return self.labels(**labels).quantile(q)


class MetricsRegistry:
    """A process-local collection of named instruments.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    an existing name returns the existing instrument (and raises if it
    was registered as a different type), so any module can reference a
    metric without coordinating creation order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, description: str, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = cls(name, description, **kwargs)
                    self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {cls.kind}"
            )
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def counter_child(
        self,
        name: str,
        description: str,
        label: Optional[str] = None,
        value: object = None,
    ) -> _CounterChild:
        """The child of counter ``name`` whose one ``label`` reads
        ``value`` (the unlabelled child without a label), resolved once
        per counter (see :meth:`_Instrument.child`)."""
        counter = self._instruments.get(name)
        if counter is None:
            counter = self.counter(name, description)
        return counter.child(label, value)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, description, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument registered under ``name``, if any."""
        return self._instruments.get(name)

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> List[Dict]:
        """Every sample of every instrument, one flat record each."""
        records: List[Dict] = []
        for instrument in self.instruments():
            records.extend(instrument.samples())
        return records

    def reset(self) -> None:
        """Zero every instrument (registrations are kept)."""
        for instrument in self.instruments():
            instrument.reset()

    def merge_records(self, records: Iterable[Mapping]) -> int:
        """Fold snapshot records from another registry into this one.

        ``records`` is what :meth:`snapshot` produced on the source
        registry — typically a worker process's metrics shipped back to
        the parent by the parallel sweep engine.  Counters and histograms
        accumulate; gauges take the merged value (last write wins).
        Instruments and labeled children are created on demand, so a
        parent that never touched a metric still receives it.  Returns
        the number of records merged.
        """
        merged = 0
        for record in records:
            name = record.get("name")
            kind = record.get("type")
            if not name:
                continue
            if kind == "counter":
                instrument = self.counter(name)
            elif kind == "gauge":
                instrument = self.gauge(name)
            elif kind == "histogram":
                # recover the source's bucket bounds from the sample keys
                # so a first-contact merge preserves the distribution
                bounds = sorted(
                    float(key[3:])
                    for key in (record.get("buckets") or {})
                    if key != "le_inf"
                )
                instrument = self.histogram(
                    name, buckets=bounds or DEFAULT_BUCKETS
                )
            else:
                continue
            instrument.labels(**record.get("labels", {})).merge(record)
            merged += 1
        return merged
