"""Per-event causal tracing: the flight recorder.

Aggregate counters answer "how many events were shed"; the flight
recorder answers "where did publication #4812 spend its time and why
was it shed".  Every event admitted by the online
:class:`~repro.online.service.BrokerService` (and every publication a
chaos replay prices) carries an **event id**, and each hop of its life
appends one :class:`StageRecord`:

``enqueue``
    admission into a bounded stream queue (stream, queue depth);
``shed``
    the event was refused or evicted, with the reason
    (``rate`` / ``capacity`` / ``priority``);
``queue_wait``
    virtual seconds between arrival and service start;
``match``
    the matcher's verdict (interested count, groups used, unicast legs);
``join`` / ``leave``
    incremental maintainer work the event triggered (group chosen,
    drift after);
``rebuild``
    a drift- or churn-triggered refit the event's service tick fired;
``dispatch``
    the delivery decision (mode, cost);
``deliver``
    delivery outcome per multicast group on the degraded path, one
    aggregate record on the healthy path;
``unicast``
    unicast top-up / fallback legs;
``outcome``
    the event's final classification (delivered / degraded / lost,
    end-to-end virtual latency);
``fault``
    a fault event applied to the topology.

Everything is stamped on the **virtual clock**, so a seeded run's
flight log is byte-identical across repetitions — and across worker
counts: a fleet shard or chaos replay records into its own private
recorder and returns the records with its result, which the parent
concatenates in a fixed (epoch, shard) or cell order.

The recorder starts *disabled*: a stage call then costs one attribute
check, and the "current event" plumbing (:meth:`event`) is a no-op, so
recording on vs off cannot perturb any simulation result — the recorder
only ever observes.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["StageRecord", "FlightRecorder", "stage_latencies"]

#: canonical stage ordering for reports (unknown stages sort last)
STAGE_ORDER = (
    "enqueue",
    "shed",
    "queue_wait",
    "match",
    "join",
    "leave",
    "rebuild",
    "dispatch",
    "overlay_build",
    "overlay_repair",
    "deliver",
    "unicast",
    "outcome",
)


class StageRecord:
    """One hop in one event's life, on the virtual clock."""

    __slots__ = ("event_id", "stage", "t", "attrs")

    def __init__(
        self, event_id: int, stage: str, t: float, attrs: Dict[str, object]
    ) -> None:
        self.event_id = event_id
        self.stage = stage
        self.t = t
        self.attrs = attrs

    def as_dict(self) -> Dict:
        return {
            "event": self.event_id,
            "stage": self.stage,
            "t": self.t,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StageRecord({self.event_id}, {self.stage!r}, t={self.t:g})"


class FlightRecorder:
    """Records per-event stage chains; near-free while disabled.

    Event ids are supplied by the caller (the online service uses the
    event's deterministic position in the sorted input stream; the
    chaos runner uses the publication index), so a seeded run assigns
    the same ids no matter how it is executed.  Layers below the
    service (broker, maintainer, matcher) do not know event ids — they
    record against the *current* event, scoped by :meth:`event`.
    """

    #: Records are stored in :attr:`buf` as raw ``(event_id, stage, t,
    #: attrs)`` tuples and materialised into :class:`StageRecord`
    #: objects only on read.  :meth:`record` / :meth:`stage` are the
    #: convenience API; per-event hot paths (the service's drain loop,
    #: the broker's healthy publish path) skip the call overhead and
    #: append tuples to :attr:`buf` directly, guarded by
    #: :attr:`enabled` / :attr:`active` — that raw-append protocol is
    #: what keeps recording within the soak's overhead budget.  A raw
    #: tuple may also carry its attributes flat, ``(event_id, stage, t,
    #: key, value, key, value, ...)`` (odd length, where the dict form
    #: has four fields): one allocation instead of two, which the
    #: collector stops tracking once it has seen its atomic fields.
    #: Appends never take the lock: a CPython ``list.append`` is atomic
    #: and the recording side is a single thread (the service consumer /
    #: the sequential chaos replay).  The lock guards the *compound*
    #: mutations (clear, take_chain, ingest) and snapshot reads against
    #: each other; ``buf`` is only ever mutated in place so direct
    #: references stay valid across :meth:`clear`.

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        #: raw record buffer: ``(event_id, stage, t, attrs)`` tuples, or
        #: their flat form (see the class notes)
        self.buf: List[tuple] = []
        #: id and virtual time of the event scoped by :meth:`event`
        #: (raw appends against the current event read these directly;
        #: a caller pricing a run of events inside one scope retargets
        #: them event by event)
        self.current_event: Optional[int] = None
        self.now: float = 0.0
        #: True when stages recorded now would land on a current event.
        #: A plain attribute, maintained by :meth:`event` scopes and
        #: enable/disable, so instrumented layers can skip *preparing*
        #: attribute payloads (e.g. a per-group loop) with one fetch.
        self.active = False

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, clear: bool = True) -> "FlightRecorder":
        if clear:
            self.clear()
        self._enabled = True
        self.active = self.current_event is not None
        return self

    def disable(self) -> "FlightRecorder":
        self._enabled = False
        self.active = False
        return self

    def clear(self) -> None:
        with self._lock:
            self.buf.clear()

    def __len__(self) -> int:
        return len(self.buf)

    # ------------------------------------------------------------------
    def record(
        self, event_id: int, stage: str, t: float, **attrs: object
    ) -> None:
        """Append one stage record for an explicit event id."""
        if self._enabled:
            self.buf.append((event_id, stage, t, attrs))

    def event(self, event_id: int, now: float) -> "_EventScope":
        """Scope the *current* event for layers that don't know ids.

        Usage (the service, around one event's processing)::

            with recorder.event(seq, completion):
                broker.publish(...)   # broker stages land on `seq`

        Nested scopes are not supported (the service is single-consumer
        and the chaos replay is sequential); the scope is a plain reset
        on exit.
        """
        return _EventScope(self, event_id, now)

    def stage(self, stage: str, **attrs: object) -> None:
        """Record a stage against the current event (no-op outside a
        scope or while disabled) at the scope's virtual time."""
        if self.active:
            self.buf.append((self.current_event, stage, self.now, attrs))

    # ------------------------------------------------------------------
    def records(self) -> List[StageRecord]:
        """Snapshot of the recorded stages, in recording order."""
        with self._lock:
            return [StageRecord(*_unpack(entry)) for entry in self.buf]

    def as_dicts(self) -> List[Dict]:
        with self._lock:
            return [_as_dict(entry) for entry in self.buf]

    def chain(self, event_id: int) -> List[StageRecord]:
        """The stage chain of one event, in recording order."""
        with self._lock:
            return [
                StageRecord(*_unpack(entry))
                for entry in self.buf
                if entry[0] == event_id
            ]

    def take_chain(self, event_id: int) -> List[Dict]:
        """Remove and return one event's chain as plain dicts.

        The chaos runner uses this to move a finished publication's
        cause chain into the degradation report without letting the
        recorder grow across cells.
        """
        with self._lock:
            taken = [r for r in self.buf if r[0] == event_id]
            if taken:
                self.buf[:] = [
                    r for r in self.buf if r[0] != event_id
                ]
        return [_as_dict(entry) for entry in taken]

    def insert(
        self,
        positions: List[int],
        chains: List[List[tuple]],
    ) -> None:
        """Splice raw record chains into the buffer.

        ``chains[i]`` lands at ``positions[i]``, an index into the
        buffer as it is now; positions must be ascending.  The online
        service uses this to file a deferred publication's stages where
        the event's chain would have been recorded had it been priced
        on arrival.  Only the buffer's tail from the first position on
        is rebuilt.
        """
        if not positions:
            return
        with self._lock:
            buf = self.buf
            first = positions[0]
            tail = buf[first:]
            merged = []
            prev = first
            for position, chain in zip(positions, chains):
                merged.extend(tail[prev - first:position - first])
                merged.extend(chain)
                prev = position
            merged.extend(tail[prev - first:])
            buf[first:] = merged


def _unpack(entry: tuple) -> Tuple[int, str, float, Dict[str, object]]:
    """A raw buffer entry as ``(event_id, stage, t, attrs)``, with a
    fresh attrs dict."""
    if len(entry) == 4:
        return entry[0], entry[1], entry[2], dict(entry[3])
    return entry[0], entry[1], entry[2], dict(zip(entry[3::2], entry[4::2]))


def _as_dict(entry: tuple) -> Dict:
    eid, stage, t, attrs = _unpack(entry)
    return {"event": eid, "stage": stage, "t": t, "attrs": attrs}


class _EventScope:
    """Context manager binding a recorder's current event id + time."""

    __slots__ = ("_recorder", "_event_id", "_now")

    def __init__(
        self, recorder: FlightRecorder, event_id: int, now: float
    ) -> None:
        self._recorder = recorder
        self._event_id = event_id
        self._now = now

    def __enter__(self) -> FlightRecorder:
        recorder = self._recorder
        if recorder._enabled:
            recorder.current_event = self._event_id
            recorder.now = self._now
            recorder.active = True
        return recorder

    def __exit__(self, *exc_info) -> bool:
        self._recorder.current_event = None
        self._recorder.active = False
        return False


def stage_latencies(
    records: Iterable,
    key: Callable[[StageRecord], object] = lambda r: r.stage,
) -> Dict[object, List[float]]:
    """Group the ``seconds`` attribute of stage records by ``key``.

    ``records`` may be :class:`StageRecord` objects or their
    :meth:`~StageRecord.as_dict` form.  Only records carrying a
    ``seconds`` attribute contribute (the duration-bearing stages:
    ``queue_wait`` and ``outcome``); the result maps each key to its
    observed virtual durations in record order — ready for quantile
    estimation in the waterfall report.
    """
    out: Dict[object, List[float]] = {}
    for record in records:
        if isinstance(record, Mapping):
            record = StageRecord(
                int(record.get("event", 0)),
                str(record.get("stage", "?")),
                float(record.get("t", 0.0)),
                dict(record.get("attrs") or {}),
            )
        seconds = record.attrs.get("seconds")
        if seconds is None:
            continue
        out.setdefault(key(record), []).append(float(seconds))
    return out
