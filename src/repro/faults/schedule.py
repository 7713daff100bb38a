"""Deterministic, seeded fault schedules on a virtual clock.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`
records — node-down/node-up, link-down/link-up, subscriber join/leave —
each stamped with a virtual time.  Schedules are plain data: they
serialise to JSON, round-trip losslessly, and replaying the same
schedule over the same scenario is bit-for-bit reproducible, which is
what lets the chaos test suite pin exact degraded/lost counts.

:meth:`FaultSchedule.generate` draws a balanced random schedule from a
seed: every element that goes down comes back up within the horizon, so
a full replay always ends on the original topology (the precondition for
the post-recovery byte-identity property).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FaultEvent", "FaultSchedule", "KINDS"]

KINDS = (
    "node_down",
    "node_up",
    "link_down",
    "link_up",
    "sub_leave",
    "sub_join",
)

_NODE_KINDS = ("node_down", "node_up", "sub_join")
_LINK_KINDS = ("link_down", "link_up")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault or churn event.

    ``node`` carries the target for node events and the placement node
    for ``sub_join``; ``link`` carries the ``(u, v)`` endpoints for link
    events; ``subscriber`` carries the victim index for ``sub_leave``
    (an index into the *currently live* subscriber list at replay time,
    taken modulo its length, so schedules stay valid under churn).
    """

    time: float
    kind: str
    node: int = -1
    link: Tuple[int, int] = ()
    subscriber: int = -1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if self.kind in _NODE_KINDS and self.node < 0:
            raise ValueError(f"{self.kind} requires a node target")
        if self.kind in _LINK_KINDS:
            if len(self.link) != 2 or self.link[0] == self.link[1]:
                raise ValueError(f"{self.kind} requires a (u, v) link")
            object.__setattr__(
                self, "link", (min(self.link), max(self.link))
            )
        if self.kind == "sub_leave" and self.subscriber < 0:
            raise ValueError("sub_leave requires a subscriber index")

    def as_dict(self) -> Dict:
        record: Dict = {"time": self.time, "kind": self.kind}
        if self.kind in _NODE_KINDS:
            record["node"] = self.node
        if self.kind in _LINK_KINDS:
            record["link"] = list(self.link)
        if self.kind == "sub_leave":
            record["subscriber"] = self.subscriber
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "FaultEvent":
        return cls(
            time=float(record["time"]),
            kind=str(record["kind"]),
            node=int(record.get("node", -1)),
            link=tuple(record.get("link", ())),
            subscriber=int(record.get("subscriber", -1)),
        )


class FaultSchedule:
    """A time-ordered, replayable sequence of fault events."""

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        horizon: Optional[float] = None,
    ) -> None:
        self._events: List[FaultEvent] = sorted(
            events, key=lambda e: e.time
        )
        if horizon is None:
            horizon = self._events[-1].time if self._events else 0.0
        if self._events and horizon < self._events[-1].time:
            raise ValueError("horizon earlier than the last event")
        self.horizon = float(horizon)

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[FaultEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def counts(self) -> Dict[str, int]:
        """Events per kind (all kinds present, zero-filled)."""
        out = {kind: 0 for kind in KINDS}
        for event in self._events:
            out[event.kind] += 1
        return out

    # ------------------------------------------------------------------
    def as_dicts(self) -> List[Dict]:
        return [event.as_dict() for event in self._events]

    def to_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"horizon": self.horizon, "events": self.as_dicts()},
                handle,
                indent=2,
            )

    @classmethod
    def from_json(cls, path) -> "FaultSchedule":
        with open(path) as handle:
            payload = json.load(handle)
        return cls(
            events=[FaultEvent.from_dict(r) for r in payload["events"]],
            horizon=float(payload.get("horizon", 0.0) or 0.0) or None,
        )

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        topology,
        horizon: float,
        seed: int = 0,
        node_fraction: float = 0.0,
        n_link_faults: int = 0,
        n_churn: int = 0,
        n_subscribers: int = 0,
        protect: Sequence[int] = (),
        mean_downtime_fraction: float = 0.2,
    ) -> "FaultSchedule":
        """Draw a balanced random schedule from a seed.

        ``node_fraction`` of the topology's stub nodes fail at uniform
        times and recover within the horizon; ``n_link_faults`` random
        links do likewise; ``n_churn`` subscriber leave and join pairs
        model subscription dynamics (joins placed on random stub nodes).
        ``protect`` exempts nodes (e.g. a fixed publisher) from failure.
        Every down event has a matching up event before the horizon, so
        replay ends on the pristine topology.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if node_fraction < 0 or n_link_faults < 0 or n_churn < 0:
            raise ValueError(
                "node_fraction, n_link_faults and n_churn must be "
                "non-negative"
            )
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        protected = set(int(p) for p in protect)
        candidates = [
            n for n in topology.stub_nodes() if n not in protected
        ]
        n_fail = int(round(node_fraction * topology.n_nodes))
        n_fail = min(n_fail, len(candidates))
        if n_fail:
            victims = rng.choice(len(candidates), size=n_fail, replace=False)
            for index in victims:
                node = int(candidates[int(index)])
                down, up = cls._down_up(
                    rng, horizon, mean_downtime_fraction
                )
                events.append(FaultEvent(down, "node_down", node=node))
                events.append(FaultEvent(up, "node_up", node=node))
        if n_link_faults:
            links = list(topology.graph.edges())
            picks = rng.choice(
                len(links), size=min(n_link_faults, len(links)),
                replace=False,
            )
            for index in picks:
                u, v, _ = links[int(index)]
                down, up = cls._down_up(
                    rng, horizon, mean_downtime_fraction
                )
                events.append(
                    FaultEvent(down, "link_down", link=(u, v))
                )
                events.append(FaultEvent(up, "link_up", link=(u, v)))
        for _ in range(n_churn):
            t_leave = float(rng.uniform(0.0, horizon))
            victim = int(rng.integers(0, max(1, n_subscribers)))
            events.append(
                FaultEvent(t_leave, "sub_leave", subscriber=victim)
            )
            t_join = float(rng.uniform(0.0, horizon))
            stubs = topology.stub_nodes()
            node = int(stubs[int(rng.integers(0, len(stubs)))])
            events.append(FaultEvent(t_join, "sub_join", node=node))
        return cls(events, horizon=horizon)

    @staticmethod
    def _down_up(
        rng: np.random.Generator, horizon: float, downtime_fraction: float
    ) -> Tuple[float, float]:
        down = float(rng.uniform(0.0, horizon * 0.6))
        downtime = float(
            horizon * downtime_fraction * rng.uniform(0.5, 1.5)
        )
        up = min(down + max(downtime, 1e-9), horizon * 0.95)
        return down, up
