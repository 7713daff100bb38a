"""Chaos replay: drive a broker through a fault schedule.

The :class:`ChaosRunner` merges a :class:`~repro.faults.FaultSchedule`
with a seeded publication stream on one virtual clock and replays them
in time order over a scenario's broker:

* fault events mutate the routing tables in place (selective
  shortest-path-tree invalidation, dispatcher memo invalidation) and
  feed the broker's debounced rebuild scheduler, weighted by how many
  subscribers each fault touches;
* publication events go through :meth:`ContentBroker.publish`, which
  degrades gracefully while faults are active (unicast fallback for
  broken groups, explicit lost accounting for unreachable subscribers).

At the end of the horizon every still-failed element is healed and the
broker performs one full recovery rebuild, so a balanced schedule leaves
the system byte-identical to a never-faulted run — the invariant the
property suite locks in.  The same runner with an empty schedule *is*
the no-fault baseline.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..broker import BrokerConfig, ContentBroker
from ..obs import (
    FlightRecorder,
    get_flight_recorder,
    get_tracer,
    set_flight_recorder,
)
from ..obs.slo import SloEngine
from ..workload import PublicationEvent
from .report import DegradationReport
from .schedule import FaultSchedule

__all__ = ["ChaosRunner"]


class ChaosRunner:
    """Replays a fault schedule plus a publication stream over a scenario."""

    def __init__(
        self,
        scenario,
        schedule: Optional[FaultSchedule] = None,
        config: Optional[BrokerConfig] = None,
        n_events: int = 100,
        seed: int = 0,
        flight: bool = False,
        slo: Optional[SloEngine] = None,
    ) -> None:
        self.scenario = scenario
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.config = config or BrokerConfig()
        self.n_events = n_events
        self.seed = seed
        #: record per-publication flight chains (cause chains for every
        #: degraded or lost publication land in the report)
        self.flight = flight
        self.slo = slo
        self.broker: Optional[ContentBroker] = None
        self._live_handles: List[int] = []
        self._join_rng = np.random.default_rng(seed + 2)

    @classmethod
    def from_params(
        cls,
        scenario_kwargs: Optional[dict] = None,
        events: Optional[Sequence[dict]] = None,
        horizon: float = 0.0,
        config_kwargs: Optional[dict] = None,
        n_events: int = 100,
        seed: int = 0,
        flight: bool = False,
        slo_spec: Optional[Sequence[dict]] = None,
    ) -> "ChaosRunner":
        """Build a runner from plain, picklable parameters.

        The parallel sweep engine ships these to worker processes
        instead of live objects: a chaos replay mutates its scenario's
        routing tables, so every worker must own a private scenario
        rebuilt from the same seed.  ``scenario_kwargs`` goes to
        :func:`repro.sim.build_preliminary_scenario`; ``events`` is the
        schedule as :meth:`FaultSchedule.as_dicts` records (``None`` or
        empty plus a horizon is the no-fault baseline); ``slo_spec`` is
        a list of objective dictionaries (see
        :func:`repro.obs.load_slo_spec`) — a private engine is built in
        the worker and its output travels back on the report.
        """
        from ..broker import BrokerConfig
        from ..obs.slo import load_slo_spec
        from ..sim.scenario import build_preliminary_scenario
        from .schedule import FaultEvent

        scenario = build_preliminary_scenario(**dict(scenario_kwargs or {}))
        schedule = FaultSchedule(
            events=[FaultEvent.from_dict(dict(r)) for r in events or ()],
            horizon=horizon or None,
        )
        config = BrokerConfig(**dict(config_kwargs or {}))
        slo = (
            SloEngine(load_slo_spec([dict(entry) for entry in slo_spec]))
            if slo_spec
            else None
        )
        return cls(
            scenario, schedule, config=config, n_events=n_events, seed=seed,
            flight=flight, slo=slo,
        )

    # ------------------------------------------------------------------
    def run(self) -> DegradationReport:
        """Replay the schedule; returns the degradation report."""
        with get_tracer().span(
            "chaos.run",
            scenario=self.scenario.name,
            n_faults=len(self.schedule),
            n_events=self.n_events,
        ):
            return self._run()

    def _run(self) -> DegradationReport:
        routing = self.scenario.routing
        broker = ContentBroker(
            routing,
            self.scenario.space,
            self.scenario.cell_pmf,
            config=self.config,
        )
        self.broker = broker
        subs = self.scenario.subscriptions
        nodes = subs.subscriber_nodes
        for subscriber, rectangle in enumerate(subs.rectangles()):
            handle = broker.subscribe(int(nodes[subscriber]), rectangle)
            self._live_handles.append(handle)
        broker.rebuild()

        timeline = self._timeline()
        down_nodes: set = set()
        down_links: set = set()
        report = DegradationReport(
            scenario=self.scenario.name,
            horizon=self.schedule.horizon,
            n_faults=self.schedule.counts(),
        )
        start = time.perf_counter()
        # per-publication causal tracing: a private recorder is swapped
        # in as the process default so the broker's flight stages land
        # here, scoped by publication index — the degradation report's
        # cause chains travel with it (picklable), so serial and
        # parallel replays stay byte-identical
        recorder = FlightRecorder(enabled=self.flight)
        previous_recorder = get_flight_recorder()
        if self.flight:
            set_flight_recorder(recorder)
        try:
            pub_index = 0
            for now, _, payload in timeline:
                if isinstance(payload, PublicationEvent):
                    if self.flight:
                        with recorder.event(pub_index, now):
                            receipt = broker.publish(
                                payload.point, payload.publisher, now=now
                            )
                    else:
                        receipt = broker.publish(
                            payload.point, payload.publisher, now=now
                        )
                    report.n_publications += 1
                    report.per_event_costs.append(float(receipt.cost))
                    if receipt.outcome == "delivered":
                        report.n_delivered += 1
                    elif receipt.outcome == "degraded":
                        report.n_degraded += 1
                    else:
                        report.n_lost += 1
                    if self.slo is not None:
                        self.slo.observe(
                            "lost_rate", now,
                            receipt.lost_deliveries
                            / max(1, receipt.n_interested),
                            stream="pub",
                        )
                    if self.flight and receipt.outcome != "delivered":
                        report.cause_chains.append(
                            {
                                "index": pub_index,
                                "time": now,
                                "outcome": receipt.outcome,
                                "down_nodes": sorted(down_nodes),
                                "down_links": sorted(
                                    list(link) for link in down_links
                                ),
                                "stages": recorder.take_chain(pub_index),
                            }
                        )
                    elif self.flight:
                        # delivered publications don't need a chain;
                        # drop theirs so the recorder stays bounded
                        recorder.take_chain(pub_index)
                    pub_index += 1
                else:
                    self._inject(
                        broker, routing, payload, now, down_nodes, down_links
                    )
        finally:
            if self.flight:
                set_flight_recorder(previous_recorder)

        # end-of-horizon recovery: heal whatever the schedule left down,
        # then re-cluster once, cold, on the pristine topology
        end = self.schedule.horizon
        for node in sorted(down_nodes):
            routing.heal_node(node)
            broker.notify_change(end, weight=broker.subscribers_at(node))
        for u, v in sorted(down_links):
            routing.heal_link(u, v)
            broker.notify_change(end, weight=1)
        broker.rebuild(full=True)

        stats = broker.stats
        try:
            from ..kernels import backend_name

            report.kernel_backend = backend_name()
        except Exception:  # pragma: no cover - import cycle guard
            report.kernel_backend = "unknown"
        report.expected_deliveries = stats.expected_deliveries
        report.lost_deliveries = stats.lost_deliveries
        report.availability = stats.availability
        report.total_cost = sum(report.per_event_costs)
        report.unicast_fallback_cost = stats.unicast_fallback_cost
        report.n_degraded_groups = stats.n_degraded_groups
        report.n_rebuilds = stats.n_rebuilds
        report.n_full_rebuilds = stats.n_full_rebuilds
        report.total_rebuild_seconds = stats.total_rebuild_seconds
        if self.slo is not None:
            report.slo_breaches = self.slo.breach_dicts()
            report.slo_summary = self.slo.summary()
        # conservation check: the runner itself refuses to report a run
        # in which a publication escaped the accounting
        assert report.silently_lost == 0, (
            f"{report.silently_lost} publications were neither delivered, "
            "degraded nor counted lost"
        )
        _ = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    def price(self, events: Sequence[PublicationEvent]) -> np.ndarray:
        """Plan costs of ``events`` on the broker's *current* state.

        Pure pricing — no stats are recorded, no rebuilds triggered.
        Used by the recovery property: after a balanced schedule plus a
        final rebuild, these costs must be byte-identical to a broker
        that never saw a fault.
        """
        if self.broker is None:
            raise RuntimeError("run() must complete before price()")
        matcher = self.broker._matcher
        dispatcher = self.broker._dispatcher
        publishers = [event.publisher for event in events]
        plans = [matcher.match(event.point) for event in events]
        return dispatcher.plan_costs(publishers, plans)

    def sample_publications(self) -> List[Tuple[float, PublicationEvent]]:
        """The seeded (time, publication) stream this runner replays."""
        rng = np.random.default_rng(self.seed + 1)
        events = self.scenario.publications.sample(rng, self.n_events)
        horizon = self.schedule.horizon or 1.0
        times = np.sort(rng.uniform(0.0, horizon, size=len(events)))
        return list(zip((float(t) for t in times), events))

    def _timeline(self) -> List[Tuple[float, int, object]]:
        """Faults and publications merged on the virtual clock.

        Ties break faults-first (rank 0 before rank 1): a failure and a
        publication at the same instant see the failure land first.
        """
        timeline: List[Tuple[float, int, object]] = []
        for event in self.schedule:
            timeline.append((event.time, 0, event))
        for when, publication in self.sample_publications():
            timeline.append((when, 1, publication))
        timeline.sort(key=lambda item: (item[0], item[1]))
        return timeline

    # ------------------------------------------------------------------
    def _inject(
        self, broker, routing, event, now, down_nodes, down_links
    ) -> None:
        if event.kind == "node_down":
            if event.node in down_nodes:
                return
            weight = broker.subscribers_at(event.node)
            routing.fail_node(event.node)
            down_nodes.add(event.node)
            broker.notify_change(now, weight=max(1, weight))
        elif event.kind == "node_up":
            if event.node not in down_nodes:
                return
            routing.heal_node(event.node)
            down_nodes.discard(event.node)
            broker.notify_change(
                now, weight=max(1, broker.subscribers_at(event.node))
            )
        elif event.kind == "link_down":
            if event.link in down_links:
                return
            routing.fail_link(*event.link)
            down_links.add(event.link)
            broker.notify_change(now, weight=1)
        elif event.kind == "link_up":
            if event.link not in down_links:
                return
            routing.heal_link(*event.link)
            down_links.discard(event.link)
            broker.notify_change(now, weight=1)
        elif event.kind == "sub_leave":
            if not self._live_handles:
                return
            index = event.subscriber % len(self._live_handles)
            handle = self._live_handles.pop(index)
            broker.unsubscribe(handle)
            broker.notify_change(now, weight=1)
        elif event.kind == "sub_join":
            rectangle = self._random_rectangle()
            handle = broker.subscribe(event.node, rectangle)
            self._live_handles.append(handle)
            broker.notify_change(now, weight=1)

    def _random_rectangle(self):
        """A subscription rectangle drawn from the runner's join RNG."""
        from ..geometry import Rectangle

        rng = self._join_rng
        los, his = [], []
        for dim in self.scenario.space.dimensions:
            lo = float(rng.uniform(dim.lo - 1, dim.hi - 1))
            los.append(lo)
            his.append(lo + float(rng.uniform(1.0, (dim.hi - dim.lo) / 2 + 1)))
        return Rectangle.from_bounds(los, his)
