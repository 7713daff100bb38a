"""The runtime driver: one seeded stream across N broker shards.

:func:`run_fleet` is the only runtime driver; ``sim serve``
(:func:`repro.online.soak.run_soak`) is its one-shard case.  A
:class:`~repro.fleet.sharding.ShardMap` assigns every grid cell to one
shard, publications route to the owner of their landing cell, and
subscriptions register at every shard their rectangle overlaps (full
members under ``replicate``, match-only outside home under ``forward``
— see :mod:`repro.online.service`).

**Leave resolution happens globally, before dispatch.**  The seeded
stream's :class:`~repro.online.service.ChurnLeave` carries a positional
index into the live subscription list; a shard only sees part of the
population, so the driver replays churn in arrival order against a
global registry (seeded with the initial subscriptions) and resolves
each leave to a concrete fleet-wide subscription id.  The resolution
ignores admission: a leave aimed at a join that is later shed is a
no-op at the shard, and a shed leave still retires its subscription
from the registry.

**Epochs are coordination barriers.**  The stream splits into
``epochs`` contiguous slices; within a slice shards run independently
(fanned across ``workers`` processes, or inline — same code path, same
results).  At each barrier the :class:`~repro.fleet.coordinator.
FleetCoordinator` collects per-shard measured waste, rebalances the
global K budget when misalignment drifts past its threshold, and the
next slice's shards refit cold from the live registration set under
their (possibly new) budget.  Virtual clocks carry across barriers:
``busy_until`` and the exact token-bucket state resume where the
previous epoch stopped.

**The parent builds once.**  The scenario, the shard map and the
covered cells of every registration live at an epoch start are built
one time, in the parent, and reach every shard as one read-only
:class:`ShardContext`: directly when shards run inline, through the
pool initializer otherwise.

Every number in :meth:`FleetResult.deterministic_report` is
virtual-clock derived, hence byte-identical across runs and worker
counts for the same configuration.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..broker import ContentBroker
from ..obs import (
    FlightRecorder,
    bench_stamp,
    get_flight_recorder,
    set_flight_recorder,
)
from ..online.maintainer import ClusterMaintainer
from ..online.service import (
    BrokerService,
    ChurnJoin,
    ChurnLeave,
    FleetJoin,
    FleetLeave,
    Publish,
    ServiceConfig,
    ServiceResult,
    StreamEvent,
)
from ..online.soak import (
    SoakConfig,
    finalize_equivalence,
    generate_stream,
)
from ..sim.parallel import _run_tasks
from ..sim.scenario import Scenario, build_preliminary_scenario
from .coordinator import FleetCoordinator
from .sharding import ShardMap

__all__ = [
    "FleetConfig",
    "FleetResult",
    "ShardContext",
    "ShardSummary",
    "route_fleet_stream",
    "run_fleet",
    "run_shard_task",
]


#: the runtime configuration (one class: a fleet of one shard is `serve`)
FleetConfig = SoakConfig

#: denominator floor for the warm/cold waste ratio
_WASTE_FLOOR = 1e-9


# ----------------------------------------------------------------------
# global routing pass
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Registration:
    """Where one fleet-wide subscription id lives."""

    gid: int
    node: int
    rectangle: object
    shards: Tuple[int, ...]
    home: int


@dataclass
class FleetPlan:
    """The routed stream: per-epoch, per-shard event lists plus the
    live registration set at every epoch start."""

    scenario_name: str
    #: events[epoch][shard] -> tuple of StreamEvents for that slice
    events: List[List[List[StreamEvent]]]
    #: live registrations (gid ascending) at each epoch start
    live_at_epoch: List[List[_Registration]]
    n_joins: int = 0
    n_leaves: int = 0
    n_noop_leaves: int = 0
    #: joins/initials whose rectangle overlapped cells of >1 shard
    n_cross_shard: int = 0
    #: covered cells of every registration live at some epoch start, by
    #: gid: the shards register these without rasterising again
    footprints: Dict[int, np.ndarray] = field(default_factory=dict)


def route_fleet_stream(
    config: FleetConfig, scenario, shard_map: ShardMap
) -> FleetPlan:
    """Resolve leaves globally and route every event to its shard(s).

    Churn is replayed in arrival order against a registry seeded with
    the initial subscription ids, resolving each leave's positional
    index as ``index % len(live)``.  Every publication's owner comes
    from one batched locate; every registration's shards and home come
    from one gather over its covered cells, which the plan keeps for
    the shards whenever the registration is live at an epoch start.
    """
    events = generate_stream(config, scenario)
    ordered = sorted(events, key=lambda e: (e.time, e.stream != "churn"))
    n_shards = shard_map.n_shards
    replicate = config.fleet_policy == "replicate"
    space = scenario.space
    cell_pmf = scenario.cell_pmf
    footprints: Dict[int, np.ndarray] = {}

    def register(gid: int, node: int, rectangle, keep: bool) -> _Registration:
        """Place one registration; ``keep`` its footprint for the shards
        when a later epoch start may find it live."""
        if n_shards == 1 and not keep:
            # one shard owns every cell: no footprint to rasterise
            return _Registration(gid, node, rectangle, (0,), 0)
        covered = space.cells_in_rectangle(rectangle)
        if keep:
            footprints[gid] = covered
        shards, home = shard_map.footprint(covered, cell_pmf)
        return _Registration(gid, node, rectangle, shards, home)

    subs = scenario.subscriptions
    nodes = subs.subscriber_nodes
    registrations: Dict[int, _Registration] = {}
    registry: List[int] = []
    for gid, rectangle in enumerate(subs.rectangles()):
        registrations[gid] = register(gid, int(nodes[gid]), rectangle, True)
        registry.append(gid)
    next_gid = len(registry)

    # publication owners in stream order, consumed in the same order
    pub_points = [
        e.payload.point for e in ordered if isinstance(e.payload, Publish)
    ]
    pub_owners = iter(shard_map.shards_of_points(pub_points).tolist())

    plan = FleetPlan(
        scenario_name=scenario.name,
        events=[],
        live_at_epoch=[],
        n_cross_shard=sum(
            1 for reg in registrations.values() if len(reg.shards) > 1
        ),
    )
    bounds = np.linspace(0, len(ordered), config.epochs + 1).astype(int)
    for epoch in range(config.epochs):
        keep = epoch + 1 < config.epochs
        plan.live_at_epoch.append(
            [registrations[g] for g in sorted(registry)]
        )
        shard_events: List[List[StreamEvent]] = [[] for _ in range(n_shards)]
        for event in ordered[bounds[epoch] : bounds[epoch + 1]]:
            payload = event.payload
            if isinstance(payload, ChurnJoin):
                gid = next_gid
                next_gid += 1
                reg = register(gid, payload.node, payload.rectangle, keep)
                registrations[gid] = reg
                registry.append(gid)
                plan.n_joins += 1
                if len(reg.shards) > 1:
                    plan.n_cross_shard += 1
                for shard in reg.shards:
                    member = replicate or shard == reg.home
                    shard_events[shard].append(
                        StreamEvent(
                            event.time, "churn",
                            FleetJoin(
                                gid, payload.node, payload.rectangle,
                                member=member,
                            ),
                        )
                    )
            elif isinstance(payload, ChurnLeave):
                if not registry:
                    # nothing to retire; shard 0 carries the noop so
                    # event counts conserve
                    plan.n_noop_leaves += 1
                    shard_events[0].append(
                        StreamEvent(event.time, "churn", FleetLeave(-1))
                    )
                    continue
                gid = registry.pop(payload.index % len(registry))
                reg = registrations[gid]
                plan.n_leaves += 1
                for shard in reg.shards:
                    shard_events[shard].append(
                        StreamEvent(event.time, "churn", FleetLeave(gid))
                    )
            elif isinstance(payload, Publish):
                shard_events[next(pub_owners)].append(event)
            else:
                raise TypeError(
                    f"unroutable payload {type(payload).__name__}"
                )
        plan.events.append(shard_events)
    # a join that left before the next epoch start never reaches a shard
    # as a registration: drop its footprint
    live = {reg.gid for regs in plan.live_at_epoch for reg in regs}
    plan.footprints = {
        gid: cells for gid, cells in footprints.items() if gid in live
    }
    return plan


# ----------------------------------------------------------------------
# shard tasks (pure functions of the shared context and their task)
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ShardContext:
    """What every shard of one run shares, built once by the parent.

    The scenario (routing, space, ``cell_pmf``), the shard map and the
    covered cells of every registration live at an epoch start
    (:attr:`FleetPlan.footprints`).  Inline shards receive this object
    itself; pool workers receive it once each through the pool
    initializer (inherited under ``fork``, pickled under ``spawn``).
    Shards treat all of it as read-only; only the routing tables'
    shortest-path memo fills as shards price deliveries.
    """

    scenario: Scenario
    shard_map: ShardMap
    footprints: Dict[int, np.ndarray]


@dataclass(frozen=True)
class ShardTask:
    """Everything one shard needs for one epoch beyond the context."""

    shard: int
    epoch: int
    k: int
    config: FleetConfig
    #: (gid, node, rectangle, member) live at epoch start, gid ascending
    registrations: Tuple[Tuple[int, int, object, bool], ...]
    events: Tuple[StreamEvent, ...]
    busy_until: float = 0.0
    #: exact (queue, tokens(n, d), last_refill(n, d)) carried states
    token_states: Tuple[
        Tuple[str, Tuple[int, int], Tuple[int, int]], ...
    ] = ()
    finalize: bool = False
    flight: bool = False
    slo_spec: Tuple[Tuple[Tuple[str, object], ...], ...] = ()
    checkpoint_path: Optional[str] = None


@dataclass
class ShardOutcome:
    """One shard-epoch's results (picklable, virtual-clock exact)."""

    shard: int
    epoch: int
    k: int
    service: ServiceResult
    current_waste: float
    fit_waste: float
    busy_until: float
    token_states: Tuple[
        Tuple[str, Tuple[int, int], Tuple[int, int]], ...
    ]
    warm_waste: Optional[float] = None
    cold_waste: Optional[float] = None
    forwards: int = 0
    forward_joins: int = 0
    forward_leaves: int = 0
    n_registrations: int = 0
    #: wall seconds of the service loop alone
    seconds: float = 0.0
    #: wall seconds from task entry to the service loop (broker build,
    #: registrations, cold fit)
    setup_seconds: float = 0.0
    pid: int = 0
    flight_records: List[Dict] = field(default_factory=list)


def run_shard_task(task: ShardTask, context: ShardContext) -> ShardOutcome:
    """Build one shard from its registrations and replay its slice."""
    entered = time.perf_counter()
    config = task.config
    scenario = context.scenario
    shard_map = context.shard_map
    # the shard's broker sees the global pmf restricted to the cells it
    # owns: it never receives publications for the others, so both the
    # clustering objective and the measured expected waste are taken
    # against the shard's true event distribution
    cell_pmf = scenario.cell_pmf
    if shard_map.n_shards > 1:
        cell_pmf = np.where(
            shard_map.cell_to_shard == task.shard, cell_pmf, 0.0
        )
    broker = ContentBroker(
        scenario.routing,
        scenario.space,
        cell_pmf,
        config=config.broker_config(task.k),
    )
    handles = [
        broker.subscribe(node, rectangle, cells=context.footprints[gid])
        for gid, node, rectangle, _ in task.registrations
    ]
    broker.rebuild()
    maintainer = ClusterMaintainer(broker)
    slo = None
    if task.slo_spec:
        from ..obs import SloEngine, load_slo_spec

        slo = SloEngine(
            load_slo_spec([dict(entry) for entry in task.slo_spec])
        )
    queue = config.queue_config()
    service = BrokerService(
        broker,
        maintainer,
        ServiceConfig(
            service_rate=config.service_rate,
            churn_queue=queue,
            pub_queue=queue,
        ),
        slo=slo,
        shard_id=task.shard,
    )
    for (gid, _, _, member), handle in zip(task.registrations, handles):
        service.register_initial(gid, handle, member=member)
    if maintainer.forward_handles:
        # re-base the drift baseline with the match-only columns
        # scrubbed out of the initial fit (see ClusterMaintainer.capture)
        maintainer.capture()
    # resume the virtual clock and the exact admission state where the
    # previous epoch's barrier stopped them
    service.busy_until = float(task.busy_until)
    for name, tokens, last_refill in task.token_states:
        service._queues[name].restore_token_state(tokens, last_refill)

    recorder: Optional[FlightRecorder] = None
    previous_recorder = None
    if task.flight:
        recorder = FlightRecorder(enabled=True)
        previous_recorder = get_flight_recorder()
        set_flight_recorder(recorder)
    start = time.perf_counter()
    try:
        outcome = service.run(list(task.events))
    finally:
        if task.flight:
            set_flight_recorder(previous_recorder)
    seconds = time.perf_counter() - start
    service.collect_slo(outcome)
    warm = cold = None
    if task.finalize and broker.clustering is not None:
        warm, cold = finalize_equivalence(broker)
    result = ShardOutcome(
        shard=task.shard,
        epoch=task.epoch,
        k=task.k,
        service=outcome,
        current_waste=maintainer.current_waste,
        fit_waste=maintainer.fit_waste,
        busy_until=service.busy_until,
        token_states=tuple(
            (name, *q.token_state())
            for name, q in sorted(service._queues.items())
        ),
        warm_waste=warm,
        cold_waste=cold,
        forwards=service.forwards,
        forward_joins=service.forward_joins,
        forward_leaves=service.forward_leaves,
        n_registrations=len(task.registrations),
        seconds=seconds,
        setup_seconds=start - entered,
        pid=os.getpid(),
        flight_records=recorder.as_dicts() if recorder is not None else [],
    )
    if task.checkpoint_path:
        from ..persistence import save_shard_checkpoint

        save_shard_checkpoint(
            task.checkpoint_path,
            service,
            k=task.k,
            policy=config.fleet_policy,
        )
    return result


# ----------------------------------------------------------------------
# fleet results
# ----------------------------------------------------------------------
@dataclass
class ShardSummary:
    """One shard's epochs folded together (virtual numbers only)."""

    shard: int
    k: int  # final-epoch budget
    service: ServiceResult
    current_waste: float = 0.0
    warm_waste: Optional[float] = None
    cold_waste: Optional[float] = None
    forwards: int = 0
    forward_joins: int = 0
    forward_leaves: int = 0
    n_registrations: int = 0  # at final epoch start
    #: service-loop wall seconds, summed over epochs
    seconds: float = 0.0
    #: shard set-up wall seconds (task entry to service loop), summed
    setup_seconds: float = 0.0


def _fold_service(parts: Sequence[ServiceResult]) -> ServiceResult:
    """Fold per-epoch ServiceResults into one (counts sum, latencies
    concatenate, peaks max, final-state fields take the last epoch)."""
    folded = ServiceResult()
    last = parts[-1]
    streams = sorted(
        {name for part in parts for name in part.n_processed}
    )
    folded.n_events = sum(part.n_events for part in parts)
    folded.n_processed = {
        s: sum(part.n_processed.get(s, 0) for part in parts)
        for s in streams
    }
    folded.n_shed = {
        s: sum(part.n_shed.get(s, 0) for part in parts) for s in streams
    }
    folded.latencies = {
        s: [v for part in parts for v in part.latencies.get(s, [])]
        for s in streams
    }
    folded.queue_depth_peaks = {
        s: max(part.queue_depth_peaks.get(s, 0) for part in parts)
        for s in streams
    }
    for name in (
        "n_rebuilds", "n_fits", "joins", "leaves", "unassigned_joins",
        "total_cost",
    ):
        setattr(
            folded, name, sum(getattr(part, name) for part in parts)
        )
    folded.final_inflation = last.final_inflation
    folded.final_waste = last.final_waste
    folded.fit_waste = last.fit_waste
    folded.horizon = max(part.horizon for part in parts)
    folded.inflation_trajectory = [
        sample
        for part in parts
        for sample in part.inflation_trajectory
    ]
    folded.slo_breaches = [b for part in parts for b in part.slo_breaches]
    folded.slo_summary = last.slo_summary
    return folded


#: stream columns of the broker report; no stream feeds ``fault``, so it
#: always reads 0, but the report layout is pinned by the goldens
_REPORT_STREAMS = ("fault", "churn", "pub")


@dataclass
class FleetResult:
    """A finished run of the runtime (one shard: a ``serve`` run)."""

    config: FleetConfig
    scenario_name: str
    shards: List[ShardSummary]
    plan: FleetPlan
    #: the K split used in each epoch
    splits: List[List[int]]
    rebalances: int = 0
    #: end to end: scenario build, routing, shard set-up, service loops
    #: and the finalize refits
    wall_seconds: float = 0.0
    #: the parent's routing pass (:func:`route_fleet_stream`)
    route_seconds: float = 0.0
    flight_records: List[Dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def single_broker(self) -> bool:
        """One shard, one epoch: the single-broker ``serve`` run."""
        return self.config.shards == 1 and self.config.epochs == 1

    @property
    def service(self) -> ServiceResult:
        """The one shard's service result (one-shard runs only)."""
        if len(self.shards) != 1:
            raise AttributeError(
                "a multi-shard run has one service per shard; see .shards"
            )
        return self.shards[0].service

    @property
    def total_waste(self) -> float:
        return sum(s.current_waste for s in self.shards)

    @property
    def total_cost(self) -> float:
        return sum(s.service.total_cost for s in self.shards)

    @property
    def total_forwards(self) -> int:
        return sum(s.forwards for s in self.shards)

    @property
    def horizon(self) -> float:
        return max(s.service.horizon for s in self.shards)

    @property
    def warm_waste(self) -> Optional[float]:
        """Summed warm-refit waste (None unless every shard finalized)."""
        if any(s.warm_waste is None for s in self.shards):
            return None
        return sum(s.warm_waste for s in self.shards)

    @property
    def cold_waste(self) -> Optional[float]:
        """Summed cold-refit waste (None unless every shard finalized)."""
        if any(s.cold_waste is None for s in self.shards):
            return None
        return sum(s.cold_waste for s in self.shards)

    @property
    def waste_ratio(self) -> Optional[float]:
        """Warm-over-cold refit ratio of a finalized single broker."""
        if not self.single_broker or self.warm_waste is None:
            return None
        return self.warm_waste / max(self.cold_waste, _WASTE_FLOOR)

    def deterministic_report(self) -> str:
        """Virtual-clock summary, byte-identical across runs/workers.

        One shard, one epoch prints the single-broker report (``serve``).
        """
        if self.single_broker:
            return self._broker_report()
        config = self.config
        lines = [
            "fleet             "
            f"shards={config.shards} sharding={config.sharding} "
            f"policy={config.fleet_policy} epochs={config.epochs} "
            f"K={config.n_groups}",
            f"scenario          {self.scenario_name}",
            f"seed              {config.seed}",
            f"events            {config.n_events}",
            f"cross-shard subs  {self.plan.n_cross_shard}",
        ]
        for epoch, split in enumerate(self.splits):
            lines.append(
                f"split e{epoch}          "
                + "/".join(str(k) for k in split)
            )
        for s in self.shards:
            svc = s.service
            lines.append(
                f"shard {s.shard:<2}          "
                f"k={s.k} events={svc.n_events} "
                f"pubs={svc.n_processed.get('pub', 0)} "
                f"joins={svc.joins} leaves={svc.leaves} "
                f"fits={svc.n_fits} rebuilds={svc.n_rebuilds} "
                f"forwards={s.forwards} "
                f"waste={s.current_waste:.9f} "
                f"cost={svc.total_cost:.6f}"
            )
        lines.extend(
            [
                f"fleet waste       {self.total_waste:.9f}",
                f"fleet cost        {self.total_cost:.6f}",
                f"fleet forwards    {self.total_forwards}",
                f"fleet rebalances  {self.rebalances}",
                f"horizon           {self.horizon:.9f}",
            ]
        )
        if self.warm_waste is not None:
            lines.append(f"warm waste        {self.warm_waste:.9f}")
            lines.append(f"cold waste        {self.cold_waste:.9f}")
        slo_breaches = sum(
            len(s.service.slo_breaches) for s in self.shards
        )
        if any(s.service.slo_summary for s in self.shards):
            lines.append(f"slo breaches      {slo_breaches}")
        return "\n".join(lines) + "\n"

    def _broker_report(self) -> str:
        svc = self.service
        pct = svc.latency_percentiles()
        lines = [
            f"scenario          {self.scenario_name}",
            f"seed              {self.config.seed}",
            f"events            {svc.n_events}",
            "processed         "
            + " ".join(
                f"{name}={svc.n_processed.get(name, 0)}"
                for name in _REPORT_STREAMS
            ),
            "shed              "
            + " ".join(
                f"{name}={svc.n_shed.get(name, 0)}"
                for name in _REPORT_STREAMS
            ),
            "queue depth peak  "
            + " ".join(
                f"{name}={svc.queue_depth_peaks.get(name, 0)}"
                for name in _REPORT_STREAMS
            ),
            f"latency p50       {pct['p50']:.9f}",
            f"latency p95       {pct['p95']:.9f}",
            f"latency p99       {pct['p99']:.9f}",
            f"joins             {svc.joins}",
            f"leaves            {svc.leaves}",
            f"unassigned joins  {svc.unassigned_joins}",
            f"rebuilds          {svc.n_rebuilds}",
            f"fits              {svc.n_fits}",
            f"fit waste         {svc.fit_waste:.9f}",
            f"final waste       {svc.final_waste:.9f}",
            f"final inflation   {svc.final_inflation:.9f}",
            f"total cost        {svc.total_cost:.6f}",
            f"horizon           {svc.horizon:.9f}",
        ]
        if self.waste_ratio is not None:
            lines.append(f"warm waste        {self.warm_waste:.9f}")
            lines.append(f"cold waste        {self.cold_waste:.9f}")
            lines.append(f"waste ratio       {self.waste_ratio:.9f}")
        # SLO lines appear only when an engine ran, so reports with and
        # without flight recording stay byte-comparable
        if svc.slo_summary:
            lines.append(f"slo breaches      {len(svc.slo_breaches)}")
            for breach in svc.slo_breaches:
                lines.append(
                    "  breach          "
                    f"{breach['objective']} t={breach['time']:.9f} "
                    f"{breach['stat']}={breach['value']:.9f} "
                    f"> {breach['threshold']:g}"
                )
        return "\n".join(lines) + "\n"

    def bench_record(self) -> Dict:
        """The bench payload (``--bench``), one schema for any shard count."""
        config = self.config
        fleet = _fold_service([s.service for s in self.shards])
        record = {
            "benchmark": "fleet_soak",
            "scenario": self.scenario_name,
            "seed": config.seed,
            "shards": config.shards,
            "sharding": config.sharding,
            "policy": config.fleet_policy,
            "scheme": config.scheme,
            "epochs": config.epochs,
            "workers": config.workers,
            "k_global": config.n_groups,
            "splits": [list(split) for split in self.splits],
            "rebalances": self.rebalances,
            "n_events": config.n_events,
            "pubs_processed": fleet.n_processed.get("pub", 0),
            "processed": dict(fleet.n_processed),
            "shed": dict(fleet.n_shed),
            "latency_virtual_seconds": fleet.latency_percentiles(),
            "joins": fleet.joins,
            "leaves": fleet.leaves,
            "fits": fleet.n_fits,
            "rebuilds": fleet.n_rebuilds,
            "cross_shard_subscriptions": self.plan.n_cross_shard,
            "fleet_waste": self.total_waste,
            "fleet_cost": self.total_cost,
            "fleet_forwards": self.total_forwards,
            "virtual_horizon": self.horizon,
            "wall_seconds": self.wall_seconds,
            "route_seconds": self.route_seconds,
            "events_per_wall_second": (
                config.n_events / self.wall_seconds
                if self.wall_seconds
                else 0.0
            ),
            "per_shard": [
                {
                    "shard": s.shard,
                    "k": s.k,
                    "events": s.service.n_events,
                    "registrations": s.n_registrations,
                    "waste": s.current_waste,
                    "cost": s.service.total_cost,
                    "forwards": s.forwards,
                    "seconds": s.seconds,
                    "setup_seconds": s.setup_seconds,
                }
                for s in self.shards
            ],
            "config": asdict(config),
            "stamp": bench_stamp(),
        }
        if self.warm_waste is not None:
            record["warm_waste"] = self.warm_waste
            record["cold_waste"] = self.cold_waste
        if self.waste_ratio is not None:
            record["waste_ratio"] = self.waste_ratio
        return record

    def write_bench(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.bench_record(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ----------------------------------------------------------------------
def run_fleet(
    config: FleetConfig,
    finalize: bool = True,
    flight: bool = False,
    slo_spec: Optional[Sequence[Dict]] = None,
) -> FleetResult:
    """Route, split and replay one fleet soak end to end.

    ``slo_spec`` is a list of objective dicts (the ``--slo`` JSON);
    every shard runs a private engine over its own virtual signals.
    """
    start = time.perf_counter()
    scenario = build_preliminary_scenario(
        n_nodes=config.n_nodes,
        n_subscriptions=config.n_subscriptions,
        seed=config.seed,
    )
    shard_map = ShardMap(scenario.space, config.shards, config.sharding)
    routed = time.perf_counter()
    plan = route_fleet_stream(config, scenario, shard_map)
    route_seconds = time.perf_counter() - routed
    context = ShardContext(scenario, shard_map, plan.footprints)
    coordinator = FleetCoordinator(
        config.shards,
        config.n_groups,
        rebalance_threshold=config.rebalance_threshold,
    )
    spec_tuple: Tuple = ()
    if slo_spec:
        spec_tuple = tuple(
            tuple(sorted(entry.items())) for entry in slo_spec
        )

    splits: List[List[int]] = []
    per_shard_epochs: List[List[ShardOutcome]] = [
        [] for _ in range(config.shards)
    ]
    carried: List[Tuple[float, Tuple]] = [
        (0.0, ()) for _ in range(config.shards)
    ]
    for epoch in range(config.epochs):
        final_epoch = epoch == config.epochs - 1
        splits.append(list(coordinator.split))
        tasks = []
        for shard in range(config.shards):
            registrations = tuple(
                (
                    reg.gid,
                    reg.node,
                    reg.rectangle,
                    config.fleet_policy == "replicate"
                    or shard == reg.home,
                )
                for reg in plan.live_at_epoch[epoch]
                if shard in reg.shards
            )
            busy_until, token_states = carried[shard]
            checkpoint_path = None
            if config.checkpoint_dir and final_epoch:
                checkpoint_path = os.path.join(
                    config.checkpoint_dir, f"shard-{shard}.npz"
                )
            tasks.append(
                ShardTask(
                    shard=shard,
                    epoch=epoch,
                    k=coordinator.split[shard],
                    config=replace(config, checkpoint_dir=None),
                    registrations=registrations,
                    events=tuple(plan.events[epoch][shard]),
                    busy_until=busy_until,
                    token_states=token_states,
                    finalize=finalize and final_epoch,
                    flight=flight,
                    slo_spec=spec_tuple,
                    checkpoint_path=checkpoint_path,
                )
            )
        outcomes = _run_tasks(run_shard_task, tasks, context, config.workers)
        for outcome in outcomes:
            per_shard_epochs[outcome.shard].append(outcome)
            carried[outcome.shard] = (
                outcome.busy_until, outcome.token_states,
            )
        if not final_epoch:
            now = max(outcome.busy_until for outcome in outcomes)
            coordinator.note_epoch(
                now, [outcome.current_waste for outcome in outcomes]
            )

    summaries = []
    flight_records: List[Dict] = []
    for shard in range(config.shards):
        epochs = per_shard_epochs[shard]
        last = epochs[-1]
        summaries.append(
            ShardSummary(
                shard=shard,
                k=last.k,
                service=_fold_service([o.service for o in epochs]),
                current_waste=last.current_waste,
                warm_waste=last.warm_waste,
                cold_waste=last.cold_waste,
                forwards=sum(o.forwards for o in epochs),
                forward_joins=sum(o.forward_joins for o in epochs),
                forward_leaves=sum(o.forward_leaves for o in epochs),
                n_registrations=last.n_registrations,
                seconds=sum(o.seconds for o in epochs),
                setup_seconds=sum(o.setup_seconds for o in epochs),
            )
        )
    # flight records merged in (epoch, shard) order: deterministic for
    # any worker count, like every other number in the report
    for epoch in range(config.epochs):
        for shard in range(config.shards):
            flight_records.extend(
                per_shard_epochs[shard][epoch].flight_records
            )
    result = FleetResult(
        config=config,
        scenario_name=plan.scenario_name,
        shards=summaries,
        plan=plan,
        splits=splits,
        rebalances=coordinator.rebalances,
        wall_seconds=time.perf_counter() - start,
        route_seconds=route_seconds,
        flight_records=flight_records,
    )
    if config.checkpoint_dir:
        from ..persistence import save_fleet_state

        save_fleet_state(
            os.path.join(config.checkpoint_dir, "fleet.npz"),
            shard_map=shard_map,
            split=coordinator.split,
            rebalances=coordinator.rebalances,
            epochs=config.epochs,
        )
    return result
