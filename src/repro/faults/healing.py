"""Healing-vs-recompute: overlay route healing against SPT recompute.

The dense backend recovers from topology faults by *recomputing*: every
fault invalidates the affected cached shortest-path trees and the next
publication pays a fresh Dijkstra per touched source
(``routing_invalidations_total`` counts the dropped tables).  The
overlay backend *heals*: leaf sets are patched locally
(``overlay_leafset_repairs_total``) and cached rendezvous trees are
repaired in place — broken members re-grafted, dead forwarders pruned
(``overlay_tree_repairs_total{kind=...}``) — so recovery work scales
with the damage, not with the network.

:func:`compare_healing` replays **the same fault schedule and the same
seeded publication stream** once per backend and reports both the
delivery outcomes (availability, lost/degraded publications, cost) and
the recovery work each mechanism performed, as counter deltas captured
around each replay.  Because a chaos broker *re-clusters* between fault
windows, its group compositions drift and cached trees rarely live long
enough to be healed — so the comparison adds a **fixed-group replay**:
the initial clustering's groups are frozen, the fault schedule is
applied to the routing tables event by event, and every still-fully-
live group is re-priced after each topology change.  That isolates the
two recovery mechanisms (local tree repair vs shortest-path-tree
recompute) from the re-clustering noise.  Everything reported lives on
the virtual clock or is a deterministic count, so the rendered table is
byte-identical across runs — the CI chaos job diffs two invocations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import get_registry
from .report import DegradationReport

__all__ = [
    "BackendRun",
    "FixedGroupReplay",
    "HealingComparison",
    "compare_healing",
]

#: the two recovery mechanisms under comparison
BACKENDS = ("dense", "overlay")

#: counters whose deltas are captured around each replay
_WATCHED = (
    "routing_invalidations_total",
    "overlay_tree_builds_total",
    "overlay_tree_repairs_total",
    "overlay_leafset_repairs_total",
)


def _counter_state() -> Dict[Tuple[str, Tuple], float]:
    """Current values of the watched counters, per label combination."""
    registry = get_registry()
    state: Dict[Tuple[str, Tuple], float] = {}
    for name in _WATCHED:
        instrument = registry.get(name)
        if instrument is None:
            continue
        for sample in instrument.samples():
            key = (name, tuple(sorted(sample["labels"].items())))
            state[key] = float(sample["value"])
    return state


def _delta(
    before: Dict[Tuple[str, Tuple], float],
    after: Dict[Tuple[str, Tuple], float],
) -> Dict[str, float]:
    """Counter increments between two states, keyed by a flat name.

    Label combinations are flattened into ``name{k=v}`` strings so the
    record is JSON-friendly; zero deltas are dropped.
    """
    out: Dict[str, float] = {}
    for key, value in sorted(after.items()):
        grew = value - before.get(key, 0.0)
        if grew <= 0:
            continue
        name, labels = key
        if labels:
            rendered = ",".join(f"{k}={v}" for k, v in labels)
            out[f"{name}{{{rendered}}}"] = grew
        else:
            out[name] = grew
    return out


@dataclass
class BackendRun:
    """One backend's replay of the shared schedule + stream."""

    backend: str
    report: DegradationReport
    #: watched-counter increments attributable to this replay
    counters: Dict[str, float] = field(default_factory=dict)

    def counter(self, name: str) -> float:
        """Sum of a counter's deltas across its label combinations."""
        total = 0.0
        for key, value in self.counters.items():
            if key == name or key.startswith(name + "{"):
                total += value
        return total

    @property
    def recovery_work(self) -> float:
        """The backend's recovery effort in its own native unit.

        Dense: shortest-path tables dropped and recomputed.  Overlay:
        leaf-set entries patched plus tree members re-grafted or pruned
        — each a constant-size local repair.
        """
        if self.backend == "overlay":
            return self.counter("overlay_leafset_repairs_total") + self.counter(
                "overlay_tree_repairs_total"
            )
        return self.counter("routing_invalidations_total")

    def as_dict(self) -> Dict:
        return {
            "backend": self.backend,
            "recovery_work": self.recovery_work,
            "counters": dict(sorted(self.counters.items())),
            "report": self.report.as_dict(),
        }


@dataclass
class FixedGroupReplay:
    """One backend's re-pricing of frozen groups across the schedule.

    The fault schedule's topology events are applied to a private
    routing table in time order; after each one, every group whose
    members are all live and reachable is re-priced.  The re-pricing
    pattern is identical across backends (reachability is a topology
    fact), so the counter deltas compare recovery work like-for-like.
    """

    backend: str
    n_topology_faults: int = 0
    n_repricings: int = 0
    #: fraction of (group, fault) opportunities that stayed deliverable
    n_opportunities: int = 0
    total_cost: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def counter(self, name: str) -> float:
        total = 0.0
        for key, value in self.counters.items():
            if key == name or key.startswith(name + "{"):
                total += value
        return total

    @property
    def recovery_work(self) -> float:
        if self.backend == "overlay":
            return self.counter("overlay_leafset_repairs_total") + self.counter(
                "overlay_tree_repairs_total"
            )
        return self.counter("routing_invalidations_total")

    @property
    def work_per_fault(self) -> float:
        if not self.n_topology_faults:
            return 0.0
        return self.recovery_work / self.n_topology_faults

    def as_dict(self) -> Dict:
        return {
            "backend": self.backend,
            "n_topology_faults": self.n_topology_faults,
            "n_repricings": self.n_repricings,
            "n_opportunities": self.n_opportunities,
            "total_cost": self.total_cost,
            "recovery_work": self.recovery_work,
            "work_per_fault": self.work_per_fault,
            "counters": dict(sorted(self.counters.items())),
        }


@dataclass
class HealingComparison:
    """Side-by-side recovery behaviour of the delivery backends."""

    runs: List[BackendRun]
    fixed: List[FixedGroupReplay] = field(default_factory=list)

    def fixed_for(self, backend: str) -> FixedGroupReplay:
        for replay in self.fixed:
            if replay.backend == backend:
                return replay
        raise KeyError(backend)

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Aligned comparison table; deterministic across invocations."""
        names = [run.backend for run in self.runs]
        rows: List[Tuple[str, List[str]]] = []

        def row(label: str, values: List) -> None:
            rows.append((label, [str(v) for v in values]))

        reports = [run.report for run in self.runs]
        row("publications", [r.n_publications for r in reports])
        row("delivered", [r.n_delivered for r in reports])
        row("degraded", [r.n_degraded for r in reports])
        row("lost", [r.n_lost for r in reports])
        row("lost deliveries", [r.lost_deliveries for r in reports])
        row("availability", [f"{r.availability:.9f}" for r in reports])
        row("total cost", [f"{r.total_cost:.6f}" for r in reports])
        row(
            "unicast fallback cost",
            [f"{r.unicast_fallback_cost:.6f}" for r in reports],
        )
        row("rebuilds", [r.n_rebuilds for r in reports])
        row("full rebuilds", [r.n_full_rebuilds for r in reports])
        row(
            "spt invalidations",
            [
                f"{run.counter('routing_invalidations_total'):g}"
                for run in self.runs
            ],
        )
        for kind in ("reattach", "prune", "rebuild", "intact"):
            row(
                f"tree repairs ({kind})",
                [
                    f"{run.counters.get(f'overlay_tree_repairs_total{{kind={kind}}}', 0.0):g}"
                    for run in self.runs
                ],
            )
        row(
            "leafset repairs",
            [
                f"{run.counter('overlay_leafset_repairs_total'):g}"
                for run in self.runs
            ],
        )
        row(
            "recovery work units",
            [f"{run.recovery_work:g}" for run in self.runs],
        )
        if self.fixed:
            fixed = [self.fixed_for(run.backend) for run in self.runs]
            row("[fixed groups] repricings", [r.n_repricings for r in fixed])
            row(
                "[fixed groups] cost",
                [f"{r.total_cost:.6f}" for r in fixed],
            )
            row(
                "[fixed groups] spt invalidations",
                [
                    f"{r.counter('routing_invalidations_total'):g}"
                    for r in fixed
                ],
            )
            for kind in ("reattach", "prune", "rebuild", "intact"):
                row(
                    f"[fixed groups] tree repairs ({kind})",
                    [
                        f"{r.counters.get(f'overlay_tree_repairs_total{{kind={kind}}}', 0.0):g}"
                        for r in fixed
                    ],
                )
            row(
                "[fixed groups] leafset repairs",
                [
                    f"{r.counter('overlay_leafset_repairs_total'):g}"
                    for r in fixed
                ],
            )
            row(
                "[fixed groups] work per fault",
                [f"{r.work_per_fault:.6f}" for r in fixed],
            )

        label_w = max(len(label) for label, _ in rows)
        value_w = max(
            max(len(v) for v in values) for _, values in rows
        )
        value_w = max(value_w, max(len(n) for n in names))
        lines = [
            "Healing vs recompute "
            f"(scenario {reports[0].scenario}, horizon {reports[0].horizon:g})",
            " ".join(
                [" " * label_w] + [n.rjust(value_w) for n in names]
            ),
        ]
        for label, values in rows:
            lines.append(
                " ".join(
                    [label.ljust(label_w)]
                    + [v.rjust(value_w) for v in values]
                )
            )
        return "\n".join(lines) + "\n"

    def as_dict(self) -> Dict:
        return {
            "runs": [run.as_dict() for run in self.runs],
            "fixed_group_replays": [r.as_dict() for r in self.fixed],
        }

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _frozen_groups(scenario, config_kwargs: dict) -> List:
    """The initial clustering's per-group node sets, scheme-independent.

    Built once under the dense scheme (group composition must be
    identical for every backend) and carried into each backend's replay
    as plain node arrays.
    """
    import numpy as np

    from ..broker import BrokerConfig, ContentBroker

    merged = dict(config_kwargs)
    merged["scheme"] = "dense"
    broker = ContentBroker(
        scenario.routing,
        scenario.space,
        scenario.cell_pmf,
        config=BrokerConfig(**merged),
    )
    subs = scenario.subscriptions
    nodes = subs.subscriber_nodes
    for subscriber, rectangle in enumerate(subs.rectangles()):
        broker.subscribe(int(nodes[subscriber]), rectangle)
    broker.rebuild()
    return [
        np.unique(nodes[members])
        for members in broker.clustering.group_member_lists()
        if len(members)
    ]


def _fixed_group_replay(
    scenario_kwargs: Optional[dict],
    events: Optional[Sequence[dict]],
    backend: str,
    groups: Sequence,
) -> FixedGroupReplay:
    """Apply the schedule's topology faults and re-price frozen groups.

    After every applied fault each group whose members are all live and
    reachable from the lowest live node is re-priced under ``backend``;
    the watched-counter deltas around the replay are the backend's
    recovery bill for keeping those groups deliverable.
    """
    import numpy as np

    from ..network.multicast import dense_multicast_cost
    from ..sim.scenario import build_preliminary_scenario
    from .schedule import FaultEvent

    scenario = build_preliminary_scenario(**dict(scenario_kwargs or {}))
    routing = scenario.routing
    n_nodes = scenario.topology.graph.n_nodes
    delivery = None
    if backend == "overlay":
        from ..dht import overlay_for

        delivery = overlay_for(routing)
    replay = FixedGroupReplay(backend=backend)
    before = _counter_state()
    down_nodes: set = set()
    down_links: set = set()
    for record in events or ():
        event = FaultEvent.from_dict(dict(record))
        if event.kind == "node_down":
            if event.node in down_nodes:
                continue
            routing.fail_node(event.node)
            down_nodes.add(event.node)
        elif event.kind == "node_up":
            if event.node not in down_nodes:
                continue
            routing.heal_node(event.node)
            down_nodes.discard(event.node)
        elif event.kind == "link_down":
            if event.link in down_links:
                continue
            routing.fail_link(*event.link)
            down_links.add(event.link)
        elif event.kind == "link_up":
            if event.link not in down_links:
                continue
            routing.heal_link(*event.link)
            down_links.discard(event.link)
        else:
            # subscription churn does not touch the topology
            continue
        replay.n_topology_faults += 1
        publisher = min(n for n in range(n_nodes) if n not in down_nodes)
        dist, _ = routing.shortest_paths(publisher).arrays()
        for nodes in groups:
            replay.n_opportunities += 1
            if any(int(m) in down_nodes for m in nodes):
                continue
            if not np.all(np.isfinite(dist[nodes])):
                continue
            replay.n_repricings += 1
            if backend == "overlay":
                replay.total_cost += delivery.group_cost(publisher, nodes)
            else:
                replay.total_cost += dense_multicast_cost(
                    routing, publisher, nodes
                )
    replay.counters = _delta(before, _counter_state())
    return replay


def compare_healing(
    scenario_kwargs: Optional[dict] = None,
    events: Optional[Sequence[dict]] = None,
    horizon: float = 0.0,
    config_kwargs: Optional[dict] = None,
    n_events: int = 100,
    seed: int = 0,
    backends: Sequence[str] = BACKENDS,
) -> HealingComparison:
    """Replay one schedule + stream once per backend and compare.

    Parameters mirror :meth:`ChaosRunner.from_params` — each backend
    builds a private scenario from the same seed (a replay mutates its
    routing tables), overriding only ``scheme`` in ``config_kwargs``.
    The per-backend outcome gauges land in the registry under a
    ``backend`` label so the comparison is scrapeable alongside the
    chaos run's own metrics.
    """
    from .chaos import ChaosRunner

    registry = get_registry()
    runs: List[BackendRun] = []
    for backend in backends:
        merged = dict(config_kwargs or {})
        merged["scheme"] = backend
        runner = ChaosRunner.from_params(
            scenario_kwargs=dict(scenario_kwargs or {}),
            events=events,
            horizon=horizon,
            config_kwargs=merged,
            n_events=n_events,
            seed=seed,
        )
        before = _counter_state()
        report = runner.run()
        run = BackendRun(
            backend=backend,
            report=report,
            counters=_delta(before, _counter_state()),
        )
        runs.append(run)
        registry.gauge(
            "healing_recovery_work",
            "recovery work units spent by one backend's chaos replay",
        ).set(run.recovery_work, backend=backend)
        registry.gauge(
            "healing_lost_deliveries",
            "subscriber deliveries lost under one backend's chaos replay",
        ).set(report.lost_deliveries, backend=backend)
    scenario = None
    fixed: List[FixedGroupReplay] = []
    if events:
        from ..sim.scenario import build_preliminary_scenario

        scenario = build_preliminary_scenario(**dict(scenario_kwargs or {}))
        groups = _frozen_groups(scenario, dict(config_kwargs or {}))
        for backend in backends:
            replay = _fixed_group_replay(
                scenario_kwargs, events, backend, groups
            )
            fixed.append(replay)
            registry.gauge(
                "healing_fixed_group_work",
                "recovery work of re-pricing frozen groups across the "
                "fault schedule",
            ).set(replay.recovery_work, backend=backend)
    return HealingComparison(runs=runs, fixed=fixed)
