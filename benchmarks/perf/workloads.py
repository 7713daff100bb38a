"""The benchmark's four seeded workloads.

Each workload drives the program only through its public entry points
(``run_soak``, ``run_fleet``, ``ContextFactory``/``SweepCell``/
``run_cells``).  A workload is run in two steps: ``execute`` is the timed
part and returns the program's raw result; ``summarize`` turns that
result into an :class:`Outcome` outside the timed (and traced) window.

Every workload is a closed loop with one caller: the seeded stream or
sweep plan is generated in full, then replayed as fast as the program
can go.  The virtual arrival and service rates of the stream workloads
shape only the virtual-clock queueing.
"""

from __future__ import annotations

import functools
import hashlib
import math
import mmap
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import repro.fleet
import repro.online
import repro.sim.parallel
from repro.online.service import BrokerService
from repro.sim.metrics import improvement_percentage

#: shared-memory probe slots: one per fleet shard (serve uses slot 0)
_SLOTS = 16
#: per slot: first BrokerService.run entry, then the broker's delivery
#: cost, unicast reference and ideal reference accrued during the run
_FIELDS = 4


class ServiceProbe:
    """Stamps around ``BrokerService.run``, kept in shared memory.

    The slots live in an anonymous shared mapping, so fleet workers forked
    during a run write into the same memory the parent reads afterwards.
    Each shard writes only its own slot, so no lock is needed.
    """

    def __init__(self) -> None:
        self._map = mmap.mmap(-1, 8 * _SLOTS * _FIELDS)
        self._cells = memoryview(self._map).cast("d")
        self._original = None
        self.reset()

    def reset(self) -> None:
        cells = self._cells
        for slot in range(_SLOTS):
            base = slot * _FIELDS
            cells[base] = math.inf
            for offset in range(1, _FIELDS):
                cells[base + offset] = 0.0

    def install(self) -> None:
        original = BrokerService.run
        cells = self._cells
        clock = time.perf_counter

        @functools.wraps(original)
        def run(service, events):
            base = getattr(service, "shard_id", 0) * _FIELDS
            cells[base] = min(cells[base], clock())
            stats = service.broker.stats
            before = (
                stats.total_cost, stats.total_unicast_cost,
                stats.total_ideal_cost,
            )
            result = original(service, events)
            cells[base + 1] += stats.total_cost - before[0]
            cells[base + 2] += stats.total_unicast_cost - before[1]
            cells[base + 3] += stats.total_ideal_cost - before[2]
            return result

        self._original = original
        BrokerService.run = run

    def uninstall(self) -> None:
        if self._original is not None:
            BrokerService.run = self._original
            self._original = None

    def first_entry(self) -> float:
        return min(self._cells[s * _FIELDS] for s in range(_SLOTS))

    def totals(self) -> Tuple[float, float, float]:
        """Summed (cost, unicast, ideal) over every slot."""
        cells = self._cells
        return tuple(
            sum(cells[s * _FIELDS + k] for s in range(_SLOTS))
            for k in (1, 2, 3)
        )


@dataclass
class Outcome:
    """One run of a workload on one input."""

    #: the deterministic output the goldens pin
    digest_text: str
    #: operations attempted: input events (streams) or cells (sweep)
    attempted: int
    #: operations that failed: shed events (streams) or bad cells (sweep)
    failed: int
    #: throughput numerator: input events, or events evaluated x cells
    events: int
    wall_s: float
    setup_s: float
    cost_per_pub: float
    improvement_pct: float
    errors: List[str] = field(default_factory=list)
    #: per-shard service-loop seconds (fleet only)
    shard_seconds: List[float] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.digest_text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    heldout_seed: int
    #: (params, seed, probe) -> (raw result, wall_s, setup_s)
    execute: Callable
    #: (params, raw, wall_s, setup_s, probe) -> Outcome
    summarize: Callable
    params: Dict
    quick: Dict


# ----------------------------------------------------------------------
# stream workloads
# ----------------------------------------------------------------------
def _conservation(name: str, service, errors: List[str]) -> Tuple[int, int]:
    processed = sum(service.n_processed.values())
    shed = sum(service.n_shed.values())
    if processed + shed != service.n_events:
        errors.append(
            f"{name}: processed {processed} + shed {shed} "
            f"!= events {service.n_events}"
        )
    return processed, shed


def _delivery_quality(
    probe: ServiceProbe, total_cost: float, pubs: int, errors: List[str]
) -> Tuple[float, float]:
    cost, unicast, ideal = probe.totals()
    if abs(cost - total_cost) > 1e-6 * max(1.0, abs(total_cost)):
        errors.append(
            f"broker stats cost {cost!r} != service total cost {total_cost!r}"
        )
    improvement = improvement_percentage(unicast, ideal, cost)
    if not 0.0 <= improvement <= 100.0:
        errors.append(f"improvement {improvement!r} outside [0, 100]")
    return total_cost / max(1, pubs), improvement


def _execute_serve(params: Dict, seed: int, probe: ServiceProbe):
    config = repro.online.SoakConfig(seed=seed, **params["config"])
    probe.reset()
    start = time.perf_counter()
    result = repro.online.run_soak(config, finalize=params["finalize"])
    wall = time.perf_counter() - start
    return result, wall, probe.first_entry() - start


def _summarize_serve(params, result, wall, setup, probe) -> Outcome:
    errors: List[str] = []
    service = result.service
    _, shed = _conservation("service", service, errors)
    pubs = service.n_processed.get("pub", 0)
    cost_per_pub, improvement = _delivery_quality(
        probe, service.total_cost, pubs, errors
    )
    return Outcome(
        digest_text=result.deterministic_report(),
        attempted=service.n_events,
        failed=shed,
        events=service.n_events,
        wall_s=wall,
        setup_s=setup,
        cost_per_pub=cost_per_pub,
        improvement_pct=improvement,
        errors=errors,
    )


def _execute_fleet(params: Dict, seed: int, probe: ServiceProbe):
    config = repro.fleet.FleetConfig(seed=seed, **params["config"])
    probe.reset()
    start = time.perf_counter()
    result = repro.fleet.run_fleet(config, finalize=False)
    wall = time.perf_counter() - start
    return result, wall, probe.first_entry() - start


def _summarize_fleet(params, result, wall, setup, probe) -> Outcome:
    errors: List[str] = []
    shed = 0
    pubs_seen = 0
    for shard in result.shards:
        service = shard.service
        shed += _conservation(f"shard {shard.shard}", service, errors)[1]
        pubs_seen += service.n_processed.get("pub", 0)
        pubs_seen += service.n_shed.get("pub", 0)
    plan = result.plan
    config = result.config
    pubs_in = config.n_events - plan.n_joins - plan.n_leaves - plan.n_noop_leaves
    if pubs_seen != pubs_in:
        errors.append(
            f"publications not conserved across shards: {pubs_seen} "
            f"served or shed, {pubs_in} in the stream"
        )
    pubs = sum(s.service.n_processed.get("pub", 0) for s in result.shards)
    cost_per_pub, improvement = _delivery_quality(
        probe, result.total_cost, pubs, errors
    )
    return Outcome(
        digest_text=result.deterministic_report(),
        attempted=config.n_events,
        failed=shed,
        events=config.n_events,
        wall_s=wall,
        setup_s=setup,
        cost_per_pub=cost_per_pub,
        improvement_pct=improvement,
        errors=errors,
        shard_seconds=[s.seconds for s in result.shards],
    )


# ----------------------------------------------------------------------
# batch sweep workload
# ----------------------------------------------------------------------
def _sweep_cells(params: Dict) -> List:
    SweepCell = repro.sim.parallel.SweepCell
    cells = []
    for k in params["groups"]:
        for algorithm, budget, options in params["grid"]:
            cells.append(
                SweepCell(
                    index=len(cells), algorithm=algorithm, n_groups=k,
                    max_cells=budget, options=options,
                )
            )
    mst_k, mst_budget = params["mst"]
    cells.append(
        SweepCell(
            index=len(cells), algorithm="mst", n_groups=mst_k,
            max_cells=mst_budget,
        )
    )
    noloss_k, keep, iterations = params["noloss"]
    cells.append(
        SweepCell(
            index=len(cells), kind="noloss", algorithm="no-loss",
            n_groups=noloss_k,
            options=(("n_keep", keep), ("iterations", iterations)),
        )
    )
    return cells


def _execute_sweep(params: Dict, seed: int, probe: ServiceProbe):
    parallel = repro.sim.parallel
    cells = _sweep_cells(params)
    start = time.perf_counter()
    factory = parallel.ContextFactory(
        builder="evaluation",
        kwargs=(
            ("modes", 1),
            ("n_subscriptions", params["subscriptions"]),
            ("seed", seed),
        ),
        n_events=params["events"],
    )
    context = factory()
    for budget in sorted({cell.max_cells for cell in cells if cell.max_cells}):
        context.cells(budget)
    context.reference_costs("dense")
    setup = time.perf_counter() - start
    outcomes = parallel.run_cells(context, cells, workers=1)
    wall = time.perf_counter() - start
    return outcomes, wall, setup


def _summarize_sweep(params, outcomes, wall, setup, probe) -> Outcome:
    errors: List[str] = []
    rows = []
    bad_cells = 0
    improvements = []
    costs = []
    for outcome in outcomes:
        cell_ok = True
        for r in outcome.results:
            s = r.summary
            rows.append(
                f"{r.algorithm:>8} {r.scheme:>5} K={r.n_groups:<4} "
                f"cells={r.n_cells:<5} improve={r.improvement:.9f} "
                f"cost={s.achieved:.6f} unicast={s.unicast:.6f} "
                f"ideal={s.ideal:.6f} wasted={s.wasted_deliveries:.6f}"
            )
            if not 0.0 <= r.improvement <= 100.0:
                errors.append(f"{outcome.cell.label()}: improvement "
                              f"{r.improvement!r} outside [0, 100]")
                cell_ok = False
            if r.algorithm == "no-loss" and s.wasted_deliveries != 0:
                errors.append(f"{outcome.cell.label()}: No-Loss wasted "
                              f"{s.wasted_deliveries!r} deliveries")
                cell_ok = False
            improvements.append(r.improvement)
            costs.append(s.achieved)
        bad_cells += not cell_ok
    n_cells = len(outcomes)
    return Outcome(
        digest_text="\n".join(rows) + "\n",
        attempted=n_cells,
        failed=bad_cells,
        events=n_cells * params["events"],
        wall_s=wall,
        setup_s=setup,
        cost_per_pub=sum(costs) / len(costs),
        improvement_pct=sum(improvements) / len(improvements),
        errors=errors,
    )


# ----------------------------------------------------------------------
# Sizes are per run of one input.  They are smaller than the program's
# defaults so that a timed run repeats each input several times; see
# README.md for the reasoning and the measured timings.
# ----------------------------------------------------------------------
#: drift-triggered refits are off: how many fire is a property of the
#: seed (0 to 18 across ten seeds of the churn stream at threshold 1.0),
#: which would make the wall time measure the seed.  serve-churn refits
#: a fixed two times instead (the warm and cold refits of finalize).
_SERVE = dict(
    n_nodes=100, n_subscriptions=300, n_groups=30, max_cells=600,
    drift_threshold=None,
)
_QUICK = dict(_SERVE, n_subscriptions=60)
#: K-means and Forgy run at most 5 iterations (instead of up to 100) for
#: the same reason: converging takes 4 to 21 iterations depending on the
#: seed, and Forgy at K=100 often runs to the cap
_CAPPED = (("max_iters", 5),)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve-steady",
            default_seed=7,
            heldout_seed=11,
            execute=_execute_serve,
            summarize=_summarize_serve,
            params=dict(
                config=dict(n_events=6000, churn_fraction=0.1, **_SERVE),
                finalize=False,
            ),
            quick=dict(
                config=dict(n_events=300, churn_fraction=0.1, **_QUICK),
                finalize=False,
            ),
        ),
        Workload(
            name="serve-churn",
            default_seed=7,
            heldout_seed=11,
            execute=_execute_serve,
            summarize=_summarize_serve,
            params=dict(
                config=dict(n_events=2000, churn_fraction=0.5, **_SERVE),
                finalize=True,
            ),
            quick=dict(
                config=dict(n_events=300, churn_fraction=0.5, **_QUICK),
                finalize=True,
            ),
        ),
        Workload(
            name="fleet-4shard",
            default_seed=7,
            heldout_seed=11,
            execute=_execute_fleet,
            summarize=_summarize_fleet,
            params=dict(
                config=dict(
                    n_events=4000, shards=4, sharding="region",
                    fleet_policy="forward", workers=2, **_SERVE,
                ),
            ),
            quick=dict(
                config=dict(
                    n_events=300, shards=4, sharding="region",
                    fleet_policy="forward", workers=2, **_QUICK,
                ),
            ),
        ),
        Workload(
            name="sweep-fig7",
            default_seed=0,
            heldout_seed=1,
            execute=_execute_sweep,
            summarize=_summarize_sweep,
            params=dict(
                subscriptions=1000,
                events=150,
                groups=(10, 100),
                grid=(
                    ("kmeans", 6000, _CAPPED),
                    ("forgy", 6000, _CAPPED),
                    ("pairs", 2000, ()),
                ),
                mst=(40, 2000),
                noloss=(40, 5000, 1),
            ),
            quick=dict(
                subscriptions=300,
                events=30,
                groups=(10,),
                grid=(
                    ("kmeans", 500, _CAPPED),
                    ("forgy", 500, _CAPPED),
                    ("pairs", 300, ()),
                ),
                mst=(10, 300),
                noloss=(10, 200, 1),
            ),
        ),
    )
}
