"""Process-pool sweep engine with deterministic seed spawning.

Every figure and table in the paper is a sweep over {algorithm × group
count × scenario} cells, and the fault layer doubled the cells we want
to run (faulted vs. baseline).  This module fans those cells across a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the
results **bit-exact** with a serial run:

* **Seeds** — each cell's generator is spawned from the scenario seed
  via :class:`numpy.random.SeedSequence`: cell *i* runs with
  ``SeedSequence(scenario_seed, spawn_key=(i,))``, which is exactly the
  *i*-th child of ``SeedSequence(scenario_seed).spawn(...)``.  The seed
  depends only on the scenario seed and the cell's position in the plan,
  never on which worker ran it or in what order, so serial and parallel
  runs produce byte-identical :class:`~repro.sim.CostSummary` /
  :class:`~repro.faults.DegradationReport` objects for any worker count.

* **Shared state** — under the ``fork`` start method the expensive
  read-only state (hyper-cell membership matrices, event samples and
  their interest sets) is built once in the parent and inherited
  copy-on-write by every worker; nothing is pickled per task.  Under
  ``spawn`` a picklable :class:`ContextFactory` rebuilds the context in
  each worker instead of pickling the live one with its scenario and
  cached cell sets.

* **Observability** — each worker starts with a fresh
  :class:`~repro.obs.MetricsRegistry` and :class:`~repro.obs.Tracer`
  (:func:`repro.obs.reset_worker_state`), snapshots them per cell, and
  the parent merges the snapshots back on join
  (:meth:`MetricsRegistry.merge_records` / :meth:`Tracer.ingest`), so
  ``phase_table``, run manifests and JSONL traces stay complete under
  parallelism.

Chaos cells are fanned out the same way, but each worker builds its own
scenario from picklable parameters: a chaos replay *mutates* the routing
tables, so the scenario cannot be shared.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import (
    get_flight_recorder,
    get_registry,
    get_tracer,
    reset_worker_state,
)
from .experiment import AlgorithmResult, ExperimentContext
from .scenario import build_evaluation_scenario, build_preliminary_scenario

__all__ = [
    "SweepCell",
    "SweepCellResult",
    "ChaosCell",
    "ChaosCellResult",
    "ContextFactory",
    "cell_seed",
    "plan_cells",
    "run_cells",
    "run_chaos_cells",
    "default_workers",
    "SEED_MODES",
]

#: how per-cell generators are derived: ``"spawn"`` uses the
#: SeedSequence scheme above (the default); ``"legacy"`` passes no
#: generator so each cell falls back to the historical per-call seeds
#: (``scenario.seed + 7`` / ``+ 11``) — used when parallelising the
#: pre-existing figure sweeps, whose serial output is pinned by the
#: benchmark suite
SEED_MODES = ("spawn", "legacy")


def default_workers(requested: Optional[int] = None) -> int:
    """Resolve a worker count (``None``/``0`` = all available cores)."""
    if requested:
        return max(1, int(requested))
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def cell_seed(scenario_seed: int, index: int) -> np.random.SeedSequence:
    """The ``index``-th spawned child of ``SeedSequence(scenario_seed)``.

    Equal to ``SeedSequence(scenario_seed).spawn(index + 1)[index]`` but
    constructible locally in any worker without shipping (or advancing)
    the parent sequence — spawning is pure key derivation, so the cell
    index alone pins the stream.
    """
    return np.random.SeedSequence(int(scenario_seed), spawn_key=(int(index),))


# ----------------------------------------------------------------------
# cell descriptions (picklable, hashable plan entries)


@dataclass(frozen=True)
class SweepCell:
    """One {algorithm × group budget} cell of a sweep plan.

    ``index`` is the cell's position in the plan — the seed-spawn key —
    and ``options`` carries extra algorithm kwargs as a sorted tuple of
    pairs so cells stay hashable and picklable.
    """

    index: int
    kind: str = "grid"  # "grid" | "noloss" | "unicast"
    algorithm: str = "kmeans"
    n_groups: int = 0
    schemes: Tuple[str, ...] = ("dense",)
    max_cells: Optional[int] = None
    threshold: float = 0.0
    options: Tuple[Tuple[str, object], ...] = ()

    def label(self) -> str:
        return f"{self.algorithm}/K={self.n_groups}"


@dataclass
class SweepCellResult:
    """One executed cell: results plus the worker's observability delta."""

    cell: SweepCell
    results: List[AlgorithmResult]
    seconds: float
    pid: int
    metrics: List[Dict] = field(default_factory=list)
    spans: List[Dict] = field(default_factory=list)
    flight_records: List[Dict] = field(default_factory=list)


@dataclass(frozen=True)
class ContextFactory:
    """Picklable recipe for rebuilding an :class:`ExperimentContext`.

    Used instead of a live context wherever pickling is unavoidable (the
    ``spawn`` start method): the recipe is a few names and numbers,
    where a live context would carry its scenario, routing tables and
    cached cell sets through the pickle.
    """

    builder: str = "evaluation"  # "evaluation" | "preliminary"
    kwargs: Tuple[Tuple[str, object], ...] = ()
    n_events: int = 200
    event_seed: Optional[int] = None
    aggregate: bool = False

    def __call__(self) -> ExperimentContext:
        builders = {
            "evaluation": build_evaluation_scenario,
            "preliminary": build_preliminary_scenario,
        }
        scenario = builders[self.builder](**dict(self.kwargs))
        return ExperimentContext(
            scenario,
            n_events=self.n_events,
            event_seed=self.event_seed,
            aggregate=self.aggregate,
        )


def plan_cells(
    group_counts: Sequence[int],
    algorithms: Sequence[str],
    schemes: Sequence[str] = ("dense",),
    cell_budgets: Optional[Mapping[str, int]] = None,
    threshold: float = 0.0,
    noloss: bool = False,
    noloss_keep: int = 5000,
    noloss_iterations: int = 8,
) -> List[SweepCell]:
    """The Figure-7-shaped plan: group count outer, algorithms inner,
    No-Loss last per group count — matching the serial sweep order so
    flattened results line up row for row."""
    budgets = dict(cell_budgets or {})
    cells: List[SweepCell] = []
    for n_groups in group_counts:
        for name in algorithms:
            cells.append(
                SweepCell(
                    index=len(cells),
                    kind="grid",
                    algorithm=name,
                    n_groups=int(n_groups),
                    schemes=tuple(schemes),
                    max_cells=budgets.get(name),
                    threshold=threshold,
                )
            )
        if noloss:
            cells.append(
                SweepCell(
                    index=len(cells),
                    kind="noloss",
                    algorithm="no-loss",
                    n_groups=int(n_groups),
                    schemes=tuple(schemes),
                    options=(
                        ("n_keep", int(noloss_keep)),
                        ("iterations", int(noloss_iterations)),
                    ),
                )
            )
    return cells


# ----------------------------------------------------------------------
# worker side

#: the context workers execute cells against; set in the parent just
#: before the pool forks (inherited copy-on-write), or built from a
#: :class:`ContextFactory` by the initializer under ``spawn``
_WORKER_CONTEXT: Optional[ExperimentContext] = None


def _init_worker(
    factory: Optional[ContextFactory], tracing: bool, flight: bool = False
) -> None:
    """Worker-process start hook: fresh observability state, own context.

    Must run before any cell: the forked child inherited the parent's
    registry, spans and flight records, and snapshotting those would
    double-count them on merge (see :func:`repro.obs.reset_worker_state`).
    """
    global _WORKER_CONTEXT
    reset_worker_state(tracing=tracing, flight=flight)
    if factory is not None:
        _WORKER_CONTEXT = factory()


def _cell_rng(
    scenario_seed: int, cell: SweepCell, seed_mode: str
) -> Optional[np.random.Generator]:
    if seed_mode == "legacy":
        return None
    return np.random.default_rng(cell_seed(scenario_seed, cell.index))


def _execute_cell(
    context: ExperimentContext,
    cell: SweepCell,
    rng: Optional[np.random.Generator],
) -> List[AlgorithmResult]:
    if cell.kind == "grid":
        return context.run_grid_algorithm(
            cell.algorithm,
            cell.n_groups,
            max_cells=cell.max_cells,
            threshold=cell.threshold,
            schemes=cell.schemes,
            rng=rng,
            **dict(cell.options),
        )
    if cell.kind == "noloss":
        return context.run_noloss(
            cell.n_groups,
            schemes=cell.schemes,
            rng=rng,
            **dict(cell.options),
        )
    if cell.kind == "unicast":
        return [
            context.run_unicast_baseline(scheme) for scheme in cell.schemes
        ]
    raise ValueError(f"unknown cell kind {cell.kind!r}")


def _run_cell_task(
    cell: SweepCell, scenario_seed: int, seed_mode: str
) -> SweepCellResult:
    """Pool task: run one cell, return results + observability delta."""
    context = _WORKER_CONTEXT
    if context is None:
        raise RuntimeError(
            "worker context not initialised (fork inheritance failed and "
            "no ContextFactory was provided)"
        )
    registry = get_registry()
    tracer = get_tracer()
    flight = get_flight_recorder()
    # per-cell delta: zero, run, snapshot — tasks run serially within a
    # worker, so the snapshot is exactly this cell's contribution
    registry.reset()
    tracer.clear()
    flight.clear()
    start = time.perf_counter()
    results = _execute_cell(context, cell, _cell_rng(scenario_seed, cell, seed_mode))
    seconds = time.perf_counter() - start
    return SweepCellResult(
        cell=cell,
        results=results,
        seconds=seconds,
        pid=os.getpid(),
        metrics=registry.snapshot(),
        spans=[span.as_dict() for span in tracer.spans()],
        flight_records=flight.as_dicts(),
    )


# ----------------------------------------------------------------------
# parent side


def _default_start_method() -> str:
    return (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else multiprocessing.get_start_method()
    )


def _merge_observability(outcomes: Sequence) -> None:
    """Fold worker metric/span snapshots into the parent registry/tracer.

    Outcomes are merged in plan order, so the merged totals — and the
    flight recorder's remapped event ids — are deterministic regardless
    of completion order.
    """
    registry = get_registry()
    tracer = get_tracer()
    flight = get_flight_recorder()
    for outcome in outcomes:
        if outcome.metrics:
            registry.merge_records(outcome.metrics)
        if outcome.spans:
            tracer.ingest(outcome.spans)
        records = getattr(outcome, "flight_records", None)
        if records:
            flight.ingest(records)


def run_cells(
    context: Optional[ExperimentContext],
    cells: Sequence[SweepCell],
    workers: int = 1,
    seed_mode: str = "spawn",
    start_method: Optional[str] = None,
    context_factory: Optional[ContextFactory] = None,
) -> List[SweepCellResult]:
    """Run sweep cells, serially or across a process pool.

    ``workers <= 1`` runs in-process through the exact same per-cell
    code path (same spawned seeds), so results are byte-identical for
    any worker count.  ``context`` may be ``None`` when a
    ``context_factory`` is given; under the ``spawn`` start method the
    factory is required (live contexts do not pickle).
    """
    if seed_mode not in SEED_MODES:
        raise ValueError(f"seed_mode must be one of {SEED_MODES}")
    cells = list(cells)
    if context is None:
        if context_factory is None:
            raise ValueError("need a context or a context_factory")
        context = context_factory()
    scenario_seed = int(context.scenario.seed)
    n_workers = max(1, int(workers or 1))

    if n_workers <= 1 or len(cells) <= 1:
        outcomes = []
        for cell in cells:
            start = time.perf_counter()
            results = _execute_cell(
                context, cell, _cell_rng(scenario_seed, cell, seed_mode)
            )
            outcomes.append(
                SweepCellResult(
                    cell=cell,
                    results=results,
                    seconds=time.perf_counter() - start,
                    pid=os.getpid(),
                )
            )
        return outcomes

    method = start_method or _default_start_method()
    if method == "fork":
        factory = None
        global _WORKER_CONTEXT
        _WORKER_CONTEXT = context
    else:
        if context_factory is None:
            raise ValueError(
                f"the {method!r} start method cannot inherit the context; "
                "pass a picklable context_factory"
            )
        factory = context_factory
    try:
        pool_ctx = multiprocessing.get_context(method)
        with ProcessPoolExecutor(
            max_workers=min(n_workers, len(cells)),
            mp_context=pool_ctx,
            initializer=_init_worker,
            initargs=(factory, get_tracer().enabled, get_flight_recorder().enabled),
        ) as pool:
            futures = [
                pool.submit(_run_cell_task, cell, scenario_seed, seed_mode)
                for cell in cells
            ]
            outcomes = [future.result() for future in futures]
    finally:
        if method == "fork":
            _WORKER_CONTEXT = None
    outcomes.sort(key=lambda outcome: outcome.cell.index)
    _merge_observability(outcomes)
    return outcomes


# ----------------------------------------------------------------------
# chaos cells


@dataclass(frozen=True)
class ChaosCell:
    """One self-contained chaos replay: scenario + schedule by value.

    Unlike :class:`SweepCell`, a chaos cell ships *parameters*, not
    shared state: the replay mutates routing tables, so every worker
    must own a private scenario rebuilt from the same seed.  ``events``
    is the schedule as :meth:`FaultSchedule.as_dicts` records (an empty
    tuple with a horizon is the no-fault baseline).
    """

    index: int
    label: str
    scenario_kwargs: Tuple[Tuple[str, object], ...]
    events: Tuple[Mapping, ...]
    horizon: float
    config_kwargs: Tuple[Tuple[str, object], ...] = ()
    n_events: int = 100
    seed: int = 0
    #: record per-publication flight chains; the cause chains travel
    #: inside the (picklable) DegradationReport, so serial and parallel
    #: replays produce byte-identical reports
    flight: bool = False
    #: SLO objectives as sorted (key, value)-pair tuples, one per
    #: objective — hashable/picklable; each worker builds a private
    #: engine and ships breaches back on the report
    slo_spec: Tuple[Tuple[Tuple[str, object], ...], ...] = ()


@dataclass
class ChaosCellResult:
    """One executed chaos cell."""

    cell: ChaosCell
    report: object  # DegradationReport
    seconds: float
    pid: int
    metrics: List[Dict] = field(default_factory=list)
    spans: List[Dict] = field(default_factory=list)
    flight_records: List[Dict] = field(default_factory=list)


def _execute_chaos_cell(cell: ChaosCell):
    from ..faults import ChaosRunner

    runner = ChaosRunner.from_params(
        scenario_kwargs=dict(cell.scenario_kwargs),
        events=[dict(event) for event in cell.events],
        horizon=cell.horizon,
        config_kwargs=dict(cell.config_kwargs),
        n_events=cell.n_events,
        seed=cell.seed,
        flight=cell.flight,
        slo_spec=[dict(entry) for entry in cell.slo_spec] or None,
    )
    return runner.run()


def _run_chaos_task(cell: ChaosCell) -> ChaosCellResult:
    registry = get_registry()
    tracer = get_tracer()
    flight = get_flight_recorder()
    registry.reset()
    tracer.clear()
    flight.clear()
    start = time.perf_counter()
    report = _execute_chaos_cell(cell)
    seconds = time.perf_counter() - start
    return ChaosCellResult(
        cell=cell,
        report=report,
        seconds=seconds,
        pid=os.getpid(),
        metrics=registry.snapshot(),
        spans=[span.as_dict() for span in tracer.spans()],
        flight_records=flight.as_dicts(),
    )


def run_chaos_cells(
    cells: Sequence[ChaosCell],
    workers: int = 1,
    start_method: Optional[str] = None,
) -> List[ChaosCellResult]:
    """Run chaos cells, serially or across a process pool.

    Cells are self-contained (scenario parameters + schedule by value),
    so both ``fork`` and ``spawn`` work without a shared context; the
    serial path builds through the identical
    :meth:`ChaosRunner.from_params` constructor, keeping reports
    byte-identical for any worker count.
    """
    cells = list(cells)
    n_workers = max(1, int(workers or 1))
    if n_workers <= 1 or len(cells) <= 1:
        outcomes = []
        for cell in cells:
            start = time.perf_counter()
            report = _execute_chaos_cell(cell)
            outcomes.append(
                ChaosCellResult(
                    cell=cell,
                    report=report,
                    seconds=time.perf_counter() - start,
                    pid=os.getpid(),
                )
            )
        return outcomes
    method = start_method or _default_start_method()
    pool_ctx = multiprocessing.get_context(method)
    with ProcessPoolExecutor(
        max_workers=min(n_workers, len(cells)),
        mp_context=pool_ctx,
        initializer=_init_worker,
        initargs=(None, get_tracer().enabled, get_flight_recorder().enabled),
    ) as pool:
        futures = [pool.submit(_run_chaos_task, cell) for cell in cells]
        outcomes = [future.result() for future in futures]
    outcomes.sort(key=lambda outcome: outcome.cell.index)
    _merge_observability(outcomes)
    return outcomes
