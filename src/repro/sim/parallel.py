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

* **One driver** — sweep cells, chaos cells and fleet shards all run
  through :func:`_run_tasks`: inline for one worker or one task,
  otherwise in one pool whose workers receive the task function and the
  shared read-only state once, through the pool initializer (inherited
  copy-on-write under ``fork``, pickled once per worker under
  ``spawn``).

* **Observability** — each pooled task runs against a fresh
  :class:`~repro.obs.MetricsRegistry` and :class:`~repro.obs.Tracer`,
  and the parent merges every task's metric and span delta back in task
  order (:meth:`MetricsRegistry.merge_records` /
  :meth:`Tracer.ingest`), so ``phase_table``, run manifests and JSONL
  traces stay complete under parallelism.

Chaos cells share nothing: a chaos replay *mutates* the routing tables,
so each cell builds its own scenario from picklable parameters.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_registry, get_tracer, reset_worker_state
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
# the one driver


def _start_method() -> str:
    """``fork`` where the platform has it, else its default."""
    return (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else multiprocessing.get_start_method()
    )


#: a pool worker's task function and shared state, set by the initializer
_WORKER: Tuple[Optional[Callable], object] = (None, None)


def _init_pool_worker(fn: Callable, shared: object, tracing: bool) -> None:
    global _WORKER
    reset_worker_state(tracing=tracing)
    _WORKER = (fn, shared)


def _pool_task(task):
    """One task's result plus its metric and span deltas: tasks run one
    at a time in a worker, so zero-run-snapshot is exactly its share."""
    fn, shared = _WORKER
    registry = get_registry()
    tracer = get_tracer()
    registry.reset()
    tracer.clear()
    result = fn(task, shared)
    return result, registry.snapshot(), [s.as_dict() for s in tracer.spans()]


def _run_tasks(
    fn: Callable, tasks: Sequence, shared: object, workers: int
) -> List:
    """``fn(task, shared)`` for every task, in task order.

    Inline when ``workers <= 1`` or there is one task; otherwise across
    one process pool, with each task's metric and span deltas merged
    into the parent's registry and tracer in task order, so totals do
    not depend on the worker count or on completion order.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task, shared) for task in tasks]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        mp_context=multiprocessing.get_context(_start_method()),
        initializer=_init_pool_worker,
        initargs=(fn, shared, get_tracer().enabled),
    ) as pool:
        deltas = list(pool.map(_pool_task, tasks))
    registry = get_registry()
    tracer = get_tracer()
    results = []
    for result, metrics, spans in deltas:
        registry.merge_records(metrics)
        tracer.ingest(spans)
        results.append(result)
    return results


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
    kind: str = "grid"  # "grid" | "noloss"
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
    """One executed cell: its results, wall seconds and worker pid."""

    cell: SweepCell
    results: List[AlgorithmResult]
    seconds: float
    pid: int


@dataclass(frozen=True)
class ContextFactory:
    """Picklable recipe for building an :class:`ExperimentContext`:
    a scenario builder's name and kwargs plus the context's own
    settings."""

    builder: str = "evaluation"  # "evaluation" | "preliminary"
    kwargs: Tuple[Tuple[str, object], ...] = ()
    n_events: int = 200
    event_seed: Optional[int] = None

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
    raise ValueError(f"unknown cell kind {cell.kind!r}")


def _run_cell(
    cell: SweepCell, context: ExperimentContext, seed_mode: str
) -> SweepCellResult:
    rng = None
    if seed_mode != "legacy":
        rng = np.random.default_rng(
            cell_seed(context.scenario.seed, cell.index)
        )
    start = time.perf_counter()
    results = _execute_cell(context, cell, rng)
    return SweepCellResult(
        cell, results, time.perf_counter() - start, os.getpid()
    )


def run_cells(
    context: ExperimentContext,
    cells: Sequence[SweepCell],
    workers: int = 1,
    seed_mode: str = "spawn",
) -> List[SweepCellResult]:
    """Run sweep cells, serially or across a process pool.

    ``workers <= 1`` runs in-process through the exact same per-cell
    code path (same spawned seeds), so results are byte-identical for
    any worker count.  Pool workers share the live ``context``.
    """
    if seed_mode not in SEED_MODES:
        raise ValueError(f"seed_mode must be one of {SEED_MODES}")
    return _run_tasks(
        functools.partial(_run_cell, seed_mode=seed_mode),
        cells,
        context,
        workers,
    )


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


def _run_chaos_cell(cell: ChaosCell, shared: None) -> ChaosCellResult:
    from ..faults import ChaosRunner

    start = time.perf_counter()
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
    report = runner.run()
    return ChaosCellResult(
        cell, report, time.perf_counter() - start, os.getpid()
    )


def run_chaos_cells(
    cells: Sequence[ChaosCell], workers: int = 1
) -> List[ChaosCellResult]:
    """Run chaos cells, serially or across a process pool.

    Cells are self-contained (scenario parameters + schedule by value)
    and every path builds through :meth:`ChaosRunner.from_params`, so
    reports are byte-identical for any worker count.
    """
    return _run_tasks(_run_chaos_cell, cells, None, workers)
