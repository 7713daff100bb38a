"""Reproduction of Figures 7-11 (section 5.2).

Each ``figureN`` function runs the sweep behind the corresponding figure
and returns flat result rows; ``format_results`` renders them as the
series the paper plots.  Default sizes are laptop-scale; the paper-scale
parameters (600-node network, 1000 subscriptions, 6000 cells, 100-group
sweeps) are accepted through the same arguments.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from .experiment import AlgorithmResult, ExperimentContext
from .scenario import Scenario, build_evaluation_scenario

__all__ = [
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "format_results",
    "DEFAULT_ALGORITHMS",
]

#: the algorithms plotted in Figure 7 (approximate pairs is shown in
#: Figure 10; the paper omits it from Figure 7 for readability)
DEFAULT_ALGORITHMS = ("kmeans", "forgy", "mst", "pairs")

#: per-algorithm hyper-cell budgets used by the paper's Figure 7 runs
#: ("K-means and Forgy used 6000 rectangles ... the approximate pairs
#: algorithm used only 2000 ... MST was run with 6000")
PAPER_CELL_BUDGETS = {
    "kmeans": 6000,
    "forgy": 6000,
    "mst": 6000,
    "pairs": 2000,
    "approx-pairs": 2000,
}


def _context(
    modes: int,
    n_subscriptions: int,
    n_events: int,
    seed: int,
    scenario: Optional[Scenario] = None,
) -> ExperimentContext:
    if scenario is None:
        scenario = build_evaluation_scenario(
            modes=modes, n_subscriptions=n_subscriptions, seed=seed
        )
    return ExperimentContext(scenario, n_events=n_events)


def figure7(
    group_counts: Sequence[int] = (5, 10, 20, 40, 60, 80, 100),
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    schemes: Sequence[str] = ("dense", "alm"),
    modes: int = 1,
    n_subscriptions: int = 1000,
    n_events: int = 200,
    cell_budgets: Optional[Dict[str, int]] = None,
    noloss: bool = True,
    noloss_keep: int = 5000,
    noloss_iterations: int = 8,
    seed: int = 0,
    scenario: Optional[Scenario] = None,
    workers: int = 1,
) -> List[AlgorithmResult]:
    """Improvement percentage vs number of multicast groups.

    ``cell_budgets`` maps algorithm name to the number of hyper-cells it
    is fed; the default is the paper's configuration
    (:data:`PAPER_CELL_BUDGETS`).  No-Loss runs with the paper's "5000
    rectangles kept after intersection and 8 iterations" by default.

    ``workers > 1`` fans the cells across a process pool via
    :mod:`repro.sim.parallel` in legacy-seed mode, so the rows are
    byte-identical to the serial sweep in any case.
    """
    ctx = _context(modes, n_subscriptions, n_events, seed, scenario)
    budgets = dict(PAPER_CELL_BUDGETS)
    if cell_budgets:
        budgets.update(cell_budgets)
    if workers and workers > 1:
        from .parallel import plan_cells, run_cells

        cells = plan_cells(
            group_counts,
            algorithms,
            schemes=schemes,
            cell_budgets=budgets,
            noloss=noloss,
            noloss_keep=noloss_keep,
            noloss_iterations=noloss_iterations,
        )
        outcomes = run_cells(ctx, cells, workers=workers, seed_mode="legacy")
        return [result for outcome in outcomes for result in outcome.results]
    results: List[AlgorithmResult] = []
    for k in group_counts:
        for name in algorithms:
            results.extend(
                ctx.run_grid_algorithm(
                    name, k, max_cells=budgets.get(name), schemes=schemes
                )
            )
        if noloss:
            results.extend(
                ctx.run_noloss(
                    k,
                    n_keep=noloss_keep,
                    iterations=noloss_iterations,
                    schemes=schemes,
                )
            )
    return results


def figure8(
    keep_counts: Sequence[int] = (250, 500, 1000, 2000),
    iteration_counts: Sequence[int] = (1, 2, 4, 8),
    n_groups: int = 60,
    modes: int = 1,
    n_subscriptions: int = 1000,
    n_events: int = 200,
    seed: int = 0,
    scenario: Optional[Scenario] = None,
) -> List[Dict[str, float]]:
    """No-Loss quality vs rectangles kept and vs iteration count.

    Sweeps each axis with the other held at its maximum, as in the two
    panels of Figure 8.
    """
    ctx = _context(modes, n_subscriptions, n_events, seed, scenario)
    rows: List[Dict[str, float]] = []
    max_iters = max(iteration_counts)
    for keep in keep_counts:
        result = ctx.run_noloss(
            n_groups, n_keep=keep, iterations=max_iters
        )[0]
        rows.append(
            {
                "sweep": "rectangles",
                "n_keep": keep,
                "iterations": max_iters,
                "improvement_pct": result.improvement,
                "fit_seconds": result.fit_seconds,
            }
        )
    max_keep = max(keep_counts)
    for iters in iteration_counts:
        result = ctx.run_noloss(n_groups, n_keep=max_keep, iterations=iters)[0]
        rows.append(
            {
                "sweep": "iterations",
                "n_keep": max_keep,
                "iterations": iters,
                "improvement_pct": result.improvement,
                "fit_seconds": result.fit_seconds,
            }
        )
    return rows


def figure9(
    seeds: Sequence[int] = (0, 1),
    group_counts: Sequence[int] = (5, 10, 20, 40, 60, 80, 100),
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    modes: int = 1,
    n_subscriptions: int = 1000,
    n_events: int = 200,
    cell_budgets: Optional[Dict[str, int]] = None,
) -> Dict[int, List[AlgorithmResult]]:
    """Algorithm comparison on independently generated networks.

    Figure 9 shows the Figure 7 sweep repeated on a topology generated
    with a different random seed: the algorithm ranking should persist.
    """
    return {
        seed: figure7(
            group_counts=group_counts,
            algorithms=algorithms,
            schemes=("dense",),
            modes=modes,
            n_subscriptions=n_subscriptions,
            n_events=n_events,
            cell_budgets=cell_budgets,
            noloss=False,
            seed=seed,
        )
        for seed in seeds
    }


def figure10(
    cell_budgets: Sequence[int] = (250, 500, 1000, 2000),
    algorithms: Sequence[str] = ("kmeans", "forgy", "pairs", "approx-pairs"),
    n_groups: int = 60,
    modes: int = 1,
    n_subscriptions: int = 1000,
    n_events: int = 200,
    seed: int = 0,
    scenario: Optional[Scenario] = None,
) -> List[Dict[str, float]]:
    """Solution quality and running time vs number of cells clustered.

    Reproduces both panels of Figure 10: feeding more cells to the
    algorithms improves quality up to a point (and can then degrade it)
    while the running time keeps growing.
    """
    ctx = _context(modes, n_subscriptions, n_events, seed, scenario)
    rows: List[Dict[str, float]] = []
    for budget in cell_budgets:
        for name in algorithms:
            result = ctx.run_grid_algorithm(
                name, n_groups, max_cells=budget
            )[0]
            rows.append(
                {
                    "algorithm": name,
                    "n_cells": result.n_cells,
                    "cell_budget": budget,
                    "improvement_pct": result.improvement,
                    "fit_seconds": result.fit_seconds,
                }
            )
    return rows


def figure11(
    cell_budgets: Sequence[int] = (250, 500, 1000, 2000),
    algorithms: Sequence[str] = ("kmeans", "forgy", "pairs", "approx-pairs"),
    n_groups: int = 60,
    modes: int = 1,
    n_subscriptions: int = 1000,
    n_events: int = 200,
    seed: int = 0,
    scenario: Optional[Scenario] = None,
) -> List[Dict[str, float]]:
    """Solution quality as a function of running time.

    Figure 11 combines the two panels of Figure 10: each point is one
    (algorithm, cell budget) run plotted as (time, quality); the cell
    budget is the knob trading time for quality.
    """
    rows = figure10(
        cell_budgets=cell_budgets,
        algorithms=algorithms,
        n_groups=n_groups,
        modes=modes,
        n_subscriptions=n_subscriptions,
        n_events=n_events,
        seed=seed,
        scenario=scenario,
    )
    return sorted(rows, key=lambda r: r["fit_seconds"])


def format_results(results: Sequence[AlgorithmResult]) -> str:
    """Render algorithm results as an aligned text table."""
    lines = [
        f"{'algorithm':>13} {'scheme':>6} {'K':>4} {'improve%':>9} "
        f"{'cost':>10} {'unicast':>10} {'ideal':>10} {'fit_s':>8}"
    ]
    for r in results:
        lines.append(
            f"{r.algorithm:>13} {r.scheme:>6} {r.n_groups:>4} "
            f"{r.improvement:>9.1f} {r.summary.achieved:>10.1f} "
            f"{r.summary.unicast:>10.1f} {r.summary.ideal:>10.1f} "
            f"{r.fit_seconds:>8.3f}"
        )
    return "\n".join(lines)
