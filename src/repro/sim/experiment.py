"""End-to-end experiment runner.

The :class:`ExperimentContext` wires a scenario to the clustering
algorithms, matchers and dispatchers, caching the expensive shared state
(hyper-cell sets, event samples, per-event reference costs) so that a
sweep over algorithms and group counts — the shape of every figure in the
paper — only pays for each piece once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clustering import (
    ApproximatePairwiseClustering,
    ForgyKMeansClustering,
    GridClusteringAlgorithm,
    KMeansClustering,
    MSTClustering,
    NoLossAlgorithm,
    PairwiseGroupingClustering,
)
from ..delivery import SCHEMES, Dispatcher
from ..grid import CellSet, build_cell_set
from ..matching import GridMatcher, NoLossMatcher
from ..obs import RunManifest, get_tracer
from ..workload import PublicationEvent
from .metrics import CostSummary
from .scenario import Scenario

__all__ = ["ExperimentContext", "AlgorithmResult", "GRID_ALGORITHMS", "make_grid_algorithm"]

#: registry of the grid-based algorithm family (section 4.2-4.4)
GRID_ALGORITHMS = ("kmeans", "forgy", "mst", "pairs", "approx-pairs")


def make_grid_algorithm(name: str, **kwargs) -> GridClusteringAlgorithm:
    """Instantiate a grid-based clustering algorithm by registry name."""
    if name == "kmeans":
        return KMeansClustering(**kwargs)
    if name == "forgy":
        return ForgyKMeansClustering(**kwargs)
    if name == "mst":
        return MSTClustering(**kwargs)
    if name == "pairs":
        return PairwiseGroupingClustering(**kwargs)
    if name == "approx-pairs":
        return ApproximatePairwiseClustering(**kwargs)
    raise ValueError(f"unknown algorithm {name!r}; known: {GRID_ALGORITHMS}")


@dataclass
class AlgorithmResult:
    """One algorithm evaluated at one group budget under one scheme."""

    algorithm: str
    scheme: str
    n_groups: int
    summary: CostSummary
    fit_seconds: float
    n_cells: int

    @property
    def improvement(self) -> float:
        return self.summary.improvement or 0.0


class ExperimentContext:
    """Shared state for sweeps over one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        n_events: int = 300,
        event_seed: Optional[int] = None,
    ) -> None:
        self.scenario = scenario
        self.n_events = n_events
        seed = scenario.seed + 1 if event_seed is None else event_seed
        self._events: List[PublicationEvent] = scenario.sample_events(
            n_events, np.random.default_rng(seed)
        )
        self._dispatchers = {
            scheme: Dispatcher(scenario.routing, scenario.subscriptions, scheme)
            for scheme in SCHEMES
        }
        self._cells: Dict[Optional[int], CellSet] = {}
        self._references: Dict[str, Tuple[float, float, float]] = {}
        self._points: List[Tuple[int, ...]] = [e.point for e in self._events]
        self._publishers: List[int] = [e.publisher for e in self._events]
        subscriptions = scenario.subscriptions
        self._interested = subscriptions.batch_interested_subscribers(
            self._points
        )

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[PublicationEvent]:
        return self._events

    def dispatcher(self, scheme: str) -> Dispatcher:
        return self._dispatchers[scheme]

    def cells(self, max_cells: Optional[int] = None) -> CellSet:
        """Hyper-cell set for the scenario (cached per cell budget)."""
        if max_cells not in self._cells:
            self._cells[max_cells] = build_cell_set(
                self.scenario.space,
                self.scenario.subscriptions,
                self.scenario.cell_pmf,
                max_cells=max_cells,
            )
        return self._cells[max_cells]

    def manifest(self, argv: Optional[Sequence[str]] = None) -> RunManifest:
        """A :class:`~repro.obs.RunManifest` describing this context."""
        return RunManifest.capture(
            scenario=self.scenario, argv=argv, n_events=self.n_events
        )

    # ------------------------------------------------------------------
    def reference_costs(self, scheme: str) -> Tuple[float, float, float]:
        """Mean per-event (unicast, broadcast, ideal) costs (cached)."""
        if scheme not in self._references:
            dispatcher = self.dispatcher(scheme)
            with get_tracer().span(
                "sim.reference_costs", scheme=scheme, n_events=len(self._events)
            ):
                priced = dispatcher.price_run(
                    self._publishers, interested=self._interested
                )
                # fold in event order, as a per-event loop would
                unicast = broadcast = ideal = 0.0
                for event_unicast, event_ideal, _, event_broadcast in (
                    priced.tolist()
                ):
                    unicast += event_unicast
                    broadcast += event_broadcast
                    ideal += event_ideal
                n = len(self._events)
                self._references[scheme] = (
                    unicast / n,
                    broadcast / n,
                    ideal / n,
                )
        return self._references[scheme]

    def evaluate_matcher(self, matcher, scheme: str) -> CostSummary:
        """Mean per-event cost of a matcher's plans under a scheme.

        One ``match_batch`` over the sample reuses the context's
        precomputed per-event interest sets; the dispatcher prices all
        plans in one batch.
        """
        dispatcher = self.dispatcher(scheme)
        reuse_interest = (
            getattr(matcher, "subscriptions", None)
            is self.scenario.subscriptions
        )
        with get_tracer().span(
            "sim.evaluate_matcher",
            matcher=type(matcher).__name__,
            scheme=scheme,
            n_events=len(self._events),
        ):
            plans = matcher.match_batch(
                self._points,
                interested=self._interested if reuse_interest else None,
            )
            costs = dispatcher.plan_costs(self._publishers, plans)
            wasted = float(sum(plan.audit() for plan in plans))
            total = float(costs.sum())
            unicast, broadcast, ideal = self.reference_costs(scheme)
            n = len(self._events)
            return CostSummary(
                n_events=n,
                unicast=unicast,
                broadcast=broadcast,
                ideal=ideal,
                achieved=total / n,
                wasted_deliveries=wasted / n,
            )

    # ------------------------------------------------------------------
    def run_grid_algorithm(
        self,
        name: str,
        n_groups: int,
        max_cells: Optional[int] = None,
        threshold: float = 0.0,
        schemes: Sequence[str] = ("dense",),
        rng: Optional[np.random.Generator] = None,
        **algo_kwargs,
    ) -> List[AlgorithmResult]:
        """Fit one grid-based algorithm and evaluate it under the schemes."""
        with get_tracer().span(
            "sim.run_algorithm", algorithm=name, n_groups=n_groups
        ):
            cells = self.cells(max_cells)
            algorithm = make_grid_algorithm(name, **algo_kwargs)
            if rng is None:
                rng = np.random.default_rng(self.scenario.seed + 7)
            start = time.perf_counter()
            clustering = algorithm.fit(cells, n_groups, rng=rng)
            fit_seconds = time.perf_counter() - start
            matcher = GridMatcher(
                clustering, self.scenario.subscriptions, threshold=threshold
            )
            return [
                AlgorithmResult(
                    algorithm=name,
                    scheme=scheme,
                    n_groups=n_groups,
                    summary=self.evaluate_matcher(matcher, scheme),
                    fit_seconds=fit_seconds,
                    n_cells=len(cells),
                )
                for scheme in schemes
            ]

    def run_noloss(
        self,
        n_groups: int,
        n_keep: int = 5000,
        iterations: int = 8,
        schemes: Sequence[str] = ("dense",),
        rng: Optional[np.random.Generator] = None,
    ) -> List[AlgorithmResult]:
        """Fit the No-Loss algorithm and evaluate it under the schemes."""
        with get_tracer().span(
            "sim.run_algorithm", algorithm="no-loss", n_groups=n_groups
        ):
            if rng is None:
                rng = np.random.default_rng(self.scenario.seed + 11)
            algorithm = NoLossAlgorithm(n_keep=n_keep, iterations=iterations)
            start = time.perf_counter()
            result = algorithm.fit(
                self.scenario.subscriptions,
                self.scenario.cell_pmf,
                n_groups,
                rng=rng,
            )
            fit_seconds = time.perf_counter() - start
            matcher = NoLossMatcher(result, self.scenario.subscriptions)
            return [
                AlgorithmResult(
                    algorithm="no-loss",
                    scheme=scheme,
                    n_groups=result.n_groups,
                    summary=self.evaluate_matcher(matcher, scheme),
                    fit_seconds=fit_seconds,
                    n_cells=len(result),
                )
                for scheme in schemes
            ]
