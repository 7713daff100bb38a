"""repro — reproduction of "Clustering Algorithms for Content-Based
Publication-Subscription Systems" (Riabov, Liu, Wolf, Yu, Zhang;
ICDCS 2002).

The package builds the full pipeline of the paper:

- :mod:`repro.geometry` — intervals, rectangles, the gridded event space;
- :mod:`repro.network` — graphs, transit-stub topologies (GT-ITM style),
  routing and the four delivery cost models;
- :mod:`repro.workload` — subscription and publication generators;
- :mod:`repro.grid` — membership vectors and hyper-cells (section 4.1);
- :mod:`repro.clustering` — K-means, Forgy, MST, Pairwise Grouping
  (exact/approximate) and No-Loss (sections 4.2-4.5);
- :mod:`repro.matching` — R-tree index and the event matchers
  (section 4.6);
- :mod:`repro.delivery` — plan execution and cost accounting;
- :mod:`repro.obs` — metrics registry, span tracing and run manifests
  (the observability layer every stage reports into);
- :mod:`repro.sim` — scenario builders and the table/figure runners.

Quickstart::

    from repro.sim import build_evaluation_scenario, ExperimentContext

    scenario = build_evaluation_scenario(modes=1, seed=0)
    ctx = ExperimentContext(scenario, n_events=100)
    result = ctx.run_grid_algorithm("forgy", n_groups=40, max_cells=1000)[0]
    print(f"improvement over unicast: {result.improvement:.1f}%")
"""

__version__ = "1.0.0"

from . import (
    broker,
    clustering,
    delivery,
    geometry,
    grid,
    matching,
    network,
    obs,
    persistence,
    sim,
    workload,
)

__all__ = [
    "broker",
    "clustering",
    "delivery",
    "geometry",
    "grid",
    "matching",
    "network",
    "obs",
    "persistence",
    "sim",
    "workload",
    "__version__",
]
