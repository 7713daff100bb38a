"""Packed-bitset kernel speedups vs the pre-bitset reference paths.

Times the two hot paths the kernels package replaced, against inlined
copies of the code they replaced (the float32-matvec agglomerative merge
state and the rasterise-per-event masked-bincount join scoring):

* ``pairwise_fit_m1500`` — one exact Pairwise Grouping fit at m = 1500
  hyper-cells / 1000 subscribers (the ISSUE 6 gate configuration).
* maintainer join scoring at 1500 subscribers / 2000 cell budget.

Both comparisons also assert *byte identity*: the fused paths must
produce the exact clustering assignment and the exact chosen group per
join, not approximately-equal ones.  Results go to
``BENCH_kernels_bitset.json`` (uploaded as a CI artifact) with
per-backend timings, so the speedup trajectory survives across PRs.

With the compiled native backend the gate is >= 10x on both
paths; in a numpy-only environment the floors drop (the pure-numpy
backend is a portability fallback, not the speed claim) but the records
are still written.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.broker import BrokerConfig, ContentBroker
from repro.clustering.pairwise import PairwiseGroupingClustering, _dense_labels
from repro.geometry import Rectangle
from repro.kernels import available_backends, set_backend
from repro.kernels import backends as _kernel_backends
from repro.network import RoutingTables
from repro.obs import bench_stamp
from repro.online import ClusterMaintainer
from repro.sim import ExperimentContext, build_evaluation_scenario

from conftest import print_banner

BENCH_RECORD = (
    Path(__file__).resolve().parent.parent / "BENCH_kernels_bitset.json"
)

FIT_M = 1500
FIT_GROUPS = 40
SCORE_SUBS = 1500
SCORE_CELLS = 2000
SCORE_RECTS = 200

#: acceptance floors: a compiled backend must clear 10x on both paths;
#: the numpy-only floors just guard against regressions of the fallback
FLOOR_COMPILED = 10.0
FLOOR_NUMPY_FIT = 0.8
FLOOR_NUMPY_SCORE = 2.0


# ----------------------------------------------------------------------
# the pre-bitset reference implementations, inlined verbatim
# ----------------------------------------------------------------------
def _reference_waste_matrix(membership, probs):
    """The float32 matmul formulation (pre-bitset pairwise_waste_matrix)."""
    membership = np.asarray(membership, dtype=bool)
    probs32 = np.asarray(probs, dtype=np.float32)
    sizes = membership.sum(axis=1).astype(np.float32)
    inter = membership.astype(np.float32) @ membership.astype(np.float32).T
    waste = sizes[None, :] - inter
    waste *= probs32[:, None]
    other = sizes[:, None] - inter
    other *= probs32[None, :]
    waste += other
    np.fill_diagonal(waste, 0.0)
    return waste


class _ReferenceState:
    """The pre-bitset merge state: boolean rows + a float32 matvec mirror."""

    def __init__(self, cells):
        m = len(cells)
        self.active = np.ones(m, dtype=bool)
        self.membership = cells.membership.copy()
        self.membership_f32 = self.membership.astype(np.float32)
        self.probs = cells.probs.copy().astype(np.float64)
        self.sizes = self.membership.sum(axis=1).astype(np.float64)
        self.parent = np.arange(m, dtype=np.int64)
        self.distances = _reference_waste_matrix(
            cells.membership, cells.probs
        ).astype(np.float32)
        np.fill_diagonal(self.distances, np.inf)
        self.n_active = m

    def merge(self, i, j):
        self.membership[i] |= self.membership[j]
        self.membership_f32[i] = self.membership[i]
        self.probs[i] += self.probs[j]
        self.sizes[i] = float(self.membership[i].sum())
        self.active[j] = False
        self.parent[j] = i
        self.n_active -= 1
        self.distances[j, :] = np.inf
        self.distances[:, j] = np.inf
        others = np.nonzero(self.active)[0]
        others = others[others != i]
        if len(others) == 0:
            self.distances[i, :] = np.inf
            return
        inter_all = self.membership_f32 @ self.membership_f32[i]
        inter = inter_all[others].astype(np.float64)
        row = self.probs[i] * (self.sizes[others] - inter)
        row += self.probs[others] * (self.sizes[i] - inter)
        self.distances[i, :] = np.inf
        self.distances[:, i] = np.inf
        self.distances[i, others] = row.astype(np.float32)
        self.distances[others, i] = row.astype(np.float32)


def _reference_pairwise_fit(cells, n_groups):
    """The pre-bitset NN-maintained exact merge loop, verbatim."""
    m = len(cells)
    state = _ReferenceState(cells)
    distances = state.distances
    rows = np.arange(m)
    nn_idx = np.argmin(distances, axis=1).astype(np.int64)
    nn_dist = distances[rows, nn_idx].copy()
    while state.n_active > n_groups:
        candidates = np.where(state.active, nn_dist, np.inf)
        i = int(np.argmin(candidates))
        j = int(nn_idx[i])
        state.merge(i, j)
        nn_dist[j] = np.inf
        stale = np.nonzero(
            state.active & ((nn_idx == i) | (nn_idx == j))
        )[0]
        for k in stale:
            best = int(np.argmin(distances[k]))
            nn_idx[k] = best
            nn_dist[k] = distances[k, best]
        col = distances[:, i]
        better = state.active & (
            (col < nn_dist) | ((col == nn_dist) & (i < nn_idx))
        )
        better[i] = False
        if better.any():
            nn_idx[better] = i
            nn_dist[better] = col[better]
    return _dense_labels(state.parent)


def _reference_overlap(space, cell_group, cell_pmf, n_groups, rectangle):
    """The pre-bitset maintainer._overlap: rasterise + masked bincount."""
    covered = space.cells_in_rectangle(rectangle)
    groups = cell_group[covered]
    valid = groups >= 0
    return np.bincount(
        groups[valid],
        weights=cell_pmf[covered][valid],
        minlength=n_groups,
    )


def _choose_group(group_mass, overlap):
    candidates = np.nonzero(overlap > 0)[0]
    if len(candidates) == 0:
        return -1
    scores = group_mass[candidates] - 2.0 * overlap[candidates]
    return int(candidates[np.argmin(scores)])


def _best_of(fn, rounds=3):
    best = np.inf
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _rect(space, rng):
    los, his = [], []
    for dim in space.dimensions:
        lo = rng.uniform(dim.lo - 1, dim.hi - 1)
        los.append(lo)
        his.append(lo + rng.uniform(1, (dim.hi - dim.lo) / 2 + 1))
    return Rectangle.from_bounds(los, his)


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def test_kernel_bitset_speedups():
    backends = available_backends()
    compiled = [n for n in backends if n != "numpy"]
    record = {
        "benchmark": "kernel_bitset",
        "backends_available": backends,
        "floors": {
            "compiled": FLOOR_COMPILED,
            "numpy_fit": FLOOR_NUMPY_FIT,
            "numpy_scoring": FLOOR_NUMPY_SCORE,
        },
    }

    try:
        fit = _bench_pairwise_fit(backends)
        scoring = _bench_maintainer_scoring(backends)
    finally:
        _kernel_backends._reset_for_testing()
    record["pairwise_fit"] = fit
    record["maintainer_scoring"] = scoring
    record["stamp"] = bench_stamp()
    BENCH_RECORD.write_text(json.dumps(record, indent=2) + "\n")

    print_banner("Packed-bitset kernels (BENCH_kernels_bitset.json)")
    print(f"  backends          {', '.join(backends)}")
    print(f"  pairwise fit      m={FIT_M}  reference "
          f"{fit['reference_seconds']:.3f} s")
    for name, seconds in fit["per_backend_seconds"].items():
        print(f"    {name:<8} {seconds:8.4f} s  "
              f"({fit['reference_seconds'] / seconds:6.1f}x)  identical")
    print(f"  join scoring      {SCORE_RECTS} rects, subs={SCORE_SUBS}, "
          f"cells={SCORE_CELLS}  reference "
          f"{scoring['reference_seconds'] * 1e3:.2f} ms")
    for name, seconds in scoring["per_backend_seconds"].items():
        print(f"    {name:<8} {seconds * 1e3:8.3f} ms  "
              f"({scoring['reference_seconds'] / seconds:6.1f}x)  identical")

    assert fit["identical"] and scoring["identical"]
    if compiled:
        assert fit["speedup"] >= FLOOR_COMPILED, (
            f"fused pairwise fit only {fit['speedup']:.1f}x vs the "
            f"pre-bitset loop (gate: {FLOOR_COMPILED}x)"
        )
        assert scoring["speedup"] >= FLOOR_COMPILED, (
            f"fused join scoring only {scoring['speedup']:.1f}x vs "
            f"rasterise+bincount (gate: {FLOOR_COMPILED}x)"
        )
    else:
        assert fit["speedup"] >= FLOOR_NUMPY_FIT
        assert scoring["speedup"] >= FLOOR_NUMPY_SCORE
    print(f"  gate              fit {fit['speedup']:.1f}x / scoring "
          f"{scoring['speedup']:.1f}x  PASS")


def _bench_pairwise_fit(backends):
    scenario = build_evaluation_scenario(
        modes=1, n_subscriptions=1000, seed=0
    )
    cells = ExperimentContext(scenario, n_events=1).cells(FIT_M)
    assert len(cells) == FIT_M
    cells.packed  # pre-pack outside the timed region (built once per run)

    reference_s, reference = _best_of(
        lambda: _reference_pairwise_fit(cells, FIT_GROUPS), rounds=2
    )

    per_backend = {}
    identical = True
    for name in backends:
        set_backend(name)
        algo = PairwiseGroupingClustering()
        seconds, clustering = _best_of(
            lambda: algo.fit(cells, FIT_GROUPS), rounds=3
        )
        per_backend[name] = seconds
        identical &= bool(
            np.array_equal(clustering.assignment, reference)
        )
    best = min(per_backend.values())
    return {
        "m": FIT_M,
        "n_subscribers": int(cells.n_subscribers),
        "n_groups": FIT_GROUPS,
        "reference_seconds": reference_s,
        "per_backend_seconds": per_backend,
        "speedup": reference_s / best,
        "identical": identical,
    }


def _bench_maintainer_scoring(backends):
    scenario = build_evaluation_scenario(
        modes=1, n_subscriptions=SCORE_SUBS, seed=0
    )
    broker = ContentBroker(
        RoutingTables(scenario.topology.graph),
        scenario.space,
        scenario.cell_pmf,
        config=BrokerConfig(
            n_groups=FIT_GROUPS,
            max_cells=SCORE_CELLS,
            rebalance_after=10**9,
            drift_threshold=1.05,
            delta_cells=True,
        ),
    )
    n_nodes = scenario.topology.graph.n_nodes
    rng = np.random.default_rng(42)
    for sub in scenario.subscriptions.subscriptions:
        broker.subscribe(sub.subscriber % n_nodes, sub.rectangle)
    broker.rebuild()
    maintainer = ClusterMaintainer(broker)

    # the joining rectangles are subscribed up front: the new path reads
    # the footprint the broker's delta-cells tracking rasterised once at
    # subscribe time, which is exactly what join()/leave() do per event
    rects = [_rect(broker.space, rng) for _ in range(SCORE_RECTS)]
    handles = [
        broker.subscribe(int(rng.integers(0, n_nodes)), rect)
        for rect in rects
    ]

    space = broker.space
    cell_group = maintainer._cell_group
    group_mass = maintainer._group_mass
    n_groups = len(group_mass)
    cell_pmf = broker.cell_pmf

    def reference_scoring():
        chosen = []
        for rect in rects:
            overlap = _reference_overlap(
                space, cell_group, cell_pmf, n_groups, rect
            )
            chosen.append(_choose_group(group_mass, overlap))
        return chosen

    def kernel_scoring():
        # exactly what join() does per event: footprint lookup + one
        # fused accumulate+argmin through the backend's bound scorer
        chosen = []
        for rect, handle in zip(rects, handles):
            group, _ = maintainer._score(maintainer._covered(rect, handle))
            chosen.append(group)
        return chosen

    reference_s, reference = _best_of(reference_scoring, rounds=5)

    per_backend = {}
    identical = True
    for name in backends:
        set_backend(name)
        seconds, chosen = _best_of(kernel_scoring, rounds=5)
        per_backend[name] = seconds
        identical &= chosen == reference
    best = min(per_backend.values())
    return {
        "n_rects": SCORE_RECTS,
        "n_subscribers": SCORE_SUBS,
        "max_cells": SCORE_CELLS,
        "n_groups": n_groups,
        "reference_seconds": reference_s,
        "per_backend_seconds": per_backend,
        "speedup": reference_s / best,
        "identical": identical,
    }
