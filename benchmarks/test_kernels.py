"""Micro-benchmarks of the computational kernels.

Not a paper table/figure — these track the costs that dominate the
experiments: the expected-waste matrix, the K-means assignment kernel,
grid preprocessing, R-tree stabbing and shortest-path trees.
"""

import numpy as np
import pytest

from repro.clustering import pairwise_waste_matrix, waste_to_clusters
from repro.grid import build_cell_set
from repro.matching import RTree
from repro.network import TransitStubGenerator, TransitStubParams


@pytest.fixture(scope="module")
def membership(eval_ctx):
    cells = eval_ctx.cells(1000)
    return cells.membership, cells.probs


def test_pairwise_waste_matrix(benchmark, membership):
    m, p = membership
    result = benchmark(pairwise_waste_matrix, m, p)
    assert result.shape == (len(m), len(m))


def test_assignment_kernel(benchmark, membership):
    m, p = membership
    clusters = m[:100]
    cluster_p = p[:100]
    result = benchmark(waste_to_clusters, m, p, clusters, cluster_p)
    assert result.shape == (len(m), 100)


def test_grid_preprocessing(benchmark, eval_ctx):
    scenario = eval_ctx.scenario
    cells = benchmark(
        build_cell_set,
        scenario.space,
        scenario.subscriptions,
        scenario.cell_pmf,
        2000,
    )
    assert len(cells) == 2000


def test_rtree_stab(benchmark, eval_ctx):
    subs = eval_ctx.scenario.subscriptions
    tree = RTree(subs.rectangles())
    point = eval_ctx.events[0].point

    hits = benchmark(tree.stab, point)
    expected = subs.matching_subscriptions(point)
    np.testing.assert_array_equal(hits, expected)


def test_event_matching_bruteforce(benchmark, eval_ctx):
    subs = eval_ctx.scenario.subscriptions
    point = eval_ctx.events[0].point
    result = benchmark(subs.interested_subscribers, point)
    assert result.ndim == 1


def test_dijkstra_600_nodes(benchmark):
    params = TransitStubParams.evaluation()
    topo = TransitStubGenerator(params, np.random.default_rng(0)).generate()
    sp = benchmark(topo.graph.shortest_paths, 0)
    assert sp.reachable(topo.n_nodes - 1)


def test_expected_waste_scalar_path(benchmark, membership):
    """Hot-path guard: the scalar distance call and its counter handle.

    ``expected_waste`` sits in the innermost loop of the exact pairwise
    algorithm, so its eval counter must be a cached bound child — not a
    per-call ``registry.counter(name, help)`` resolve (dict lookup +
    label hashing).  The benchmark tracks the per-call cost; the
    identity assertions fail if the handle cache regresses.
    """
    from repro.clustering import expected_waste
    from repro.clustering import distance as distance_module
    from repro.obs import get_registry

    m, p = membership
    a, b = m[0], m[1]
    pa, pb = float(p[0]), float(p[1])

    def hundred_calls():
        for _ in range(100):
            expected_waste(a, pa, b, pb)

    benchmark(hundred_calls)

    # the handle is bound once per registry, not re-resolved per call
    handle = distance_module._eval_handle
    assert handle is not None
    expected_waste(a, pa, b, pb)
    assert distance_module._eval_handle is handle
    assert distance_module._eval_registry is get_registry()
