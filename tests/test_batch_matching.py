"""Batch matching equivalence: ``match_batch`` must reproduce ``match``.

Every matcher's batch entry point is an optimisation, not a semantic
change, so on any workload — including off-lattice events — the plans it
returns must be identical to driving ``match`` one event at a time.
"""

import numpy as np
import pytest

from repro.clustering import ForgyKMeansClustering, NoLossAlgorithm
from repro.grid import build_cell_set
from repro.matching import BruteForceMatcher, GridMatcher, NoLossMatcher
from repro.sim import build_evaluation_scenario

from tests.helpers import match_one, wasted_deliveries


@pytest.fixture(scope="module")
def scenario():
    return build_evaluation_scenario(modes=4, n_subscriptions=150, seed=5)


@pytest.fixture(scope="module")
def points(scenario):
    """Sampled lattice events plus off-lattice and fractional outliers."""
    rng = np.random.default_rng(99)
    pts = [e.point for e in scenario.sample_events(40, rng)]
    inside = pts[0]
    # below-range, above-range and fractional coordinates all hit the
    # matchers' non-lattice code paths
    pts.append(tuple(c - 10_000 for c in inside))
    pts.append(tuple(c + 10_000 for c in inside))
    pts.append(tuple(c - 0.5 for c in inside))
    return pts


@pytest.fixture(scope="module")
def clustering(scenario):
    cells = build_cell_set(
        scenario.space, scenario.subscriptions, scenario.cell_pmf
    )
    return ForgyKMeansClustering().fit(cells, 6)


def assert_same_plans(batch, singles):
    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        np.testing.assert_array_equal(got.interested, want.interested)
        assert got.group_ids == want.group_ids
        assert len(got.group_members) == len(want.group_members)
        for gm, wm in zip(got.group_members, want.group_members):
            np.testing.assert_array_equal(gm, wm)
        np.testing.assert_array_equal(
            got.unicast_subscribers, want.unicast_subscribers
        )


class TestBatchEquivalence:
    def test_brute_force(self, scenario, points):
        matcher = BruteForceMatcher(scenario.subscriptions)
        assert_same_plans(
            matcher.match_batch(points),
            [match_one(matcher, p) for p in points],
        )

    @pytest.mark.parametrize("threshold", [0.0, 0.3])
    def test_grid(self, scenario, points, clustering, threshold):
        matcher = GridMatcher(
            clustering, scenario.subscriptions, threshold=threshold
        )
        assert_same_plans(
            matcher.match_batch(points),
            [match_one(matcher, p) for p in points],
        )

    def test_noloss(self, scenario, points):
        result = NoLossAlgorithm(n_keep=400, iterations=3).fit(
            scenario.subscriptions,
            scenario.cell_pmf,
            5,
            rng=np.random.default_rng(2),
        )
        matcher = NoLossMatcher(result, scenario.subscriptions)
        assert_same_plans(
            matcher.match_batch(points),
            [match_one(matcher, p) for p in points],
        )

    def test_precomputed_interest_is_used(self, scenario, points, clustering):
        """Supplying the interest sets must give the same plans (and the
        experiment context relies on them being accepted verbatim)."""
        matcher = GridMatcher(clustering, scenario.subscriptions)
        interest = scenario.subscriptions.batch_interested_subscribers(points)
        assert_same_plans(
            matcher.match_batch(points, interested=interest),
            [match_one(matcher, p) for p in points],
        )


class TestBatchAudit:
    def test_audit_matches_slow_accounting(self, scenario, points, clustering):
        matcher = GridMatcher(clustering, scenario.subscriptions)
        for plan in matcher.match_batch(points):
            plan.audit()
            assert plan.audit() == wasted_deliveries(plan)
