"""Unit tests for the event matchers (section 4.6) and delivery plans."""

import numpy as np
import pytest

from repro.clustering import ForgyKMeansClustering, NoLossAlgorithm
from repro.geometry import Dimension, EventSpace
from repro.grid import build_cell_set
from repro.matching import DeliveryPlan, GridMatcher, NoLossMatcher

from tests.helpers import (
    BruteForceMatcher,
    cell_value,
    make_subscription_set,
    match_one,
    missed_subscribers,
    noloss_match,
    wasted_deliveries,
)


def cell_points(space):
    """The lattice point of every grid cell, in flat cell order."""
    return [cell_value(space, cell) for cell in range(space.n_cells)]


@pytest.fixture(scope="module")
def space():
    return EventSpace([Dimension("x", 0, 7), Dimension("y", 0, 7)])


@pytest.fixture(scope="module")
def subs(space):
    return make_subscription_set(
        space,
        [
            (0, [(-1, 3), (-1, 3)]),
            (1, [(0, 4), (0, 4)]),
            (2, [(3, 7), (3, 7)]),
            (3, [(-1, 7), (2, 5)]),
            (4, [(5, 7), (-1, 2)]),
        ],
    )


@pytest.fixture(scope="module")
def uniform_pmf(space):
    return np.full(space.n_cells, 1.0 / space.n_cells)


@pytest.fixture(scope="module")
def clustering(space, subs, uniform_pmf):
    cells = build_cell_set(space, subs, uniform_pmf)
    return ForgyKMeansClustering().fit(cells, 3)


class TestDeliveryPlan:
    def test_covered_subscribers_union(self):
        plan = DeliveryPlan(
            interested=np.array([1, 2, 3]),
            group_ids=[0],
            group_members=[np.array([2, 5])],
            unicast_subscribers=np.array([1, 3]),
        )
        assert list(plan.covered_subscribers()) == [1, 2, 3, 5]
        assert wasted_deliveries(plan) == 1  # subscriber 5
        plan.audit()

    def test_missed_subscribers_detected(self):
        plan = DeliveryPlan(
            interested=np.array([1, 2]),
            unicast_subscribers=np.array([1]),
        )
        assert list(missed_subscribers(plan)) == [2]
        with pytest.raises(AssertionError):
            plan.audit()

    def test_group_arity_checked(self):
        with pytest.raises(ValueError):
            DeliveryPlan(
                interested=np.array([1]),
                group_ids=[0, 1],
                group_members=[np.array([1])],
            )

    def test_empty_plan(self):
        plan = DeliveryPlan(interested=np.empty(0, dtype=np.int64))
        assert not plan.uses_multicast
        assert wasted_deliveries(plan) == 0
        plan.audit()


class TestBruteForceMatcher:
    def test_unicast_to_all_interested(self, subs):
        matcher = BruteForceMatcher(subs)
        plan = match_one(matcher, (2, 2))
        expected = list(subs.interested_subscribers((2, 2)))
        assert list(plan.unicast_subscribers) == expected
        assert not plan.uses_multicast
        assert wasted_deliveries(plan) == 0
        plan.audit()

    def test_no_interest(self, subs):
        plan = match_one(BruteForceMatcher(subs), (7, 7.0))
        # (7,7): sub 2 covers (3,7]x(3,7] => actually interested
        assert set(plan.interested) == set(
            subs.interested_subscribers((7, 7.0))
        )


class TestGridMatcher:
    def test_plans_complete_everywhere(self, space, subs, clustering):
        matcher = GridMatcher(clustering, subs)
        for plan in matcher.match_batch(cell_points(space)):
            plan.audit()

    def test_multicast_used_for_clustered_cells(self, space, subs, clustering):
        matcher = GridMatcher(clustering, subs)
        used = 0
        points = cell_points(space)
        groups = clustering.groups_of_grid_cells(np.arange(space.n_cells))
        for point, plan, group in zip(
            points, matcher.match_batch(points), groups
        ):
            interested = subs.interested_subscribers(point)
            members = (
                clustering.subscribers_of_group(group) if group >= 0 else []
            )
            overlap = len(np.intersect1d(interested, members))
            if group >= 0 and overlap:
                assert plan.uses_multicast
                used += 1
            else:
                assert not plan.uses_multicast
        assert used > 0

    def test_group_plus_unicast_semantics(self, space, subs, clustering):
        """Interested non-members are unicast; members are not."""
        matcher = GridMatcher(clustering, subs)
        for plan in matcher.match_batch(cell_points(space)):
            if not plan.uses_multicast:
                continue
            members = plan.group_members[0]
            assert len(np.intersect1d(plan.unicast_subscribers, members)) == 0
            expected_unicast = np.setdiff1d(plan.interested, members)
            np.testing.assert_array_equal(
                np.sort(plan.unicast_subscribers), expected_unicast
            )

    def test_threshold_one_disables_multicast_unless_pure(
        self, space, subs, clustering
    ):
        """With threshold ~1, multicast fires only when every member is
        interested (proportion must strictly exceed the threshold)."""
        matcher = GridMatcher(clustering, subs, threshold=0.999999)
        for plan in matcher.match_batch(cell_points(space)):
            if plan.uses_multicast:
                members = plan.group_members[0]
                assert set(members) <= set(plan.interested)

    def test_threshold_filters_wasteful_multicasts(self, space, subs, clustering):
        loose = GridMatcher(clustering, subs, threshold=0.0)
        strict = GridMatcher(clustering, subs, threshold=0.6)
        loose_count = sum(
            plan.uses_multicast
            for plan in loose.match_batch(cell_points(space))
        )
        strict_count = sum(
            plan.uses_multicast
            for plan in strict.match_batch(cell_points(space))
        )
        assert strict_count <= loose_count

    def test_event_outside_grid_unicasts(self, subs, clustering):
        matcher = GridMatcher(clustering, subs)
        plan = match_one(matcher, (-5.0, -5.0))
        assert not plan.uses_multicast
        assert len(plan.interested) == 0

    def test_threshold_validated(self, subs, clustering):
        with pytest.raises(ValueError):
            GridMatcher(clustering, subs, threshold=1.5)


class TestNoLossMatcher:
    @pytest.fixture(scope="class")
    def result(self, subs, uniform_pmf):
        algo = NoLossAlgorithm(n_keep=100, iterations=3)
        return algo.fit(subs, uniform_pmf, 5, rng=np.random.default_rng(0))

    def test_zero_waste_everywhere(self, space, subs, result):
        """The no-loss guarantee translated to plans: nothing wasted."""
        matcher = NoLossMatcher(result, subs)
        for plan in matcher.match_batch(cell_points(space)):
            plan.audit()
            assert wasted_deliveries(plan) == 0

    def test_run_stab_and_linear_scan_agree(self, space, subs, result):
        """The matcher's one-call run stab picks the region the per-point
        linear scan ``noloss_match`` picks (the heaviest containing one)."""
        points = cell_points(space)
        plans = NoLossMatcher(result, subs).match_batch(points)
        for point, plan in zip(points, plans):
            region = noloss_match(result, point)
            if region < 0:
                assert plan.group_ids == []
                continue
            members = result.group_members[int(result.group_of[region])]
            assert plan.group_ids == [int(result.group_of[region])]
            np.testing.assert_array_equal(
                plan.unicast_subscribers,
                np.setdiff1d(plan.interested, members),
            )

    def test_multicast_members_interested(self, space, subs, result):
        matcher = NoLossMatcher(result, subs)
        multicasts = 0
        for plan in matcher.match_batch(cell_points(space)):
            if plan.uses_multicast:
                multicasts += 1
                assert set(plan.group_members[0]) <= set(plan.interested)
        assert multicasts > 0
