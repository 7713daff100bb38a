"""Unit tests for the No-Loss algorithm (section 4.5)."""

import numpy as np
import pytest

from repro.clustering import LatticeBlockMass, NoLossAlgorithm
from repro.geometry import Dimension, EventSpace, Interval, Rectangle

from tests.helpers import locate, make_subscription_set


@pytest.fixture(scope="module")
def space():
    return EventSpace([Dimension("x", 0, 7), Dimension("y", 0, 7)])


@pytest.fixture(scope="module")
def subs(space):
    """Overlapping rectangles whose intersections are the popular regions."""
    return make_subscription_set(
        space,
        [
            (0, [(-1, 4), (-1, 4)]),
            (1, [(1, 6), (1, 6)]),
            (2, [(0, 5), (0, 5)]),
            (3, [(2, 7), (2, 7)]),
            (4, [(-1, 7), (3, 5)]),
            (5, [(5, 7), (5, 7)]),
        ],
    )


@pytest.fixture(scope="module")
def uniform_pmf(space):
    return np.full(space.n_cells, 1.0 / space.n_cells)


class TestLatticeBlockMass:
    def test_whole_domain_mass_one(self, space, uniform_pmf):
        mass = LatticeBlockMass(space, uniform_pmf)
        assert mass.rectangle_mass(space.domain()) == pytest.approx(1.0)

    def test_matches_explicit_sum(self, space, uniform_pmf, rng):
        """Inclusion-exclusion equals a brute per-cell containment sum."""
        mass = LatticeBlockMass(space, uniform_pmf)
        for _ in range(50):
            lo = rng.uniform(-2, 7, size=2)
            hi = lo + rng.uniform(0, 8, size=2)
            rect = Rectangle.from_bounds(lo, hi)
            expected = sum(
                uniform_pmf[c]
                for c in range(space.n_cells)
                if rect.contains_rectangle(space.cell_rectangle(c))
            )
            assert mass.rectangle_mass(rect) == pytest.approx(expected)

    def test_partial_cells_excluded(self, space, uniform_pmf):
        """Cells only partly inside contribute nothing (no-loss rule)."""
        mass = LatticeBlockMass(space, uniform_pmf)
        # (0.5, 2.5] x (-1, 7] fully contains only the x-cell (1,2] => x=2
        rect = Rectangle.from_bounds((0.5, -1), (2.5, 7))
        assert mass.rectangle_mass(rect) == pytest.approx(8 / 64)

    def test_empty_rectangle(self, space, uniform_pmf):
        mass = LatticeBlockMass(space, uniform_pmf)
        assert mass.rectangle_mass(Rectangle.empty(2)) == 0.0

    def test_nonuniform_pmf(self, space):
        pmf = np.zeros(space.n_cells)
        pmf[locate(space, (3, 3))] = 0.75
        pmf[locate(space, (6, 6))] = 0.25
        mass = LatticeBlockMass(space, pmf)
        around_33 = Rectangle.from_bounds((2, 2), (4, 4))
        assert mass.rectangle_mass(around_33) == pytest.approx(0.75)

    def test_shape_validation(self, space):
        with pytest.raises(ValueError):
            LatticeBlockMass(space, np.ones(5))


class TestNoLossAlgorithm:
    def fit(self, subs, pmf, k, **kwargs):
        algo = NoLossAlgorithm(
            n_keep=kwargs.pop("n_keep", 200),
            iterations=kwargs.pop("iterations", 3),
        )
        return algo.fit(subs, pmf, k, rng=np.random.default_rng(0))

    def test_no_loss_guarantee(self, space, subs, uniform_pmf):
        """THE defining property: every member of a matched group is
        interested in every event the region can contain."""
        result = self.fit(subs, uniform_pmf, 10)
        for cell in range(space.n_cells):
            point = space.cell_value(cell)
            region = result.match(point)
            if region < 0:
                continue
            group = result.group_members[int(result.group_of[region])]
            interested = set(subs.interested_subscribers(point))
            assert set(group) <= interested

    def test_members_contain_region(self, subs, uniform_pmf):
        """u(s) is exactly the subscribers whose rectangle contains s."""
        result = self.fit(subs, uniform_pmf, 10)
        los, his = subs.bounds()
        for r in range(len(result)):
            expected = set()
            for i in range(len(subs)):
                if np.all(los[i] <= result.los[r]) and np.all(
                    result.his[r] <= his[i]
                ):
                    expected.add(subs.subscriptions[i].subscriber)
            assert set(result.members[r]) == expected

    def test_weights_sorted_descending(self, subs, uniform_pmf):
        result = self.fit(subs, uniform_pmf, 10)
        assert (np.diff(result.weights) <= 1e-12).all()

    def test_weights_are_mass_times_members(self, space, subs, uniform_pmf):
        result = self.fit(subs, uniform_pmf, 10)
        mass = LatticeBlockMass(space, uniform_pmf)
        for r in range(len(result)):
            expected = mass.rectangle_mass(result.rectangle(r)) * len(
                result.members[r]
            )
            assert result.weights[r] == pytest.approx(expected)

    def test_group_budget_respected(self, subs, uniform_pmf):
        for k in (1, 3, 5):
            result = self.fit(subs, uniform_pmf, k)
            assert result.n_groups <= k

    def test_groups_are_distinct_member_sets(self, subs, uniform_pmf):
        result = self.fit(subs, uniform_pmf, 5)
        keys = {tuple(g.tolist()) for g in result.group_members}
        assert len(keys) == result.n_groups

    def test_regions_map_to_groups(self, subs, uniform_pmf):
        result = self.fit(subs, uniform_pmf, 5)
        for r in range(len(result)):
            g = int(result.group_of[r])
            np.testing.assert_array_equal(
                result.members[r], result.group_members[g]
            )

    def test_match_prefers_heaviest(self, subs, uniform_pmf):
        result = self.fit(subs, uniform_pmf, 10)
        point = (3, 3)
        region = result.match(point)
        if region >= 0:
            for r in range(region):
                assert not result.rectangle(r).contains(point)

    def test_intersections_found(self, space, subs, uniform_pmf):
        """The algorithm discovers regions richer than any single
        subscription: the core overlap has more members than any one
        original rectangle's containment count."""
        result = self.fit(subs, uniform_pmf, 20)
        best = max(len(m) for m in result.members)
        assert best >= 3  # e.g. the (2,4]^2 core is inside subs 0,1,2,3

    def test_more_iterations_never_lose_weight(self, subs, uniform_pmf):
        """The heaviest retained weight is monotone in iterations."""
        w0 = self.fit(subs, uniform_pmf, 10, iterations=0).weights[0]
        w3 = self.fit(subs, uniform_pmf, 10, iterations=3).weights[0]
        assert w3 >= w0 - 1e-12

    def test_zero_mass_pmf_raises(self, space, subs):
        pmf = np.zeros(space.n_cells)
        pmf[locate(space, (7, 0))] = 1.0  # nobody subscribes there... but
        # some wildcard-ish rows may still cover it; build a pmf fully
        # outside every subscription instead
        outside = np.zeros(space.n_cells)
        outside[locate(space, (7, 0))] = 1.0
        covered = any(
            subs.interested_subscribers(space.cell_value(c)).size
            and outside[c] > 0
            for c in range(space.n_cells)
        )
        if covered:
            pytest.skip("pmf cell unexpectedly covered")
        with pytest.raises(ValueError):
            NoLossAlgorithm(n_keep=50, iterations=1).fit(
                subs, outside, 3, rng=np.random.default_rng(0)
            )

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NoLossAlgorithm(n_keep=0)
        with pytest.raises(ValueError):
            NoLossAlgorithm(iterations=-1)
        with pytest.raises(ValueError):
            NoLossAlgorithm(pair_budget=0)

    def test_n_keep_truncates(self, subs, uniform_pmf):
        result = self.fit(subs, uniform_pmf, 100, n_keep=5)
        assert len(result) <= 5
