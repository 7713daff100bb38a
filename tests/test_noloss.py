"""Unit tests for the No-Loss algorithm (section 4.5)."""

import numpy as np
import pytest

from repro.clustering import LatticeBlockMass, NoLossAlgorithm, noloss
from repro.geometry import Dimension, EventSpace, Interval, Rectangle
from repro.matching import NoLossMatcher

from tests.helpers import (
    block_mass,
    cell_rectangle,
    cell_value,
    contains_rectangle,
    locate,
    make_subscription_set,
    noloss_match,
    noloss_score_reference,
    rectangle_mass,
    region_rectangle,
)


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
        assert block_mass(mass, space.domain()) == pytest.approx(1.0)

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
                if contains_rectangle(rect, cell_rectangle(space, c))
            )
            assert block_mass(mass, rect) == pytest.approx(expected)

    def test_partial_cells_excluded(self, space, uniform_pmf):
        """Cells only partly inside contribute nothing (no-loss rule)."""
        mass = LatticeBlockMass(space, uniform_pmf)
        # (0.5, 2.5] x (-1, 7] fully contains only the x-cell (1,2] => x=2
        rect = Rectangle.from_bounds((0.5, -1), (2.5, 7))
        assert block_mass(mass, rect) == pytest.approx(8 / 64)

    def test_empty_rectangle(self, space, uniform_pmf):
        mass = LatticeBlockMass(space, uniform_pmf)
        assert block_mass(mass, Rectangle.empty(2)) == 0.0

    def test_nonuniform_pmf(self, space):
        pmf = np.zeros(space.n_cells)
        pmf[locate(space, (3, 3))] = 0.75
        pmf[locate(space, (6, 6))] = 0.25
        mass = LatticeBlockMass(space, pmf)
        around_33 = Rectangle.from_bounds((2, 2), (4, 4))
        assert block_mass(mass, around_33) == pytest.approx(0.75)

    def test_shape_validation(self, space):
        with pytest.raises(ValueError):
            LatticeBlockMass(space, np.ones(5))

    def test_unbounded_sides_clip_to_the_domain(self, space, uniform_pmf):
        mass = LatticeBlockMass(space, uniform_pmf)
        masses = mass.masses(
            [[-np.inf, -np.inf], [3.0, -np.inf]],
            [[np.inf, np.inf], [np.inf, 1.0]],
        )
        assert masses[0] == pytest.approx(1.0)
        assert masses[1] == pytest.approx(4 * 2 / 64)

    def test_batch_bit_identical_to_one_at_a_time(self, rng):
        """Every batched mass equals the per-rectangle inclusion-exclusion
        (corners in mask order) bit for bit, empty rectangles included."""
        space = EventSpace(
            [Dimension(name, 0, 6) for name in ("a", "b", "c", "d")]
        )
        pmf = rng.random(space.n_cells) ** 3
        pmf /= pmf.sum()
        mass = LatticeBlockMass(space, pmf)
        los = rng.uniform(-2, 7, size=(400, 4))
        his = los + rng.uniform(-0.5, 6, size=(400, 4))
        got = mass.masses(los, his)
        expected = [
            rectangle_mass(mass, Rectangle.from_bounds(lo, hi))
            for lo, hi in zip(los, his)
        ]
        assert (got == 0.0).any() and (got > 0.0).any()
        assert got.tobytes() == np.array(expected).tobytes()


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
            point = cell_value(space, cell)
            region = noloss_match(result, point)
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
            expected = block_mass(mass, region_rectangle(result, r)) * len(
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
        (region,) = NoLossMatcher(result, subs).regions_of([point])
        assert region == noloss_match(result, point)
        if region >= 0:
            for r in range(region):
                assert not region_rectangle(result, r).contains(point)

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
            subs.interested_subscribers(cell_value(space, c)).size
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


def _scoring_case(seed):
    """Subscriptions (some with unbounded sides) on a 3-d lattice whose
    pmf is zero on half the cells, and candidate regions: some empty,
    some in the zero-mass half, some matched by nobody."""
    rng = np.random.default_rng(seed)
    space = EventSpace([Dimension(name, 0, 7) for name in ("x", "y", "z")])
    specs = []
    for k in range(60):
        lo = rng.uniform(-1, 5, size=3)
        hi = lo + rng.uniform(0.5, 5, size=3)
        lo[rng.random(3) < 0.15] = -np.inf
        hi[rng.random(3) < 0.15] = np.inf
        specs.append((int(rng.integers(0, 40)), list(zip(lo, hi))))
    subs = make_subscription_set(space, specs)
    pmf = rng.random(space.n_cells) ** 2
    pmf[space.n_cells // 2:] = 0.0
    pmf /= pmf.sum()
    los = rng.uniform(-1, 6, size=(700, 3))
    his = los + rng.uniform(-0.3, 4, size=(700, 3))
    return space, subs, pmf, los, his


class TestBatchedScoring:
    """``NoLossAlgorithm._score`` against the per-candidate loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("block_bytes", [None, 3000])
    def test_score_identical_to_per_candidate_loop(
        self, seed, block_bytes, monkeypatch
    ):
        if block_bytes is not None:  # several blocks, a ragged last one
            monkeypatch.setattr(noloss, "_BLOCK_BYTES", block_bytes)
        space, subs, pmf, los, his = _scoring_case(seed)
        mass = LatticeBlockMass(space, pmf)
        algorithm = NoLossAlgorithm(n_keep=500)
        sub_los, sub_his = subs.bounds()
        owners = np.array(
            [s.subscriber for s in subs.subscriptions], dtype=np.int64
        )
        got = algorithm._score(los, his, sub_los, sub_his, owners, mass)
        expected = noloss_score_reference(algorithm, los, his, subs, mass)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        assert got[2].tobytes() == expected[2].tobytes()
        assert len(got[3]) == len(expected[3])
        for ours, theirs in zip(got[3], expected[3]):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    def test_case_has_zero_weight_candidates(self):
        """The case above exercises the zero-mass and no-member paths."""
        space, subs, pmf, los, his = _scoring_case(0)
        mass = LatticeBlockMass(space, pmf)
        masses = mass.masses(los, his)
        assert (masses == 0.0).sum() > 50
        assert np.any(np.isinf(subs.bounds()[0]))
        kept = noloss_score_reference(
            NoLossAlgorithm(n_keep=10**6), los, his, subs, mass
        )
        assert 0 < len(kept[2]) < len(los)


class TestDedupe:
    def test_keeps_first_occurrences_as_np_unique_does(self):
        """``_dedupe`` (one stable lexsort) keeps exactly the rows the
        ``np.unique(axis=0, return_index=True)`` reference keeps, in row
        order: rounding to 9 decimals, ``-0.0 == 0.0`` and infinite
        bounds included."""
        rng = np.random.default_rng(8)
        values = np.array(
            [-np.inf, np.inf, -0.0, 0.0, 1.0, 1.0 + 1e-12, 2.5, 3.0]
        )
        for trial in range(200):
            n, d = int(rng.integers(0, 60)), int(rng.integers(1, 5))
            los = rng.choice(values, (n, d))
            his = rng.choice(values, (n, d))
            stacked = np.round(np.concatenate([los, his], axis=1), 9)
            _, keep = np.unique(stacked, axis=0, return_index=True)
            keep.sort()
            got_los, got_his = NoLossAlgorithm._dedupe(los, his)
            assert got_los.tobytes() == los[keep].tobytes(), trial
            assert got_his.tobytes() == his[keep].tobytes(), trial
