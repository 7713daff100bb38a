"""Unit tests for the subscription models and SubscriptionSet."""

import math

import numpy as np
import pytest

from repro.geometry import Dimension, EventSpace, Interval, Rectangle
from repro.workload import (
    EvaluationSubscriptionModel,
    PreliminarySubscriptionModel,
    Subscription,
    SubscriptionSet,
)

from tests.helpers import make_subscription_set


class TestSubscriptionSet:
    @pytest.fixture
    def space(self):
        return EventSpace([Dimension("x", 0, 9), Dimension("y", 0, 9)])

    @pytest.fixture
    def subs(self, space):
        return make_subscription_set(
            space,
            [
                (0, [(0, 5), (0, 5)]),
                (1, [(3, 8), (3, 8)]),
                (2, [(-math.inf, math.inf), (0, 2)]),
            ],
        )

    def test_sizes(self, subs):
        assert len(subs) == 3
        assert subs.n_subscribers == 3

    def test_matching_subscriptions(self, subs):
        assert list(subs.matching_subscriptions((4, 4))) == [0, 1]
        assert list(subs.matching_subscriptions((1, 1))) == [0, 2]
        assert list(subs.matching_subscriptions((9, 9))) == []

    def test_half_open_matching(self, subs):
        # (0,5] in dim x: 0 excluded, 5 included
        assert 0 not in subs.matching_subscriptions((0, 1))
        assert 0 in subs.matching_subscriptions((5, 5))

    def test_interested_subscribers_unique(self, space):
        """A subscriber with two matching rectangles appears once."""
        subs = SubscriptionSet(
            space,
            [
                Subscription(0, 0, Rectangle.from_bounds((0, 0), (5, 5))),
                Subscription(0, 0, Rectangle.from_bounds((2, 2), (7, 7))),
                Subscription(1, 1, Rectangle.from_bounds((0, 0), (9, 9))),
            ],
        )
        assert list(subs.interested_subscribers((4, 4))) == [0, 1]

    def test_interested_nodes(self, subs):
        interested = subs.interested_subscribers((1, 1))
        assert list(subs.nodes_of_subscribers(interested)) == [0, 2]

    def test_nodes_of_subscribers(self, subs):
        assert list(subs.nodes_of_subscribers([0, 2])) == [0, 2]
        assert len(subs.nodes_of_subscribers([])) == 0

    def test_subscriber_two_nodes_rejected(self, space):
        with pytest.raises(ValueError):
            SubscriptionSet(
                space,
                [
                    Subscription(0, 0, Rectangle.full(2)),
                    Subscription(0, 1, Rectangle.full(2)),
                ],
            )

    def test_gap_in_subscriber_ids_rejected(self, space):
        with pytest.raises(ValueError):
            SubscriptionSet(
                space, [Subscription(1, 0, Rectangle.full(2))]
            )

    def test_empty_rejected(self, space):
        with pytest.raises(ValueError):
            SubscriptionSet(space, [])

    def test_dimension_mismatch_rejected(self, space):
        with pytest.raises(ValueError):
            SubscriptionSet(
                space, [Subscription(0, 0, Rectangle.full(3))]
            )

    def test_bounds_matrices(self, subs):
        los, his = subs.bounds()
        assert los.shape == (3, 2)
        assert los[2, 0] == -math.inf
        assert his[2, 0] == math.inf


class TestPreliminaryModel:
    def test_generates_requested_count(self, small_topology, rng):
        model = PreliminarySubscriptionModel(small_topology)
        subs = model.generate(rng, 50)
        assert len(subs) == 50
        assert subs.n_subscribers == 50

    def test_subscribers_on_stub_nodes(self, small_topology, rng):
        model = PreliminarySubscriptionModel(small_topology)
        subs = model.generate(rng, 50)
        stub_nodes = set(small_topology.stub_nodes())
        for sub in subs.subscriptions:
            assert sub.node in stub_nodes

    def test_full_regionalism_pins_own_stub(self, small_topology, rng):
        model = PreliminarySubscriptionModel(small_topology, regionalism=1.0)
        subs = model.generate(rng, 40)
        for sub in subs.subscriptions:
            side = sub.rectangle.sides[0]
            stub = small_topology.stub_of[sub.node]
            assert side.contains(stub)
            assert side.length == 1.0  # equality predicate on the lattice

    def test_zero_regionalism_all_wildcards(self, small_topology, rng):
        model = PreliminarySubscriptionModel(small_topology, regionalism=0.0)
        subs = model.generate(rng, 40)
        for sub in subs.subscriptions:
            assert sub.rectangle.sides[0].is_full

    def test_uniform_wildcard_rates(self, small_topology):
        """Attributes 2-4 specified with probs 0.98, 0.98*0.78, 0.98*0.78^2."""
        model = PreliminarySubscriptionModel(small_topology, variant="uniform")
        subs = model.generate(np.random.default_rng(0), 3000)
        rates = []
        for d in (1, 2, 3):
            specified = sum(
                1
                for s in subs.subscriptions
                if not s.rectangle.sides[d].is_full
            )
            rates.append(specified / len(subs))
        assert rates[0] == pytest.approx(0.98, abs=0.02)
        assert rates[1] == pytest.approx(0.98 * 0.78, abs=0.03)
        assert rates[2] == pytest.approx(0.98 * 0.78**2, abs=0.03)

    def test_uniform_intervals_cover_lattice_range(self, small_topology, rng):
        model = PreliminarySubscriptionModel(small_topology, variant="uniform")
        subs = model.generate(rng, 200)
        for sub in subs.subscriptions:
            for side in sub.rectangle.sides[1:]:
                if side.is_full:
                    continue
                assert side.lo >= -1.0
                assert side.hi <= 20.0
                assert not side.is_empty

    def test_gaussian_variant_one_sided_intervals(self, small_topology):
        model = PreliminarySubscriptionModel(
            small_topology, variant="gaussian"
        )
        subs = model.generate(np.random.default_rng(1), 2000)
        # attributes 3 and 4 allow one-sided intervals (q2 = q3 = 0.1)
        one_sided = 0
        for sub in subs.subscriptions:
            for side in sub.rectangle.sides[2:]:
                unbounded_one_end = (
                    side.lo == -math.inf or side.hi == math.inf
                ) and not side.is_full
                one_sided += unbounded_one_end
        assert one_sided > 0

    def test_gaussian_attr2_never_one_sided(self, small_topology):
        """Row 1 of the section 3 table has q2 = q3 = 0."""
        model = PreliminarySubscriptionModel(
            small_topology, variant="gaussian"
        )
        subs = model.generate(np.random.default_rng(2), 1000)
        for sub in subs.subscriptions:
            side = sub.rectangle.sides[1]
            assert side.is_full or side.bounded

    def test_invalid_variant(self, small_topology):
        with pytest.raises(ValueError):
            PreliminarySubscriptionModel(small_topology, variant="weird")
        with pytest.raises(ValueError):
            PreliminarySubscriptionModel(small_topology, regionalism=2.0)


class TestEvaluationModel:
    @pytest.fixture(scope="class")
    def subs(self, small_topology):
        model = EvaluationSubscriptionModel(small_topology)
        return model.generate(np.random.default_rng(9), 600)

    def test_count_and_space(self, subs):
        assert len(subs) == 600
        assert subs.space.n_dims == 4
        assert subs.space.dimensions[0].name == "bst"

    def test_bst_distribution(self, subs):
        """bst = B/S/T with probabilities 0.4/0.4/0.2."""
        counts = {0: 0, 1: 0, 2: 0}
        for sub in subs.subscriptions:
            side = sub.rectangle.sides[0]
            value = int(side.hi)
            assert side.length == 1.0
            counts[value] += 1
        total = sum(counts.values())
        assert counts[0] / total == pytest.approx(0.4, abs=0.06)
        assert counts[1] / total == pytest.approx(0.4, abs=0.06)
        assert counts[2] / total == pytest.approx(0.2, abs=0.06)

    def test_block_weights(self, small_topology):
        """Subscriptions split ~{40%, 30%, 30%} over transit blocks."""
        model = EvaluationSubscriptionModel(small_topology)
        subs = model.generate(np.random.default_rng(4), 3000)
        per_block = np.zeros(small_topology.n_transit_blocks)
        for sub in subs.subscriptions:
            per_block[small_topology.transit_block[sub.node]] += 1
        per_block /= per_block.sum()
        np.testing.assert_allclose(per_block, [0.4, 0.3, 0.3], atol=0.05)

    def test_name_centres_follow_block(self, small_topology):
        """Name interval centres cluster near 3/10/17 by transit block."""
        model = EvaluationSubscriptionModel(small_topology)
        subs = model.generate(np.random.default_rng(5), 3000)
        centers = {0: [], 1: [], 2: []}
        for sub in subs.subscriptions:
            block = small_topology.transit_block[sub.node]
            centers[block].append(sub.rectangle.sides[1].midpoint())
        for block, mean in zip(range(3), (3.0, 10.0, 17.0)):
            assert np.mean(centers[block]) == pytest.approx(mean, abs=0.5)

    def test_subscribers_on_stub_nodes(self, subs, small_topology):
        stub_nodes = set(small_topology.stub_nodes())
        for sub in subs.subscriptions:
            assert sub.node in stub_nodes

    def test_zipf_placement_is_skewed(self, subs):
        """Node placement should be heavily skewed (Zipf), not uniform."""
        counts = np.bincount(subs.subscriber_nodes)
        counts = counts[counts > 0]
        assert counts.max() >= 4 * np.median(counts)

    def test_volume_wildcards_more_common_than_quote(self, small_topology):
        """q0: 0.35 for volume vs 0.15 for quote."""
        model = EvaluationSubscriptionModel(small_topology)
        subs = model.generate(np.random.default_rng(6), 3000)
        quote_full = sum(
            s.rectangle.sides[2].is_full for s in subs.subscriptions
        )
        volume_full = sum(
            s.rectangle.sides[3].is_full for s in subs.subscriptions
        )
        assert volume_full > quote_full * 1.5


class TestBatchMatching:
    @pytest.fixture
    def space2(self):
        return EventSpace([Dimension("x", 0, 9), Dimension("y", 0, 9)])

    @pytest.fixture
    def subs2(self, space2):
        return make_subscription_set(
            space2,
            [
                (0, [(0, 5), (0, 5)]),
                (1, [(3, 8), (3, 8)]),
                (2, [(-math.inf, math.inf), (0, 2)]),
            ],
        )

    def test_matches_per_point_path(self, subs2, rng):
        points = rng.uniform(-1, 11, size=(40, 2))
        batch = subs2.batch_interested_subscribers(points)
        assert len(batch) == 40
        for point, got in zip(points, batch):
            np.testing.assert_array_equal(
                got, subs2.interested_subscribers(tuple(point))
            )

    def test_shape_validated(self, subs2):
        with pytest.raises(ValueError):
            subs2.batch_interested_subscribers([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            subs2.batch_interested_subscribers([1.0, 2.0])

    def test_empty_results_possible(self, subs2):
        batch = subs2.batch_interested_subscribers([[9.5, 9.5]])
        assert len(batch[0]) == 0
