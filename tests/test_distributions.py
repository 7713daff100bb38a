"""Unit tests for the workload distributions."""

import math

import numpy as np
import pytest

from repro.geometry import Dimension
from repro.workload import (
    GaussianMixture1D,
    IntervalDistribution,
    ParetoLength,
    UniformLattice,
    ZipfLike,
    normal_cdf,
)

from tests.helpers import pareto_truncated_mean


class TestNormalCdf:
    def test_median(self):
        assert normal_cdf(5.0, 5.0, 2.0) == pytest.approx(0.5)

    def test_monotone(self):
        values = [normal_cdf(x, 0.0, 1.0) for x in (-3, -1, 0, 1, 3)]
        assert values == sorted(values)

    def test_against_scipy(self):
        from scipy.stats import norm

        for x, mu, sigma in [(0, 0, 1), (2.5, 1.0, 0.7), (-4, 2, 3)]:
            assert normal_cdf(x, mu, sigma) == pytest.approx(
                norm.cdf(x, mu, sigma)
            )

    def test_degenerate_sigma(self):
        assert normal_cdf(1.0, 0.0, 0.0) == 1.0
        assert normal_cdf(-1.0, 0.0, 0.0) == 0.0


class TestZipfLike:
    def test_probabilities_normalised(self):
        z = ZipfLike(10, 1.0)
        assert z.probabilities.sum() == pytest.approx(1.0)

    def test_weights_decay_as_power_law(self):
        z = ZipfLike(4, 1.0)
        ratios = z.probabilities[:-1] / z.probabilities[1:]
        np.testing.assert_allclose(ratios, [2 / 1, 3 / 2, 4 / 3])

    def test_exponent_zero_is_uniform(self):
        z = ZipfLike(5, 0.0)
        np.testing.assert_allclose(z.probabilities, 0.2)

    def test_sampling_respects_ranks(self, rng):
        z = ZipfLike(6, 1.5)
        samples = z.sample(rng, size=5000)
        counts = np.bincount(samples, minlength=6)
        assert counts[0] > counts[2] > counts[5]

    def test_split_conserves_total(self, rng):
        z = ZipfLike(7, 1.0)
        split = z.split(1000, rng)
        assert split.sum() == 1000
        assert len(split) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfLike(0)
        with pytest.raises(ValueError):
            ZipfLike(3, -1.0)
        with pytest.raises(ValueError):
            ZipfLike(3).split(-5, np.random.default_rng(0))


class TestParetoLength:
    def test_minimum_length_is_scale(self, rng):
        lengths = ParetoLength(scale=4.0, shape=1.0).sample(rng, size=2000)
        assert np.all(lengths >= 4.0)

    def test_capped(self, rng):
        lengths = ParetoLength(scale=4.0, max_length=10.0).sample(
            rng, size=2000
        )
        assert np.all(lengths <= 10.0)

    def test_empirical_mean_matches_truncated_mean(self, rng):
        dist = ParetoLength(scale=4.0, shape=1.0, max_length=21.0)
        lengths = dist.sample(rng, size=50000)
        assert lengths.mean() == pytest.approx(pareto_truncated_mean(dist), rel=0.03)

    def test_truncated_mean_alpha1_formula(self):
        dist = ParetoLength(scale=4.0, shape=1.0, max_length=21.0)
        c, m = 4.0, 21.0
        expected = c * math.log(m / c) + m * (c / m)
        assert pareto_truncated_mean(dist) == pytest.approx(expected)

    def test_truncated_mean_general_shape(self, rng):
        dist = ParetoLength(scale=2.0, shape=2.5, max_length=30.0)
        lengths = dist.sample(rng, size=50000)
        assert lengths.mean() == pytest.approx(pareto_truncated_mean(dist), rel=0.03)

    def test_cap_equal_scale_is_constant(self, rng):
        lengths = ParetoLength(scale=5.0, max_length=5.0).sample(rng, size=50)
        np.testing.assert_allclose(lengths, 5.0)

    def test_heavy_tail(self, rng):
        """Shape 1 is heavy-tailed: the cap is hit regularly."""
        lengths = ParetoLength(scale=4.0, shape=1.0, max_length=21.0).sample(
            rng, size=20000
        )
        assert (lengths == 21.0).mean() > 0.1

    def test_scalar_sample(self, rng):
        value = ParetoLength(scale=4.0).sample(rng)
        assert np.isscalar(value) or value.shape == ()
        assert 4.0 <= float(value) <= 21.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParetoLength(scale=0.0)
        with pytest.raises(ValueError):
            ParetoLength(scale=2.0, shape=0.0)
        with pytest.raises(ValueError):
            ParetoLength(scale=5.0, max_length=2.0)


class TestGaussianMixture:
    def test_single_component_stats(self, rng):
        m = GaussianMixture1D.single(10.0, 2.0)
        samples = m.sample(rng, 20000)
        assert samples.mean() == pytest.approx(10.0, abs=0.1)
        assert samples.std() == pytest.approx(2.0, abs=0.1)

    def test_mixture_is_bimodal(self, rng):
        m = GaussianMixture1D([(0.5, 0.0, 0.5), (0.5, 10.0, 0.5)])
        samples = m.sample(rng, 10000)
        near_zero = np.abs(samples) < 2
        near_ten = np.abs(samples - 10) < 2
        assert near_zero.mean() == pytest.approx(0.5, abs=0.05)
        assert near_ten.mean() == pytest.approx(0.5, abs=0.05)

    def test_weights_normalised(self):
        m = GaussianMixture1D([(2.0, 0, 1), (2.0, 5, 1)])
        np.testing.assert_allclose(m.weights, 0.5)

    def test_lattice_pmf_sums_to_one(self):
        dim = Dimension("attr", 0, 20)
        pmf = GaussianMixture1D.single(9.0, 2.0).lattice_pmf(dim)
        assert pmf.sum() == pytest.approx(1.0)
        assert len(pmf) == 21

    def test_lattice_pmf_matches_empirical(self, rng):
        """Analytic round-and-clip pmf agrees with simulation."""
        dim = Dimension("attr", 0, 10)
        mix = GaussianMixture1D([(0.6, 3.0, 1.5), (0.4, 8.0, 1.0)])
        pmf = mix.lattice_pmf(dim)
        samples = np.clip(np.rint(mix.sample(rng, 200000)), 0, 10).astype(int)
        empirical = np.bincount(samples, minlength=11) / len(samples)
        np.testing.assert_allclose(pmf, empirical, atol=0.01)

    def test_edge_values_absorb_tails(self):
        dim = Dimension("attr", 0, 4)
        pmf = GaussianMixture1D.single(-5.0, 1.0).lattice_pmf(dim)
        assert pmf[0] > 0.99  # nearly all mass clipped to the lower edge

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture1D([])
        with pytest.raises(ValueError):
            GaussianMixture1D([(1.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            GaussianMixture1D([(-1.0, 0.0, 1.0)])
        with pytest.raises(ValueError):
            GaussianMixture1D([(0.0, 0.0, 1.0)])


class TestUniformLattice:
    def test_pmf(self):
        dim = Dimension("attr", 0, 20)
        pmf = UniformLattice().lattice_pmf(dim)
        np.testing.assert_allclose(pmf, 1.0 / 21)

    def test_samples_in_domain(self, rng):
        dim = Dimension("attr", 3, 9)
        samples = UniformLattice().sample(rng, dim, 1000)
        assert samples.min() >= 3 and samples.max() <= 9


class TestIntervalDistribution:
    def make(self, q0=0.2, q1=0.2, q2=0.2):
        return IntervalDistribution(
            q0=q0, q1=q1, q2=q2,
            mu1=9, sigma1=1, mu2=9, sigma2=1, mu3=9, sigma3=2,
            length=ParetoLength(scale=4.0, shape=1.0),
        )

    def test_case_frequencies(self, rng):
        dist = self.make()
        kinds = {"full": 0, "left": 0, "right": 0, "bounded": 0}
        for _ in range(4000):
            iv = dist.sample(rng)
            if iv.is_full:
                kinds["full"] += 1
            elif iv.hi == math.inf:
                kinds["left"] += 1
            elif iv.lo == -math.inf:
                kinds["right"] += 1
            else:
                kinds["bounded"] += 1
        assert kinds["full"] / 4000 == pytest.approx(0.2, abs=0.03)
        assert kinds["left"] / 4000 == pytest.approx(0.2, abs=0.03)
        assert kinds["right"] / 4000 == pytest.approx(0.2, abs=0.03)
        assert kinds["bounded"] / 4000 == pytest.approx(0.4, abs=0.03)

    def test_bounded_intervals_centered(self, rng):
        dist = self.make(q0=0, q1=0, q2=0)
        centers = []
        for _ in range(3000):
            iv = dist.sample(rng)
            assert iv.bounded and not iv.is_empty
            centers.append(0.5 * (iv.lo + iv.hi))
        assert np.mean(centers) == pytest.approx(9.0, abs=0.2)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            self.make(q0=0.5, q1=0.4, q2=0.3)
        with pytest.raises(ValueError):
            self.make(q0=-0.1)


class TestScalarSampleTypes:
    """``size=None`` draws are plain Python scalars, not 0-d arrays.

    0-d numpy scalars silently type-pollute downstream records (JSON
    export, dataclass fields); the API contract is: no ``size`` → native
    ``int``/``float``, explicit ``size`` → ndarray.
    """

    def test_zipf_scalar_is_int(self, rng):
        value = ZipfLike(6, 1.0).sample(rng)
        assert type(value) is int
        assert 0 <= value < 6

    def test_pareto_scalar_is_float(self, rng):
        value = ParetoLength(scale=4.0).sample(rng)
        assert type(value) is float
        assert value >= 4.0

    def test_sized_draws_stay_arrays(self, rng):
        ranks = ZipfLike(6, 1.0).sample(rng, size=5)
        lengths = ParetoLength(scale=4.0).sample(rng, size=5)
        assert isinstance(ranks, np.ndarray) and ranks.shape == (5,)
        assert isinstance(lengths, np.ndarray) and lengths.shape == (5,)

    def test_size_one_is_still_an_array(self, rng):
        assert ZipfLike(3).sample(rng, size=1).shape == (1,)
        assert ParetoLength(scale=2.0).sample(rng, size=1).shape == (1,)

    def test_scalar_draws_are_json_serialisable(self, rng):
        import json

        payload = {
            "rank": ZipfLike(6, 1.0).sample(rng),
            "length": ParetoLength(scale=4.0).sample(rng),
        }
        assert json.loads(json.dumps(payload)) == payload
