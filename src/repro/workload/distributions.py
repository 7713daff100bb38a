"""Probability distributions used by the workload generators.

The paper's subscription and publication models (sections 3 and 5.1) draw
on Zipf-like popularity laws, Pareto-like interval lengths, (truncated)
normals, and per-dimension Gaussian mixtures.  Everything here consumes an
explicit ``numpy.random.Generator`` so experiments are reproducible from a
single seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Dimension, Interval

__all__ = [
    "ZipfLike",
    "ParetoLength",
    "GaussianMixture1D",
    "UniformLattice",
    "IntervalDistribution",
    "normal_cdf",
]


def normal_cdf(x: float, mu: float, sigma: float) -> float:
    """CDF of the normal distribution (via ``math.erf``; no scipy)."""
    if sigma <= 0:
        return 1.0 if x >= mu else 0.0
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))


class ZipfLike:
    """Zipf-like distribution over ranks ``0 .. n-1``.

    Rank ``i`` has weight ``1 / (i+1)^exponent``, normalised.  The paper
    uses Zipf-like laws for the number of subscriptions per stub, the
    placement of subscriptions within a stub, and the lengths of the
    stock-name intervals.
    """

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        if n < 1:
            raise ValueError("ZipfLike needs at least one rank")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self.n = n
        self.exponent = exponent
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), exponent)
        self.probabilities = weights / weights.sum()

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw rank(s) according to the Zipf-like weights.

        Returns a plain ``int`` for ``size=None`` and an integer array
        otherwise — the scalar path is normalised so callers don't have
        to rely on implicit coercion of a 0-d numpy scalar.
        """
        ranks = rng.choice(self.n, size=size, p=self.probabilities)
        if size is None:
            return int(ranks)
        return ranks

    def split(self, total: int, rng: np.random.Generator) -> np.ndarray:
        """Split ``total`` items over the ranks (multinomial draw)."""
        if total < 0:
            raise ValueError("total must be non-negative")
        return rng.multinomial(total, self.probabilities)


@dataclass(frozen=True)
class ParetoLength:
    """Classic Pareto interval length, truncated to the attribute domain.

    Section 5.1 gives the interval-length parameters as ``(c, alpha)``
    (4, 1 for both price and volume): a classic Pareto law with scale
    ``c`` (the minimum length) and shape ``alpha``, i.e.
    ``L = c * U^(-1/alpha)`` for ``U ~ Uniform(0, 1]``.  With
    ``alpha = 1`` the untruncated mean diverges, so samples are capped at
    ``max_length`` (the attribute domains are only 21 wide); the
    truncated mean is then ``c * (1 + ln(max_length / c))``.
    """

    scale: float = 4.0
    shape: float = 1.0
    max_length: float = 21.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale (minimum length) must be positive")
        if self.shape <= 0:
            raise ValueError("shape must be positive")
        if self.max_length < self.scale:
            raise ValueError("max_length must be at least the scale")

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw interval length(s), capped at ``max_length``.

        Returns a plain ``float`` for ``size=None`` and a float array
        otherwise — the scalar path is normalised so callers don't have
        to rely on implicit coercion of a 0-d numpy scalar.
        """
        u = rng.random(size) if size is not None else rng.random()
        u = np.maximum(u, 1e-12)  # guard the U=0 pole
        raw = self.scale * np.power(u, -1.0 / self.shape)
        capped = np.minimum(raw, self.max_length)
        if size is None:
            return float(capped)
        return capped


class GaussianMixture1D:
    """A one-dimensional mixture of normal components.

    Used both for the per-dimension publication distributions of section
    5.1 (1-, 4- and 9-mode mixtures are products of these) and the
    gaussian event model of section 3.
    """

    def __init__(
        self, components: Sequence[Tuple[float, float, float]]
    ) -> None:
        """``components`` is a sequence of ``(weight, mu, sigma)``."""
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = np.array([w for w, _, _ in components], dtype=np.float64)
        if np.any(weights < 0):
            raise ValueError("component weights must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("component weights must not all be zero")
        self.weights = weights / total
        self.mus = np.array([mu for _, mu, _ in components], dtype=np.float64)
        self.sigmas = np.array(
            [sigma for _, _, sigma in components], dtype=np.float64
        )
        if np.any(self.sigmas <= 0):
            raise ValueError("component sigmas must be positive")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @staticmethod
    def single(mu: float, sigma: float) -> "GaussianMixture1D":
        return GaussianMixture1D([(1.0, mu, sigma)])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw continuous samples from the mixture."""
        which = rng.choice(self.n_components, size=size, p=self.weights)
        return rng.normal(self.mus[which], self.sigmas[which])

    def lattice_pmf(self, dimension: Dimension) -> np.ndarray:
        """Probability of each lattice value after round-and-clip.

        A continuous sample ``x`` is rounded to the nearest integer and
        clipped into ``[lo, hi]``, so value ``v`` strictly inside the
        domain receives the mass of ``(v-0.5, v+0.5]`` and the two edge
        values absorb the corresponding tails.
        """
        values = np.arange(dimension.lo, dimension.hi + 1)
        pmf = np.zeros(len(values), dtype=np.float64)
        for weight, mu, sigma in zip(self.weights, self.mus, self.sigmas):
            for i, v in enumerate(values):
                lo = -math.inf if v == dimension.lo else v - 0.5
                hi = math.inf if v == dimension.hi else v + 0.5
                lo_cdf = 0.0 if lo == -math.inf else normal_cdf(lo, mu, sigma)
                hi_cdf = 1.0 if hi == math.inf else normal_cdf(hi, mu, sigma)
                pmf[i] += weight * (hi_cdf - lo_cdf)
        # numerical safety: the per-component masses already sum to one,
        # renormalise to absorb float error
        return pmf / pmf.sum()


class UniformLattice:
    """Uniform distribution over a dimension's lattice values."""

    def sample(
        self, rng: np.random.Generator, dimension: Dimension, size: int
    ) -> np.ndarray:
        return rng.integers(dimension.lo, dimension.hi + 1, size=size)

    def lattice_pmf(self, dimension: Dimension) -> np.ndarray:
        n = dimension.n_cells
        return np.full(n, 1.0 / n, dtype=np.float64)


@dataclass(frozen=True)
class IntervalDistribution:
    """The paper's parametric distribution over preference intervals.

    With probability ``q0`` the preference is a wildcard ``(-inf, +inf)``;
    with ``q1`` it is right-unbounded ``(n, +inf)`` with ``n ~ N(mu1,s1)``;
    with ``q2`` it is left-unbounded ``(-inf, n]`` with ``n ~ N(mu2,s2)``;
    otherwise it is a bounded interval whose centre is ``N(mu3, s3)`` and
    whose length follows the Pareto-like law.
    """

    q0: float
    q1: float
    q2: float
    mu1: float
    sigma1: float
    mu2: float
    sigma2: float
    mu3: float
    sigma3: float
    length: ParetoLength

    def __post_init__(self) -> None:
        for q in (self.q0, self.q1, self.q2):
            if not 0.0 <= q <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if self.q0 + self.q1 + self.q2 > 1.0 + 1e-12:
            raise ValueError("q0 + q1 + q2 must not exceed 1")

    def sample(self, rng: np.random.Generator) -> Interval:
        """Draw one preference interval."""
        u = rng.random()
        if u < self.q0:
            return Interval.full()
        if u < self.q0 + self.q1:
            return Interval.greater_than(rng.normal(self.mu1, self.sigma1))
        if u < self.q0 + self.q1 + self.q2:
            return Interval.at_most(rng.normal(self.mu2, self.sigma2))
        center = rng.normal(self.mu3, self.sigma3)
        half = 0.5 * float(self.length.sample(rng))
        return Interval.make(center - half, center + half)
