"""Statistical estimates and the algebra used to compose them.

An :class:`Estimate` carries the expected value and the variance of an
estimator of a probability (paper Section 3.2).  The composition rules of the
paper become methods here:

* :meth:`Estimate.add_disjoint` — Equations (4)–(6), Theorem 1: the estimator
  of a disjunction of disjoint events; variances add as an upper bound.
* :meth:`Estimate.multiply_independent` — Equations (7)–(8): the estimator of
  a conjunction of independent events.
* :meth:`Estimate.scale` — the weighting step of stratified sampling,
  Equation (3).

A hit-or-miss estimate is a pure function of its integer counts
(:meth:`Estimate.from_hits`); resuming one is adding counts, so equal counts
give the same estimate however they were gathered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple


@dataclass(frozen=True)
class Estimate:
    """Expected value and variance of a probability estimator."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if math.isnan(self.mean) or math.isnan(self.variance):
            raise ValueError("estimate mean/variance may not be NaN")
        if self.variance < 0.0:
            # Tiny negative values can appear from floating-point cancellation
            # in the product rule; clamp them rather than reject them.
            object.__setattr__(self, "variance", 0.0)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zero() -> "Estimate":
        """The estimate of an impossible event (mean 0, variance 0)."""
        return Estimate(0.0, 0.0)

    @staticmethod
    def one() -> "Estimate":
        """The estimate of a certain event (mean 1, variance 0)."""
        return Estimate(1.0, 0.0)

    @staticmethod
    def exact(probability: float) -> "Estimate":
        """An exact probability (zero variance)."""
        return Estimate(probability, 0.0)

    @staticmethod
    def from_hits(hits: int, samples: int) -> "Estimate":
        """Hit-or-miss estimate from raw counts (paper Equation 2).

        ``samples`` must be positive; the variance is the binomial-proportion
        variance ``p (1 - p) / n``.
        """
        if samples <= 0:
            raise ValueError("sample count must be positive")
        if hits < 0 or hits > samples:
            raise ValueError(f"hit count {hits} outside [0, {samples}]")
        mean = hits / samples
        variance = mean * (1.0 - mean) / samples
        return Estimate(mean, variance)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def std(self) -> float:
        """Standard deviation (square root of the variance)."""
        return math.sqrt(self.variance)

    def chebyshev_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Interval containing the true value with at least ``confidence``.

        Uses Chebyshev's inequality, as suggested in the paper's Section 6.2
        discussion, so no distributional assumption is needed.  The interval is
        clipped to [0, 1] because the estimated quantity is a probability.
        """
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be strictly between 0 and 1")
        if self.variance == 0.0:
            return (self.mean, self.mean)
        k = 1.0 / math.sqrt(1.0 - confidence)
        radius = k * self.std
        return (max(0.0, self.mean - radius), min(1.0, self.mean + radius))

    def clamped(self) -> "Estimate":
        """Estimate with the mean clipped into [0, 1] (variance unchanged)."""
        return Estimate(min(1.0, max(0.0, self.mean)), self.variance)

    # ------------------------------------------------------------------ #
    # Composition rules
    # ------------------------------------------------------------------ #
    def scale(self, weight: float) -> "Estimate":
        """Estimate of ``weight * X`` — the per-stratum term of Equation (3)."""
        if weight < 0.0:
            raise ValueError("stratum weight must be non-negative")
        return Estimate(weight * self.mean, weight * weight * self.variance)

    def add_disjoint(self, other: "Estimate") -> "Estimate":
        """Estimator of the union of two disjoint events (Equations 4–6).

        The mean adds exactly; the variance adds as an upper bound justified by
        Theorem 1 (the covariance of indicators of disjoint events is
        non-positive).
        """
        return Estimate(self.mean + other.mean, self.variance + other.variance)

    def multiply_independent(self, other: "Estimate") -> "Estimate":
        """Estimator of the intersection of two independent events (Eq. 7–8)."""
        mean = self.mean * other.mean
        variance = (
            self.mean * self.mean * other.variance
            + other.mean * other.mean * self.variance
            + self.variance * other.variance
        )
        return Estimate(mean, variance)

    def __repr__(self) -> str:
        return f"Estimate(mean={self.mean:.6g}, variance={self.variance:.6g})"


def sum_disjoint(estimates: Iterable[Estimate]) -> Estimate:
    """Fold :meth:`Estimate.add_disjoint` over ``estimates`` (paper Algorithm 1)."""
    total = Estimate.zero()
    for estimate in estimates:
        total = total.add_disjoint(estimate)
    return total


def product_independent(estimates: Iterable[Estimate]) -> Estimate:
    """Fold :meth:`Estimate.multiply_independent` over ``estimates``.

    The printed Algorithm 2 updates the running mean *before* using it in the
    variance update; that disagrees with Equation (8), so this implementation
    follows the equation (the mean used in the variance update is the one prior
    to multiplication), which is the statistically correct product rule.
    """
    iterator = iter(estimates)
    try:
        total = next(iterator)
    except StopIteration:
        return Estimate.one()
    for estimate in iterator:
        total = total.multiply_independent(estimate)
    return total
