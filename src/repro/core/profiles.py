"""Usage profiles: probability distributions over the bounded input domain.

A usage profile (paper Section 3) assigns to every input variable a bounded
domain and a probability distribution over it.  The paper's implementation
supports uniform profiles only; this reproduction additionally ships
truncated-normal and piecewise-uniform (histogram) distributions, which the
paper lists as future work, plus a family of **discrete bounded
distributions** (binomial, truncated Poisson, truncated geometric,
categorical) whose interval mass is computed *exactly* from a cached CDF
table — the peaked usage profiles the importance-sampling engine targets.

Each distribution must support three operations used by the samplers:

* ``measure(interval)`` / ``mass(interval)`` — the probability mass the
  distribution assigns to a sub-interval of its support (this generalises the
  ``size(R)/size(D)`` stratum weight of Equation (3));
* ``sample(rng, count, interval)`` — i.i.d. samples conditioned to lie in a
  sub-interval of the support (used to sample inside ICP boxes), drawn by
  inverse-CDF transform so every call consumes exactly ``count`` variates;
* ``split_point(interval)`` — where a mass-aware refiner should bisect the
  interval (the conditional mass median; half-integer boundaries for discrete
  families so no atom is ever shared between sibling strata).

Box-level weights go through :meth:`UsageProfile.mass` — the product of the
per-variable masses with an early exit on zero, which every stratum-weight
computation in the sampling stack uses — or :meth:`UsageProfile.log_mass`,
the sum of log masses, which stays ordered where the linear product would
underflow in high dimension (the importance refiner ranks boxes by it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from repro.errors import DomainError
from repro.intervals.box import Box
from repro.intervals.interval import Interval


class Distribution:
    """Base class of single-variable input distributions with bounded support."""

    #: True for integer-supported (atomic) distributions; the ICP layer uses
    #: this to keep box splits off the atoms (half-integer split points).
    is_discrete: bool = False

    @property
    def support(self) -> Interval:
        """The bounded interval outside which the density is zero."""
        raise NotImplementedError

    def measure(self, interval: Interval) -> float:
        """Probability mass of ``interval ∩ support`` (in [0, 1])."""
        raise NotImplementedError

    def mass(self, interval: Interval) -> float:
        """Alias of :meth:`measure`, the per-variable factor of a box weight.

        Every box-weight computation in the sampling stack goes through
        :meth:`UsageProfile.mass` / :meth:`UsageProfile.log_mass`, which call
        this per variable; the discrete families answer it in O(1) from their
        cached CDF table (their :meth:`measure` override).
        """
        return self.measure(interval)

    def log_mass(self, interval: Interval) -> float:
        """Natural log of :meth:`mass` (``-inf`` for mass-free intervals)."""
        mass = self.mass(interval)
        if mass <= 0.0:
            return -math.inf
        return math.log(mass)

    def sample(self, rng: np.random.Generator, count: int, interval: Optional[Interval] = None) -> np.ndarray:
        """Draw ``count`` samples conditioned on ``interval`` (default: the support)."""
        raise NotImplementedError

    def split_point(self, interval: Optional[Interval] = None) -> Optional[float]:
        """Where a mass-aware refiner should bisect ``interval`` (None: unsplittable).

        The default is the midpoint of ``interval ∩ support``; families with a
        cheap conditional median override this so both halves carry equal mass.
        """
        target = self.support if interval is None else interval.intersect(self.support)
        if target.is_empty() or target.is_point():
            return None
        midpoint = target.midpoint()
        if not target.lo < midpoint < target.hi:
            return None
        return midpoint

    def _clip(self, interval: Optional[Interval]) -> Interval:
        target = self.support if interval is None else interval.intersect(self.support)
        if target.is_empty():
            raise DomainError(f"sampling interval {interval} does not intersect support {self.support}")
        return target


@dataclass(frozen=True)
class UniformDistribution(Distribution):
    """Uniform distribution over a closed interval — the paper's profile."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise DomainError("uniform distribution bounds must be finite")
        if self.low > self.high:
            raise DomainError(f"invalid uniform bounds [{self.low}, {self.high}]")

    @property
    def support(self) -> Interval:
        return Interval.make(self.low, self.high)

    def measure(self, interval: Interval) -> float:
        clipped = interval.intersect(self.support)
        if clipped.is_empty():
            return 0.0
        width = self.high - self.low
        if width == 0.0:
            return 1.0
        return clipped.width() / width

    def sample(self, rng: np.random.Generator, count: int, interval: Optional[Interval] = None) -> np.ndarray:
        target = self._clip(interval)
        if target.is_point():
            return np.full(count, target.lo)
        return rng.uniform(target.lo, target.hi, size=count)


@dataclass(frozen=True)
class TruncatedNormalDistribution(Distribution):
    """Normal distribution truncated to a bounded interval."""

    mean: float
    std: float
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.std <= 0:
            raise DomainError("standard deviation must be positive")
        if not (math.isfinite(self.low) and math.isfinite(self.high)) or self.low >= self.high:
            raise DomainError(f"invalid truncation bounds [{self.low}, {self.high}]")

    @property
    def support(self) -> Interval:
        return Interval.make(self.low, self.high)

    def _cdf(self, value: float) -> float:
        return float(stats.norm.cdf(value, loc=self.mean, scale=self.std))

    def measure(self, interval: Interval) -> float:
        clipped = interval.intersect(self.support)
        if clipped.is_empty():
            return 0.0
        total = self._cdf(self.high) - self._cdf(self.low)
        if total <= 0.0:
            # The support sits in the far tail; fall back to a uniform measure.
            return clipped.width() / (self.high - self.low)
        return (self._cdf(clipped.hi) - self._cdf(clipped.lo)) / total

    def sample(self, rng: np.random.Generator, count: int, interval: Optional[Interval] = None) -> np.ndarray:
        target = self._clip(interval)
        if target.is_point():
            return np.full(count, target.lo)
        lower_cdf = self._cdf(target.lo)
        upper_cdf = self._cdf(target.hi)
        if upper_cdf - lower_cdf <= 0.0:
            return np.full(count, target.midpoint())
        quantiles = rng.uniform(lower_cdf, upper_cdf, size=count)
        samples = stats.norm.ppf(quantiles, loc=self.mean, scale=self.std)
        return np.clip(samples, target.lo, target.hi)

    def split_point(self, interval: Optional[Interval] = None) -> Optional[float]:
        """Conditional median, so both halves of a refinement split carry equal mass."""
        target = self.support if interval is None else interval.intersect(self.support)
        if target.is_empty() or target.is_point():
            return None
        lower_cdf = self._cdf(target.lo)
        upper_cdf = self._cdf(target.hi)
        if upper_cdf - lower_cdf > 0.0:
            median = float(stats.norm.ppf((lower_cdf + upper_cdf) / 2.0, loc=self.mean, scale=self.std))
            if target.lo < median < target.hi:
                return median
        return super().split_point(interval)


@dataclass(frozen=True)
class PiecewiseUniformDistribution(Distribution):
    """Histogram distribution: uniform within each bin, given bin weights.

    This is the discretised-profile representation used by Filieri et al. to
    approximate arbitrary profiles with counting-based techniques; it lets the
    reproduction express non-uniform integer-style profiles as well.
    """

    edges: Tuple[float, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) < 2 or len(self.weights) != len(self.edges) - 1:
            raise DomainError("piecewise distribution needs n+1 edges for n weights")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise DomainError("piecewise distribution edges must be strictly increasing")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise DomainError("piecewise distribution weights must be non-negative and not all zero")

    @property
    def support(self) -> Interval:
        return Interval.make(self.edges[0], self.edges[-1])

    def _normalised_weights(self) -> np.ndarray:
        weights = np.asarray(self.weights, dtype=float)
        return weights / weights.sum()

    def measure(self, interval: Interval) -> float:
        clipped = interval.intersect(self.support)
        if clipped.is_empty():
            return 0.0
        weights = self._normalised_weights()
        mass = 0.0
        for index, weight in enumerate(weights):
            bin_interval = Interval.make(self.edges[index], self.edges[index + 1])
            overlap = clipped.intersect(bin_interval)
            if not overlap.is_empty() and bin_interval.width() > 0:
                mass += weight * overlap.width() / bin_interval.width()
        return mass

    def sample(self, rng: np.random.Generator, count: int, interval: Optional[Interval] = None) -> np.ndarray:
        target = self._clip(interval)
        if target.is_point():
            return np.full(count, target.lo)
        weights = self._normalised_weights()
        bin_masses = []
        bin_intervals = []
        for index, weight in enumerate(weights):
            bin_interval = Interval.make(self.edges[index], self.edges[index + 1])
            overlap = target.intersect(bin_interval)
            if overlap.is_empty() or overlap.width() == 0.0:
                continue
            bin_intervals.append(overlap)
            bin_masses.append(weight * overlap.width() / bin_interval.width())
        masses = np.asarray(bin_masses, dtype=float)
        if masses.sum() <= 0.0:
            return np.full(count, target.midpoint())
        masses /= masses.sum()
        choices = rng.choice(len(bin_intervals), size=count, p=masses)
        samples = np.empty(count)
        for index, overlap in enumerate(bin_intervals):
            mask = choices == index
            samples[mask] = rng.uniform(overlap.lo, overlap.hi, size=int(mask.sum()))
        return samples


class DiscreteDistribution(Distribution):
    """Base of integer-supported distributions on a bounded range.

    A subclass provides the lowest support integer (:meth:`_support_low`) and
    the unnormalised probability weights of the consecutive support atoms
    (:meth:`_raw_weights`); everything else — exact interval mass via a cached
    CDF table, inverse-CDF conditioned sampling, mass-median split points on
    half-integer boundaries — is shared here.

    ``measure`` counts the atoms inside the closed query interval, so interval
    masses are *exact* (no quadrature).  Sibling boxes produced by the ICP
    solver or the mass refiner meet on half-integer boundaries for discrete
    variables (see :meth:`split_point`), so no atom is ever double-counted
    across strata.  Samples are returned as floats (the constraint evaluator
    works on float arrays) but always carry exact integer values.
    """

    is_discrete = True

    def _support_low(self) -> int:
        """Smallest integer of the support."""
        raise NotImplementedError

    def _raw_weights(self) -> np.ndarray:
        """Unnormalised weights of the atoms ``low, low+1, ...`` (length ≥ 1)."""
        raise NotImplementedError

    @cached_property
    def _pmf(self) -> np.ndarray:
        weights = np.asarray(self._raw_weights(), dtype=float)
        total = float(weights.sum())
        if not math.isfinite(total) or total <= 0.0:
            # The truncation window sits in the far tail of the parent
            # distribution and the pmf underflowed to zero everywhere; fall
            # back to uniform atoms (mirrors the truncated-normal fallback).
            weights = np.ones_like(weights)
            total = float(weights.sum())
        return weights / total

    @cached_property
    def _cdf(self) -> np.ndarray:
        cdf = np.cumsum(self._pmf)
        cdf[-1] = 1.0
        return cdf

    @property
    def support(self) -> Interval:
        return Interval.make(self._support_low(), self._support_low() + len(self._pmf) - 1)

    def _atom_range(self, interval: Interval) -> Tuple[int, int]:
        """Pmf-index range ``[first, last]`` of atoms in ``interval`` (empty when first > last)."""
        low = self._support_low()
        first = max(0, math.ceil(interval.lo) - low)
        last = min(len(self._pmf) - 1, math.floor(interval.hi) - low)
        return first, last

    def measure(self, interval: Interval) -> float:
        clipped = interval.intersect(self.support)
        if clipped.is_empty():
            return 0.0
        first, last = self._atom_range(clipped)
        if first > last:
            return 0.0
        below = self._cdf[first - 1] if first > 0 else 0.0
        return float(min(1.0, max(0.0, self._cdf[last] - below)))

    def sample(self, rng: np.random.Generator, count: int, interval: Optional[Interval] = None) -> np.ndarray:
        target = self._clip(interval)
        first, last = self._atom_range(target)
        if first > last:
            raise DomainError(f"sampling interval {interval} contains no atom of {self!r}")
        low = self._support_low()
        if first == last:
            return np.full(count, float(low + first))
        conditional = self._pmf[first : last + 1]
        total = float(conditional.sum())
        if total <= 0.0:
            # Conditioning wiped out all mass (far-tail window): uniform atoms.
            conditional = np.full(last - first + 1, 1.0 / (last - first + 1))
        else:
            conditional = conditional / total
        cumulative = np.cumsum(conditional)
        cumulative[-1] = 1.0
        # Inverse-CDF transform: exactly ``count`` uniforms per call, so
        # sharded draws stay bit-identical at any chunking.
        quantiles = rng.random(count)
        indices = np.searchsorted(cumulative, quantiles, side="right")
        return (low + first + indices).astype(float)

    def split_point(self, interval: Optional[Interval] = None) -> Optional[float]:
        """Half-integer mass-median split: atoms ≤ the median go left, the rest right.

        Returning ``k + 0.5`` guarantees the two children partition the atoms
        exactly — a split at an integer coordinate would put the atom in both
        closed sibling intervals and double-count its mass.
        """
        target = self.support if interval is None else interval.intersect(self.support)
        if target.is_empty():
            return None
        first, last = self._atom_range(target)
        if last - first < 1:
            return None
        below = self._cdf[first - 1] if first > 0 else 0.0
        mass = float(self._cdf[last] - below)
        if mass <= 0.0:
            cut = first + (last - first) // 2
        else:
            target_mass = below + mass / 2.0
            cut = int(np.searchsorted(self._cdf[first : last + 1], target_mass, side="left")) + first
            cut = min(cut, last - 1)
        return float(self._support_low() + cut) + 0.5


def _require_int(label: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{label} must be an integer, got {value!r}")


@dataclass(frozen=True)
class BinomialDistribution(DiscreteDistribution):
    """Binomial(n, p): successes in ``n`` trials — support ``{0, ..., n}``."""

    trials: int
    success: float

    def __post_init__(self) -> None:
        _require_int("binomial trial count", self.trials)
        if self.trials < 1:
            raise DomainError("binomial distribution needs at least one trial")
        if not 0.0 <= self.success <= 1.0 or math.isnan(self.success):
            raise DomainError(f"binomial success probability {self.success!r} outside [0, 1]")

    def _support_low(self) -> int:
        return 0

    def _raw_weights(self) -> np.ndarray:
        return stats.binom.pmf(np.arange(self.trials + 1), self.trials, self.success)


@dataclass(frozen=True)
class TruncatedPoissonDistribution(DiscreteDistribution):
    """Poisson(rate) conditioned on the bounded window ``{low, ..., high}``."""

    rate: float
    low: int
    high: int

    def __post_init__(self) -> None:
        _require_int("truncated Poisson low bound", self.low)
        _require_int("truncated Poisson high bound", self.high)
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise DomainError(f"Poisson rate must be positive, got {self.rate!r}")
        if self.low < 0 or self.low > self.high:
            raise DomainError(f"invalid truncation window [{self.low}, {self.high}]")

    def _support_low(self) -> int:
        return self.low

    def _raw_weights(self) -> np.ndarray:
        return stats.poisson.pmf(np.arange(self.low, self.high + 1), self.rate)


@dataclass(frozen=True)
class TruncatedGeometricDistribution(DiscreteDistribution):
    """Geometric decay ``(1-p)^(k-low)`` conditioned on ``{low, ..., high}``."""

    success: float
    low: int
    high: int

    def __post_init__(self) -> None:
        _require_int("truncated geometric low bound", self.low)
        _require_int("truncated geometric high bound", self.high)
        if not 0.0 < self.success <= 1.0 or math.isnan(self.success):
            raise DomainError(f"geometric success probability {self.success!r} outside (0, 1]")
        if self.low > self.high:
            raise DomainError(f"invalid truncation window [{self.low}, {self.high}]")

    def _support_low(self) -> int:
        return self.low

    def _raw_weights(self) -> np.ndarray:
        if self.success == 1.0:
            weights = np.zeros(self.high - self.low + 1)
            weights[0] = 1.0
            return weights
        return self.success * np.power(1.0 - self.success, np.arange(self.high - self.low + 1))


@dataclass(frozen=True)
class CategoricalDistribution(DiscreteDistribution):
    """Explicit weights over the consecutive integers ``low, ..., low+k-1``."""

    low: int
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        _require_int("categorical low bound", self.low)
        if not self.weights:
            raise DomainError("categorical distribution needs at least one weight")
        if any(w < 0 or math.isnan(w) for w in self.weights) or sum(self.weights) <= 0:
            raise DomainError("categorical weights must be non-negative and not all zero")

    @staticmethod
    def uniform_integers(low: int, high: int) -> "CategoricalDistribution":
        """Uniform distribution over the integers ``low, ..., high``."""
        _require_int("integer range low bound", low)
        _require_int("integer range high bound", high)
        if low > high:
            raise DomainError(f"invalid integer range [{low}, {high}]")
        return CategoricalDistribution(low, (1.0,) * (high - low + 1))

    def _support_low(self) -> int:
        return self.low

    def _raw_weights(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


# --------------------------------------------------------------------------- #
# Command-line distribution specifications
# --------------------------------------------------------------------------- #
def parse_distribution_spec(spec: str) -> Distribution:
    """Parse a command-line domain spec into a :class:`Distribution`.

    Accepted forms (the bare ``lo:hi`` form is the historical uniform one)::

        lo:hi                       uniform over [lo, hi]
        uniform:lo:hi               same, explicit
        int:lo:hi                   uniform over the integers lo..hi
        binomial:n:p                Binomial(n, p) on {0..n}
        poisson:rate:lo:hi          Poisson(rate) truncated to {lo..hi}
        geometric:p:lo:hi           geometric decay truncated to {lo..hi}
        categorical:lo:w1,w2,...    weights over lo, lo+1, ...
        normal:mean:std:lo:hi       normal truncated to [lo, hi]
    """
    parts = [part.strip() for part in spec.split(":")]
    head = parts[0].lower()
    try:
        if head in ("int", "integer") and len(parts) == 3:
            return CategoricalDistribution.uniform_integers(int(parts[1]), int(parts[2]))
        if head in ("binomial", "binom") and len(parts) == 3:
            return BinomialDistribution(int(parts[1]), float(parts[2]))
        if head == "poisson" and len(parts) == 4:
            return TruncatedPoissonDistribution(float(parts[1]), int(parts[2]), int(parts[3]))
        if head in ("geometric", "geom") and len(parts) == 4:
            return TruncatedGeometricDistribution(float(parts[1]), int(parts[2]), int(parts[3]))
        if head in ("categorical", "cat") and len(parts) == 3:
            weights = tuple(float(w) for w in parts[2].split(","))
            return CategoricalDistribution(int(parts[1]), weights)
        if head in ("normal", "truncnormal") and len(parts) == 5:
            return TruncatedNormalDistribution(float(parts[1]), float(parts[2]), float(parts[3]), float(parts[4]))
        if head == "uniform" and len(parts) == 3:
            return UniformDistribution(float(parts[1]), float(parts[2]))
        if len(parts) == 2:
            return UniformDistribution(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise DomainError(f"invalid distribution spec {spec!r}: {exc}") from exc
    raise DomainError(
        f"invalid distribution spec {spec!r}; expected lo:hi, int:lo:hi, binomial:n:p, "
        f"poisson:rate:lo:hi, geometric:p:lo:hi, categorical:lo:w1,w2,..., or normal:mean:std:lo:hi"
    )


class UsageProfile:
    """A usage profile: one bounded distribution per input variable."""

    def __init__(self, distributions: Mapping[str, Distribution]) -> None:
        if not distributions:
            raise DomainError("a usage profile needs at least one variable")
        self._distributions: Dict[str, Distribution] = dict(distributions)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def uniform(bounds: Mapping[str, Tuple[float, float]]) -> "UsageProfile":
        """Uniform profile from a mapping of variable name to ``(lo, hi)``."""
        return UsageProfile({name: UniformDistribution(lo, hi) for name, (lo, hi) in bounds.items()})

    @staticmethod
    def from_specs(specs: Mapping[str, str]) -> "UsageProfile":
        """Profile from command-line specs (see :func:`parse_distribution_spec`)."""
        return UsageProfile({name: parse_distribution_spec(spec) for name, spec in specs.items()})

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> Tuple[str, ...]:
        """Variable names covered by the profile, in insertion order."""
        return tuple(self._distributions)

    def distribution(self, name: str) -> Distribution:
        """Distribution of variable ``name``."""
        try:
            return self._distributions[name]
        except KeyError as exc:
            raise DomainError(f"profile has no variable {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._distributions

    def domain(self) -> Box:
        """The input domain D: the Cartesian product of all supports."""
        return Box({name: dist.support for name, dist in self._distributions.items()})

    def restrict(self, variables: Iterable[str]) -> "UsageProfile":
        """Profile over a subset of the variables (order follows ``variables``)."""
        names = list(variables)
        missing = [name for name in names if name not in self._distributions]
        if missing:
            raise DomainError(f"profile has no variables {missing}")
        return UsageProfile({name: self._distributions[name] for name in names})

    def discrete_variables(self) -> Tuple[str, ...]:
        """Names of the integer-supported variables, in insertion order."""
        return tuple(name for name, dist in self._distributions.items() if dist.is_discrete)

    # ------------------------------------------------------------------ #
    # Probability measure and sampling
    # ------------------------------------------------------------------ #
    def mass(self, box: Box) -> float:
        """Probability mass of ``box`` under the profile.

        For uniform profiles this is exactly the ``size(R)/size(D)`` stratum
        weight of the paper's Equation (3); for other profiles it is the
        probability of an input falling into the box, which is the correct
        generalisation of the weight.  The product short-circuits on the
        first mass-free dimension — the fast path every stratum-weight
        computation in the stack goes through.
        """
        total = 1.0
        for name, interval in box.items():
            total *= self.distribution(name).mass(interval)
            if total == 0.0:
                return 0.0
        return total

    def log_mass(self, box: Box) -> float:
        """Natural log of :meth:`mass` (``-inf`` for mass-free boxes).

        Summing per-variable log masses never underflows, so box weights in
        high-dimensional peaked profiles stay comparable even when the linear
        product would round to zero.
        """
        total = 0.0
        for name, interval in box.items():
            term = self.distribution(name).log_mass(interval)
            if term == -math.inf:
                return -math.inf
            total += term
        return total

    def sample(
        self,
        rng: np.random.Generator,
        count: int,
        variables: Optional[Sequence[str]] = None,
        box: Optional[Box] = None,
    ) -> Dict[str, np.ndarray]:
        """Draw ``count`` independent samples for ``variables`` (default: all).

        When ``box`` is given, each variable present in the box is sampled
        conditioned on its box interval (used to sample within ICP strata).
        """
        names = list(variables) if variables is not None else list(self._distributions)
        batch: Dict[str, np.ndarray] = {}
        for name in names:
            interval = box.interval(name) if box is not None and name in box else None
            batch[name] = self.distribution(name).sample(rng, count, interval)
        return batch

    def check_covers(self, variables: Iterable[str]) -> None:
        """Raise :class:`DomainError` unless every variable has a distribution."""
        missing = sorted(set(variables) - set(self._distributions))
        if missing:
            raise DomainError(f"usage profile does not cover variables {missing}")
