"""Hit-or-miss Monte Carlo estimation (paper Section 3.2, Equation 2).

The estimator draws ``n`` independent samples from the usage profile
(optionally conditioned on a sub-box of the domain), counts how many satisfy
the constraint under analysis, and reports the hit ratio together with the
binomial-proportion variance ``p (1 - p) / n``.

Both samplers are *resumable*: they return raw counts, and passing a previous
:class:`SamplingResult` as ``prior`` extends it — the returned counts cover
the prior plus the newly drawn batch, so an estimate can absorb additional
budget round after round instead of restarting from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.estimate import Estimate
from repro.core.profiles import UsageProfile
from repro.errors import AnalysisError
from repro.intervals.box import Box
from repro.lang import ast
from repro.lang.compiler import CompiledPredicate
from repro.lang.kernel import get_kernel


@dataclass(frozen=True)
class SamplingResult:
    """Outcome of one hit-or-miss run: the estimate plus raw counts."""

    estimate: Estimate
    hits: int
    samples: int

    def merge(self, other: "SamplingResult") -> "SamplingResult":
        """Combine two independent runs of the same estimator (counts add)."""
        hits = self.hits + other.hits
        samples = self.samples + other.samples
        return SamplingResult(Estimate.from_hits(hits, samples), hits, samples)


def _extend_prior(hits: int, samples: int, prior: Optional[SamplingResult]) -> SamplingResult:
    """Fold freshly drawn counts into an optional prior result."""
    if prior is not None:
        hits += prior.hits
        samples += prior.samples
    return SamplingResult(Estimate.from_hits(hits, samples), hits, samples)


def hit_or_miss(
    pc: ast.PathCondition,
    profile: UsageProfile,
    samples: int,
    rng: np.random.Generator,
    box: Optional[Box] = None,
    variables: Optional[Sequence[str]] = None,
    predicate: Optional[CompiledPredicate] = None,
    batch_size: int = 100_000,
    prior: Optional[SamplingResult] = None,
) -> SamplingResult:
    """Estimate the probability of satisfying ``pc`` by hit-or-miss sampling.

    Args:
        pc: The conjunction of constraints to estimate.
        profile: Usage profile; must cover every free variable of ``pc``.
        samples: Number of *additional* samples to draw (must be positive).
        rng: NumPy random generator (the caller controls seeding).
        box: Optional sub-box of the domain to sample inside (an ICP stratum).
        variables: Variables to sample; defaults to the free variables of
            ``pc`` — restricting the sampled dimensions is the "faster sample
            generation" benefit the paper notes in Section 4.3.
        predicate: Pre-compiled predicate for ``pc`` (avoids recompilation when
            the caller evaluates the same constraint over many strata).
        batch_size: Samples are drawn and evaluated in batches of this size to
            bound peak memory.
        prior: Result of a previous run over the same estimator; the returned
            counts extend it, making the sampler resumable.

    Returns:
        A :class:`SamplingResult` holding the :class:`Estimate` and raw counts
        (cumulative when ``prior`` is given).
    """
    if samples <= 0:
        raise AnalysisError("hit-or-miss sampling needs a positive sample count")

    names: Sequence[str] = tuple(variables) if variables is not None else tuple(sorted(pc.free_variables()))
    profile.check_covers(names)

    if not names:
        # A path condition with no free variables is either a tautology or a
        # contradiction; evaluate it once on the empty assignment.
        from repro.lang.evaluator import holds_path_condition

        mean = 1.0 if holds_path_condition(pc, {}) else 0.0
        return _extend_prior(int(mean * samples), samples, prior) if prior is not None else SamplingResult(
            Estimate.exact(mean), int(mean * samples), samples
        )

    compiled = predicate if predicate is not None else get_kernel(pc)

    hits = 0
    drawn = 0
    while drawn < samples:
        batch_count = min(batch_size, samples - drawn)
        batch = profile.sample(rng, batch_count, variables=names, box=box)
        hits += int(np.count_nonzero(compiled(batch)))
        drawn += batch_count

    return _extend_prior(hits, samples, prior)


def hit_or_miss_constraint_set(
    constraint_set: ast.ConstraintSet,
    profile: UsageProfile,
    samples: int,
    rng: np.random.Generator,
    batch_size: int = 100_000,
    prior: Optional[SamplingResult] = None,
) -> SamplingResult:
    """Whole-domain hit-or-miss over a disjunction of path conditions.

    This estimates the indicator of Equation (1) directly (a sample is a hit
    when it satisfies *any* path condition); it is the non-compositional
    baseline labelled "Monte Carlo" in the paper's Table 4.  Like
    :func:`hit_or_miss` it is resumable through ``prior``.
    """
    if samples <= 0:
        raise AnalysisError("hit-or-miss sampling needs a positive sample count")
    names = tuple(sorted(constraint_set.free_variables()))
    profile.check_covers(names)
    if not names:
        from repro.lang.evaluator import holds_any

        mean = 1.0 if holds_any(constraint_set, {}) else 0.0
        return _extend_prior(int(mean * samples), samples, prior) if prior is not None else SamplingResult(
            Estimate.exact(mean), int(mean * samples), samples
        )

    compiled = get_kernel(constraint_set)
    hits = 0
    drawn = 0
    while drawn < samples:
        batch_count = min(batch_size, samples - drawn)
        batch = profile.sample(rng, batch_count, variables=names)
        hits += int(np.count_nonzero(compiled(batch)))
        drawn += batch_count
    return _extend_prior(hits, samples, prior)
