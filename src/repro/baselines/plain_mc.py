"""Whole-domain hit-or-miss Monte Carlo baseline.

This is the "Monte Carlo" column of the paper's Table 4 (there implemented
with Mathematica): a single hit-or-miss estimator over the full input domain
for the disjunction of all path conditions, with no interval reasoning, no
stratification, and no compositional reuse.  It provides the reference point
against which the qCORAL feature ablation is measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.estimate import Estimate
from repro.core.montecarlo import hit_or_miss
from repro.core.profiles import UsageProfile
from repro.errors import AnalysisError
from repro.lang import ast
from repro.lang.kernel import get_kernel


@dataclass(frozen=True)
class BaselineResult:
    """Estimate, standard deviation and wall-clock time of a baseline run."""

    estimate: Estimate
    analysis_time: float
    samples: int

    @property
    def mean(self) -> float:
        """Estimated probability."""
        return self.estimate.mean

    @property
    def std(self) -> float:
        """Standard deviation of the estimator."""
        return self.estimate.std


def hit_or_miss_constraint_set(
    constraint_set: ast.ConstraintSet,
    profile: UsageProfile,
    samples: int,
    rng: np.random.Generator,
    batch_size: int = 100_000,
) -> Tuple[int, int]:
    """Whole-domain hit-or-miss over a disjunction of path conditions.

    This counts the indicator of Equation (1) directly (a sample is a hit
    when it satisfies *any* path condition) and returns the raw
    ``(hits, samples)`` counts, like :func:`~repro.core.montecarlo.hit_or_miss`.
    """
    if samples <= 0:
        raise AnalysisError("hit-or-miss sampling needs a positive sample count")
    names = tuple(sorted(constraint_set.free_variables()))
    profile.check_covers(names)
    if not names:
        from repro.lang.evaluator import holds_any

        return (samples if holds_any(constraint_set, {}) else 0), samples

    compiled = get_kernel(constraint_set)
    hits = 0
    drawn = 0
    while drawn < samples:
        batch_count = min(batch_size, samples - drawn)
        batch = profile.sample(rng, batch_count, variables=names)
        hits += int(np.count_nonzero(compiled(batch)))
        drawn += batch_count
    return hits, samples


def plain_monte_carlo(
    constraint_set: ast.ConstraintSet,
    profile: UsageProfile,
    samples: int,
    seed: Optional[int] = None,
) -> BaselineResult:
    """Estimate the probability of the disjunction with one global estimator.

    A sample is a hit when it satisfies *any* path condition of the set; the
    estimate is the hit ratio and the variance is the binomial-proportion
    variance of Equation (2).
    """
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    hits, drawn = hit_or_miss_constraint_set(constraint_set, profile, samples, rng)
    elapsed = time.perf_counter() - started
    return BaselineResult(Estimate.from_hits(hits, drawn), elapsed, drawn)


def per_path_monte_carlo(
    constraint_set: ast.ConstraintSet,
    profile: UsageProfile,
    samples_per_path: int,
    seed: Optional[int] = None,
) -> BaselineResult:
    """Per-path hit-or-miss with disjoint summation but no ICP or caching.

    This matches the qCORAL{} configuration of Table 4 when invoked through the
    baseline interface; it exists so the ablation benchmarks can compare the
    global and the per-path flavours of plain Monte Carlo directly.
    """
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    total = Estimate.zero()
    used = 0
    for pc in constraint_set.path_conditions:
        hits, drawn = hit_or_miss(pc, profile, samples_per_path, rng)
        total = total.add_disjoint(Estimate.from_hits(hits, drawn))
        used += drawn
    elapsed = time.perf_counter() - started
    return BaselineResult(total, elapsed, used)
