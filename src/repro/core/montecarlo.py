"""Hit-or-miss Monte Carlo estimation (paper Section 3.2, Equation 2).

The estimator draws ``n`` independent samples from the usage profile
(optionally conditioned on a sub-box of the domain), counts how many satisfy
the constraint under analysis, and reports the raw ``(hits, samples)``
counts.  :meth:`repro.core.estimate.Estimate.from_hits` turns counts into the
hit ratio and the binomial-proportion variance ``p (1 - p) / n``.

Every sampled factor of the analyzer is a
:class:`~repro.core.stratified.StratifiedSampler` whose chunks run through
:func:`hit_or_miss`; plain hit-or-miss over the whole domain is the sampler's
one-stratum case.  The sampler keeps the counts, so resuming an estimate is
adding counts.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.profiles import UsageProfile
from repro.errors import AnalysisError
from repro.intervals.box import Box
from repro.lang import ast
from repro.lang.kernel import CompiledPredicate, get_kernel


def hit_or_miss(
    pc: ast.PathCondition,
    profile: UsageProfile,
    samples: int,
    rng: np.random.Generator,
    box: Optional[Box] = None,
    variables: Optional[Sequence[str]] = None,
    predicate: Optional[CompiledPredicate] = None,
    batch_size: int = 100_000,
) -> Tuple[int, int]:
    """Count the samples satisfying ``pc`` among ``samples`` hit-or-miss draws.

    Args:
        pc: The conjunction of constraints to estimate.
        profile: Usage profile; must cover every free variable of ``pc``.
        samples: Number of samples to draw (must be positive).
        rng: NumPy random generator (the caller controls seeding).
        box: Optional sub-box of the domain to sample inside (an ICP stratum).
        variables: Variables to sample; defaults to the free variables of
            ``pc`` — restricting the sampled dimensions is the "faster sample
            generation" benefit the paper notes in Section 4.3.
        predicate: Pre-compiled predicate for ``pc`` (avoids recompilation when
            the caller evaluates the same constraint over many strata).
        batch_size: Samples are drawn and evaluated in batches of this size to
            bound peak memory.

    Returns:
        The raw ``(hits, samples)`` counts.
    """
    if samples <= 0:
        raise AnalysisError("hit-or-miss sampling needs a positive sample count")

    names: Sequence[str] = tuple(variables) if variables is not None else tuple(sorted(pc.free_variables()))
    profile.check_covers(names)

    if not names:
        # A path condition with no free variables is either a tautology or a
        # contradiction; evaluate it once on the empty assignment.
        from repro.lang.evaluator import holds_path_condition

        return (samples if holds_path_condition(pc, {}) else 0), samples

    compiled = predicate if predicate is not None else get_kernel(pc)

    hits = 0
    drawn = 0
    while drawn < samples:
        batch_count = min(batch_size, samples - drawn)
        batch = profile.sample(rng, batch_count, variables=names, box=box)
        hits += int(np.count_nonzero(compiled(batch)))
        drawn += batch_count
    return hits, samples
