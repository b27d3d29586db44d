"""Global adaptive numerical integration (the Mathematica NIntegrate substitute).

The paper uses Mathematica's ``NIntegrate`` with default settings as the
accuracy reference for linear-constraint subjects (Table 3).  ``NIntegrate``
runs a *global adaptive* strategy: it maintains a pool of integration regions,
repeatedly bisects the region with the largest estimated error, and terminates
when the accumulated error meets the accuracy goal or the recursion budget is
exhausted.

This substitute integrates the indicator function of a constraint set over the
(uniform) input domain with the same strategy.  Because the integrand is an
indicator, the per-region rule evaluates the constraint on a small grid of
probe points: a region whose interval evaluation is conclusive (on each path
condition's HC4 tapes, :func:`~repro.icp.hc4.constraint_trees`, built once per
call) contributes no error; mixed regions contribute their full volume as
error and are candidates for bisection.  The qualitative behaviour matches the
paper's observations — exact-looking results on low-dimensional problems, poor
scaling and possible non-convergence warnings as dimensionality grows.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.icp.hc4 import ConstraintTree, constraint_trees
from repro.intervals.box import Box
from repro.lang import ast
from repro.lang.kernel import get_kernel


@dataclass(frozen=True)
class NumericalIntegrationResult:
    """Probability estimate with an error bound and convergence status."""

    probability: float
    error_bound: float
    regions: int
    converged: bool
    analysis_time: float


@dataclass(frozen=True)
class NumIntConfig:
    """Configuration of the adaptive integrator.

    Attributes:
        accuracy_goal: Target absolute error on the probability.
        max_regions: Budget of region bisections (the "recursion depth limit").
        probes_per_dimension: Probe points per dimension for the region rule
            (the total grid is capped at ``max_probes``).
        max_probes: Hard cap on probe points per region.
        time_budget: Wall-clock budget in seconds.
    """

    accuracy_goal: float = 1e-4
    max_regions: int = 20_000
    probes_per_dimension: int = 3
    max_probes: int = 243
    time_budget: float = 300.0


def _probe_points(box: Box, config: NumIntConfig) -> dict:
    """Tensor grid of probe points over ``box`` (capped at ``max_probes``)."""
    names = list(box.variables)
    per_dimension = config.probes_per_dimension
    while per_dimension > 1 and per_dimension ** len(names) > config.max_probes:
        per_dimension -= 1
    axes = []
    for name in names:
        interval = box.interval(name)
        axes.append(np.linspace(interval.lo, interval.hi, max(per_dimension, 1)))
    if len(names) == 1:
        grid = axes[0][:, None]
    else:
        grid = np.array(list(itertools.product(*axes)))
    return {name: grid[:, index] for index, name in enumerate(names)}


def _classify(trees: Sequence[Tuple[ConstraintTree, ...]], box: Box) -> Tuple[float, float]:
    """Return ``(satisfied_fraction, error_fraction)`` for one region.

    ``trees`` holds each path condition's constraint trees.  Interval
    evaluation settles regions that certainly satisfy one path condition or
    certainly violate all of them; otherwise the probe grid gives the
    fraction and the region is treated as fully uncertain.
    """
    for pc_trees in trees:
        if all(tree.certainly_holds(box) for tree in pc_trees):
            return 1.0, 0.0
    if all(any(tree.certainly_fails(box) for tree in pc_trees) for pc_trees in trees):
        return 0.0, 0.0
    return -1.0, 1.0  # fraction computed from probes by the caller


def integrate_indicator(
    constraint_set: ast.ConstraintSet,
    domain: Box,
    config: NumIntConfig = NumIntConfig(),
) -> NumericalIntegrationResult:
    """Probability of the constraint set under a uniform profile over ``domain``.

    The result is the fraction of the domain volume satisfying any path
    condition, computed by global adaptive subdivision.
    """
    if not constraint_set.path_conditions:
        return NumericalIntegrationResult(0.0, 0.0, 0, True, 0.0)
    if not domain.is_bounded() or domain.volume() == 0.0:
        raise AnalysisError("numerical integration needs a bounded domain with positive volume")

    started = time.perf_counter()
    deadline = started + config.time_budget
    predicate = get_kernel(constraint_set)
    trees = [constraint_trees(pc) for pc in constraint_set.path_conditions]
    domain_volume = domain.volume()

    settled_probability = 0.0
    # Heap of pending regions ordered by descending error contribution.
    counter = itertools.count()
    heap: List[Tuple[float, int, Box, float]] = []

    def push_region(box: Box) -> None:
        relative = box.volume() / domain_volume
        certain, error = _classify(trees, box)
        nonlocal settled_probability
        if error == 0.0:
            settled_probability += certain * relative
            return
        probes = _probe_points(box, config)
        fraction = float(np.mean(predicate(probes))) if probes else 0.0
        heapq.heappush(heap, (-relative, next(counter), box, fraction))

    push_region(domain)
    regions = 1

    while heap:
        total_error = sum(-entry[0] for entry in heap)
        if total_error <= config.accuracy_goal:
            break
        if regions >= config.max_regions or time.perf_counter() >= deadline:
            break
        _, _, box, _ = heapq.heappop(heap)
        if box.max_width() <= 0.0:
            continue
        low, high = box.split()
        push_region(low)
        push_region(high)
        regions += 2

    pending_probability = sum(-entry[0] * entry[3] for entry in heap)
    pending_error = sum(-entry[0] for entry in heap)
    probability = settled_probability + pending_probability
    elapsed = time.perf_counter() - started
    return NumericalIntegrationResult(
        probability=probability,
        error_bound=pending_error,
        regions=regions,
        converged=pending_error <= config.accuracy_goal,
        analysis_time=elapsed,
    )


def nintegrate(
    constraint_set: ast.ConstraintSet,
    domain: Box,
    accuracy_goal: float = 1e-4,
    max_regions: int = 20_000,
    time_budget: float = 300.0,
) -> NumericalIntegrationResult:
    """Convenience wrapper with keyword configuration."""
    config = NumIntConfig(accuracy_goal=accuracy_goal, max_regions=max_regions, time_budget=time_budget)
    return integrate_indicator(constraint_set, domain, config)
