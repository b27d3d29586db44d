"""Interval branch-and-bound probability bounding (the VolComp substitute).

VolComp (Sankaranarayanan et al., PLDI 2013) returns a closed interval
``[lower, upper]`` guaranteed to contain the exact probability of satisfying a
set of path conditions.  This substitute reproduces the same output contract
with an interval branch-and-bound:

* a box that certainly satisfies some path condition contributes its full
  measure to both bounds;
* a box that certainly violates every path condition contributes nothing;
* an undecided box contributes its measure to the upper bound only, and is a
  candidate for bisection.

The qualitative failure mode reported in the paper is preserved: on subjects
where interval reasoning cannot prune (highly skewed polynomials, CART; deep
non-linearity, VOL) the returned interval stays wide, up to ``[0, 1]``.

Boxes are classified on each path condition's HC4 tapes
(:func:`~repro.icp.hc4.constraint_trees`), built once per call and swept
over every box.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.profiles import UsageProfile
from repro.errors import AnalysisError
from repro.icp.hc4 import ConstraintTree, constraint_trees
from repro.intervals.box import Box
from repro.lang import ast


@dataclass(frozen=True)
class VolCompConfig:
    """Budget knobs of the bounding procedure."""

    max_boxes: int = 4_000
    time_budget: float = 60.0
    target_width: float = 1e-3


@dataclass(frozen=True)
class VolCompResult:
    """Lower/upper probability bounds with bookkeeping information."""

    lower: float
    upper: float
    boxes_explored: int
    analysis_time: float

    @property
    def width(self) -> float:
        """Width of the bounding interval."""
        return self.upper - self.lower

    def contains(self, probability: float, slack: float = 1e-9) -> bool:
        """True when ``probability`` lies inside the bounds (with ``slack``)."""
        return self.lower - slack <= probability <= self.upper + slack


def _certainly_satisfies(trees: Sequence[Tuple[ConstraintTree, ...]], box: Box) -> bool:
    """True when every point of ``box`` satisfies some path condition.

    ``trees`` holds each path condition's constraint trees.  Checking each
    path condition separately is sufficient (though not necessary); it is the
    same corner-wise reasoning VolComp's polyhedral bounding performs on
    linear constraints.
    """
    return any(all(tree.certainly_holds(box) for tree in pc_trees) for pc_trees in trees if pc_trees)


def _certainly_violates(trees: Sequence[Tuple[ConstraintTree, ...]], box: Box) -> bool:
    """True when no point of ``box`` satisfies any path condition."""
    return all(any(tree.certainly_fails(box) for tree in pc_trees) for pc_trees in trees)


def bound_probability(
    constraint_set: ast.ConstraintSet,
    profile: UsageProfile,
    config: VolCompConfig = VolCompConfig(),
) -> VolCompResult:
    """Compute guaranteed probability bounds for a constraint set.

    The profile's measure is used to weigh boxes, so the bounds are valid for
    non-uniform profiles as well (VolComp itself supports distribution
    envelopes; the uniform case reproduces the paper's tables).

    Raises :class:`AnalysisError` when the constrained variables' domain is
    unbounded or one of them is discrete.  The guarantee rests on continuous
    measure: boxes are classified with a floating-point slack at the
    boundary, and bisection puts a split point in both closed halves, so an
    integer atom on a boundary or a split would be counted wrongly or twice.
    """
    started = time.perf_counter()
    deadline = started + config.time_budget

    if not constraint_set.path_conditions:
        return VolCompResult(0.0, 0.0, 0, time.perf_counter() - started)

    variables = tuple(sorted(constraint_set.free_variables()))
    if not variables:
        from repro.lang.evaluator import holds_any

        value = 1.0 if holds_any(constraint_set, {}) else 0.0
        return VolCompResult(value, value, 0, time.perf_counter() - started)

    profile.check_covers(variables)
    restricted = profile.restrict(variables)
    discrete = restricted.discrete_variables()
    if discrete:
        raise AnalysisError(f"probability bounding needs continuous variables; {', '.join(discrete)} are discrete")
    domain = restricted.domain()
    if not domain.is_bounded():
        raise AnalysisError("probability bounding needs a bounded domain")
    trees = [constraint_trees(pc) for pc in constraint_set.path_conditions]

    lower = 0.0
    undecided_mass = 0.0
    counter = itertools.count()
    heap: List[Tuple[float, int, Box]] = []
    explored = 0

    def classify_and_push(box: Box) -> None:
        nonlocal lower, undecided_mass
        weight = profile.mass(box)
        if weight == 0.0:
            return
        if _certainly_satisfies(trees, box):
            lower += weight
            return
        if _certainly_violates(trees, box):
            return
        undecided_mass += weight
        heapq.heappush(heap, (-weight, next(counter), box))

    classify_and_push(domain)
    explored += 1

    while heap:
        if undecided_mass <= config.target_width:
            break
        if explored >= config.max_boxes or time.perf_counter() >= deadline:
            break
        negative_weight, _, box = heapq.heappop(heap)
        undecided_mass += negative_weight  # negative_weight is -weight
        if box.max_width() <= 0.0:
            undecided_mass -= negative_weight
            heapq.heappush(heap, (negative_weight, next(counter), box))
            break
        low, high = box.split()
        classify_and_push(low)
        classify_and_push(high)
        explored += 2

    upper = min(1.0, lower + undecided_mass)
    elapsed = time.perf_counter() - started
    return VolCompResult(lower, upper, explored, elapsed)
