"""Branch-and-prune paving: the RealPaver substitute.

Given a conjunction of constraints and a bounded domain box, the solver
produces a :class:`Paving` — a set of non-overlapping boxes whose union
contains every solution of the conjunction inside the domain.  Boxes are
classified as *inner* (every point is a solution; RealPaver's "tight" boxes)
or *boundary* (may contain both solutions and non-solutions; "loose" boxes).

The search alternates HC4 contraction with bisection of the widest box
dimension, and stops when any of the paper's RealPaver stop criteria is met:
box-count budget, precision (minimum box width), or time budget.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import DomainError
from repro.icp.config import ICPConfig, PAPER_CONFIG
from repro.icp.contractor import contract
from repro.icp.hc4 import ConstraintTree, constraint_trees
from repro.intervals.box import Box
from repro.lang import ast


@dataclass(frozen=True)
class PavedBox:
    """One box of a paving, with its inner/boundary classification."""

    box: Box
    inner: bool

    def volume(self) -> float:
        """Volume of the underlying box."""
        return self.box.volume()


@dataclass(frozen=True)
class Paving:
    """Result of a paving query: boxes covering all solutions within ``domain``.

    ``boxes_explored`` and ``contraction_passes`` are solver-effort counters
    (heap pops and HC4 contraction calls); trivial pavings report zero.
    ``time_capped`` is True when the wall-clock budget stopped the search
    while some box was still worth splitting, so the paving depends on how
    fast the machine ran.
    """

    domain: Box
    boxes: Tuple[PavedBox, ...]
    boxes_explored: int = 0
    contraction_passes: int = 0
    time_capped: bool = False

    def is_unsatisfiable(self) -> bool:
        """True when the paving proves the constraints have no solution."""
        return not self.boxes

    def covered_volume(self) -> float:
        """Total volume of the reported boxes."""
        return sum(paved.volume() for paved in self.boxes)

    def inner_volume(self) -> float:
        """Total volume of the boxes proven to contain only solutions."""
        return sum(paved.volume() for paved in self.boxes if paved.inner)

    def covered_fraction(self) -> float:
        """Covered volume relative to the domain volume (in [0, 1])."""
        domain_volume = self.domain.volume()
        if domain_volume == 0.0:
            return 0.0
        return min(1.0, self.covered_volume() / domain_volume)

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)


class ICPSolver:
    """Interval-constraint-propagation paving solver (RealPaver substitute)."""

    def __init__(self, config: ICPConfig = PAPER_CONFIG) -> None:
        self._config = config

    @property
    def config(self) -> ICPConfig:
        """The solver configuration in use."""
        return self._config

    def pave(
        self,
        pc: ast.PathCondition,
        domain: Box,
        integer_variables: Sequence[str] = (),
    ) -> Paving:
        """Compute a paving of the solutions of ``pc`` within ``domain``.

        The domain must cover every free variable of ``pc`` with a bounded
        interval.  When the conjunction is empty (trivially true) the whole
        domain is returned as a single inner box.

        ``integer_variables`` names dimensions whose variables only take
        integer values (discrete usage-profile distributions): those are bisected
        on half-integer boundaries only — a split at an integer coordinate would
        leave the atom inside *both* closed sibling boxes, double-counting its
        probability mass in the stratified combination — and are considered
        unsplittable once they hold fewer than two atoms.
        """
        self._check_domain(pc, domain)
        if not pc.constraints:
            return Paving(domain, (PavedBox(domain, inner=True),))

        integers = frozenset(integer_variables)
        deadline = time.monotonic() + self._config.time_budget
        contraction_passes = 1
        boxes_explored = 0
        trees = constraint_trees(pc)

        initial = contract(pc, domain, self._config, trees)
        if initial is None:
            return Paving(domain, (), boxes_explored=0, contraction_passes=contraction_passes)

        # Best-first branch and prune: always refine the largest undecided box,
        # which yields the balanced pavings RealPaver reports and keeps stratum
        # weights comparable when the box budget is small.
        finished: List[PavedBox] = []
        counter = itertools.count()
        pending: List[Tuple[float, int, Box]] = []
        heapq.heappush(pending, (-initial.volume(), next(counter), initial))

        # Strict-inequality boundaries carry probability mass when any
        # variable is integer-supported, so inner certification must not use
        # the continuous measure-zero boundary slack there.
        strict = bool(integers)
        time_capped = False

        while pending:
            budget_left = self._config.max_boxes - len(finished) - len(pending)
            out_of_time = time.monotonic() >= deadline

            _, _, box = heapq.heappop(pending)
            boxes_explored += 1
            inner = self._is_inner(trees, box, strict)
            too_small = box.max_width() <= self._config.precision

            settled = inner or too_small or budget_left <= 0
            if settled or out_of_time:
                time_capped = time_capped or not settled
                finished.append(PavedBox(box, inner=inner))
                continue

            halves = self._split_box(box, integers)
            if halves is None:
                finished.append(PavedBox(box, inner=inner))
                continue
            for half in halves:
                contraction_passes += 1
                contracted = contract(pc, half, self._config, trees)
                if contracted is not None:
                    heapq.heappush(pending, (-contracted.volume(), next(counter), contracted))

        return Paving(
            domain,
            tuple(finished),
            boxes_explored=boxes_explored,
            contraction_passes=contraction_passes,
            time_capped=time_capped,
        )

    def _split_box(self, box: Box, integers: frozenset) -> Optional[Tuple[Box, Box]]:
        """Bisect the widest splittable dimension (half-integer cuts on integer dims).

        Returns None when no dimension can be split — every integer dimension
        holds at most one atom and every continuous dimension is a point — in
        which case the box is final.  Without integer dimensions this is
        exactly :meth:`Box.split` on the widest variable.
        """
        if not integers:
            return box.split()
        names = sorted(box.variables, key=lambda name: box.interval(name).width(), reverse=True)
        for name in names:
            interval = box.interval(name)
            if name in integers:
                first_atom = math.ceil(interval.lo)
                last_atom = math.floor(interval.hi)
                if last_atom - first_atom < 1:
                    continue
                at = (first_atom + last_atom) // 2 + 0.5
            else:
                if interval.width() <= 0.0:
                    continue
                at = interval.midpoint()
            if not interval.lo < at < interval.hi:
                continue
            return box.split(name, at)
        return None

    def _is_inner(self, trees: Sequence[ConstraintTree], box: Box, strict_boundaries: bool = False) -> bool:
        """True when every constraint certainly holds over the whole box."""
        return all(tree.certainly_holds(box, strict_boundaries) for tree in trees)

    def _check_domain(self, pc: ast.PathCondition, domain: Box) -> None:
        missing = sorted(pc.free_variables() - set(domain.variables))
        if missing:
            raise DomainError(f"domain does not cover variables {missing}")
        for name in pc.free_variables():
            if not domain.interval(name).is_bounded():
                raise DomainError(f"domain of variable {name!r} must be bounded for paving")


def pave(pc: ast.PathCondition, domain: Box, config: ICPConfig = PAPER_CONFIG) -> Paving:
    """Convenience wrapper: pave ``pc`` over ``domain`` with a fresh solver."""
    return ICPSolver(config).pave(pc, domain)
