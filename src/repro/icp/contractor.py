"""Constraint-set contraction: fixpoint iteration of HC4-revise.

The contractor narrows a box against *all* conjuncts of a path condition,
repeating the sweep until either the box stops shrinking appreciably or the
configured iteration budget is exhausted.  The result is always a box that
contains every solution of the conjunction lying in the input box (or ``None``
when the conjunction is certainly unsatisfiable there).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.icp.config import ICPConfig, PAPER_CONFIG
from repro.icp.hc4 import ConstraintTree, constraint_trees
from repro.intervals.box import Box
from repro.lang import ast


def contract(
    pc: ast.PathCondition,
    box: Box,
    config: ICPConfig = PAPER_CONFIG,
    trees: Optional[Sequence[ConstraintTree]] = None,
) -> Optional[Box]:
    """Contract ``box`` with respect to every conjunct of ``pc``.

    Returns the narrowed box, or ``None`` when some conjunct is certainly
    unsatisfiable over the box (the conjunction has no solution there).
    ``trees`` are ``pc``'s :func:`constraint_trees`; callers contracting many
    boxes pass them in so they are built once.
    """
    if box.is_empty():
        return None
    if trees is None:
        trees = constraint_trees(pc)
    current = box
    for _ in range(config.max_contractor_iterations):
        previous = current
        for tree in trees:
            narrowed = tree.revise(current)
            if narrowed is None:
                return None
            current = narrowed
        if not _made_progress(previous, current, config.contraction_tolerance):
            break
    return current


def _made_progress(before: Box, after: Box, tolerance: float) -> bool:
    """True when at least one dimension shrank by more than ``tolerance`` (relative)."""
    for name, old_interval in before.items():
        new_interval = after.interval(name)
        old_width = old_interval.width()
        if old_width == 0.0:
            continue
        reduction = (old_width - new_interval.width()) / old_width
        if reduction > tolerance:
            return True
    return False
