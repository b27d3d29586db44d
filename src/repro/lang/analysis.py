"""Structural analyses over constraints: statistics and factor extraction.

These helpers back two parts of the paper:

* the per-subject statistics reported in Table 3 (number of paths, number of
  conjuncts, number of arithmetic operations and distinct operator kinds);
* the ``extractRelatedConstraints`` step of Algorithm 2, which projects the
  conjuncts of a path condition onto one block of the variable partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lang import ast


@dataclass(frozen=True)
class ConstraintSetStatistics:
    """Size statistics of a constraint set, as reported in the paper's Table 3."""

    path_count: int
    conjunct_count: int
    arithmetic_operation_count: int
    distinct_operation_count: int
    variable_count: int


def constraint_set_statistics(constraint_set: ast.ConstraintSet) -> ConstraintSetStatistics:
    """Compute path/conjunct/operation counts for a constraint set."""
    conjuncts = 0
    arithmetic_operations = 0
    operation_kinds: Set[str] = set()
    variables: Set[str] = set()

    for pc in constraint_set.path_conditions:
        conjuncts += len(pc.constraints)
        variables |= pc.free_variables()
        for constraint in pc.constraints:
            for side in (constraint.left, constraint.right):
                histogram = ast.count_operations(side)
                for kind, count in histogram.items():
                    arithmetic_operations += count
                    operation_kinds.add(kind)

    return ConstraintSetStatistics(
        path_count=len(constraint_set.path_conditions),
        conjunct_count=conjuncts,
        arithmetic_operation_count=arithmetic_operations,
        distinct_operation_count=len(operation_kinds),
        variable_count=len(variables),
    )


def extract_related_constraints(pc: ast.PathCondition, variable_block: Iterable[str]) -> ast.PathCondition:
    """Project ``pc`` onto the conjuncts mentioning any variable in ``variable_block``.

    This is the paper's ``extractRelatedConstraints`` (Algorithm 2): given one
    block of the partition induced by the dependency relation, return the
    conjunction of the constraints that predicate on variables of that block.
    Because the blocks are closed under the dependency relation, a conjunct
    either mentions only variables of the block or none of them.
    """
    block = frozenset(variable_block)
    selected = [c for c in pc.constraints if c.free_variables() & block]
    return ast.PathCondition.of(selected, pc.label)


def group_constraints_by_block(
    pc: ast.PathCondition,
    blocks: Sequence[FrozenSet[str]],
    memo: Optional[Dict[int, Tuple[ast.Constraint, FrozenSet[str]]]] = None,
) -> List[Tuple[FrozenSet[str], ast.PathCondition]]:
    """Split ``pc`` into per-block factors, in the order of ``blocks``.

    Each block's factor is :func:`extract_related_constraints` of ``pc``.
    Blocks whose factor is empty (no conjunct of ``pc`` mentions them) are
    skipped: they contribute a factor with probability one and can be ignored.

    ``memo`` lets a caller splitting many path conditions that share conjunct
    objects walk each object's variables once: it maps ``id(constraint)`` to
    the constraint (kept alive, so the id stays its own) and its free
    variables.
    """
    if memo is None:
        memo = {}
    conjuncts: List[Tuple[ast.Constraint, FrozenSet[str]]] = []
    for constraint in pc.constraints:
        entry = memo.get(id(constraint))
        if entry is None:
            entry = memo[id(constraint)] = (constraint, constraint.free_variables())
        conjuncts.append(entry)
    factors: List[Tuple[FrozenSet[str], ast.PathCondition]] = []
    for block in blocks:
        selected = [constraint for constraint, names in conjuncts if names & block]
        if selected:
            factors.append((block, ast.PathCondition.of(selected, pc.label)))
    return factors


def shared_constraints(constraint_set: ast.ConstraintSet) -> Dict[str, int]:
    """Histogram of canonical conjunct texts across all path conditions.

    Conjuncts with a count greater than one are exactly the constraints whose
    estimates the PARTCACHE feature can reuse across paths.
    """
    histogram: Dict[str, int] = {}
    for pc in constraint_set.path_conditions:
        for constraint in pc.constraints:
            key = constraint.canonical()
            histogram[key] = histogram.get(key, 0) + 1
    return histogram
