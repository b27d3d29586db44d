"""Expression and constraint simplification.

Simplification serves two purposes in the reproduction:

* **Canonicalisation** — cache keys for the PARTCACHE feature are built from
  simplified, canonically-printed factors, so syntactically different but
  structurally identical sub-constraints share one cache entry.
* **Performance** — constant sub-expressions produced by the symbolic executor
  (for instance concrete intermediate values folded into a path condition) are
  collapsed before the ICP solver and the samplers see them.

The rewrites are deliberately conservative: only transformations that are exact
over the reals *and* over IEEE floating point for the operand values involved
are applied (constant folding uses the same float semantics as the evaluator).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.lang import ast
from repro.lang.evaluator import evaluate


def simplify_expression(expression: ast.Expression) -> ast.Expression:
    """Bottom-up constant folding and identity elimination."""
    if isinstance(expression, (ast.Constant, ast.Variable)):
        return expression

    if isinstance(expression, ast.UnaryOp):
        operand = simplify_expression(expression.operand)
        if isinstance(operand, ast.Constant):
            return ast.Constant(-operand.value)
        if isinstance(operand, ast.UnaryOp) and operand.operator == "-":
            return operand.operand  # double negation
        return ast.UnaryOp(expression.operator, operand)

    if isinstance(expression, ast.BinaryOp):
        left = simplify_expression(expression.left)
        right = simplify_expression(expression.right)
        folded = _fold_binary(expression.operator, left, right)
        if folded is not None:
            return folded
        return ast.BinaryOp(expression.operator, left, right)

    if isinstance(expression, ast.FunctionCall):
        arguments = tuple(simplify_expression(argument) for argument in expression.arguments)
        if all(isinstance(argument, ast.Constant) for argument in arguments):
            call = ast.FunctionCall(expression.name, arguments)
            value = evaluate(call, {})
            if math.isfinite(value):
                return ast.Constant(value)
            return call
        return ast.FunctionCall(expression.name, arguments)

    return expression


def _fold_binary(operator: str, left: ast.Expression, right: ast.Expression) -> Optional[ast.Expression]:
    """Constant folding and neutral-element elimination for a binary node."""
    left_const = left.value if isinstance(left, ast.Constant) else None
    right_const = right.value if isinstance(right, ast.Constant) else None

    if left_const is not None and right_const is not None:
        value = evaluate(ast.BinaryOp(operator, left, right), {})
        if not math.isnan(value):
            return ast.Constant(value)
        return None

    if operator == "+":
        if left_const == 0.0:
            return right
        if right_const == 0.0:
            return left
    elif operator == "-":
        if right_const == 0.0:
            return left
    elif operator == "*":
        if left_const == 1.0:
            return right
        if right_const == 1.0:
            return left
        if left_const == 0.0 or right_const == 0.0:
            return ast.Constant(0.0)
    elif operator == "/":
        if right_const == 1.0:
            return left
    return None


def simplify_constraint(constraint: ast.Constraint) -> ast.Constraint:
    """Simplify both sides of an atomic constraint."""
    return ast.Constraint(
        constraint.operator,
        simplify_expression(constraint.left),
        simplify_expression(constraint.right),
    )


def simplify_path_condition(
    pc: ast.PathCondition,
    memo: Optional[Dict[int, Tuple[ast.Constraint, ast.Constraint, str]]] = None,
) -> ast.PathCondition:
    """Simplify every conjunct, dropping exact duplicates.

    Duplicate conjuncts are common in symbolic-execution output (the same
    branch condition re-checked inside a loop body); removing them shrinks the
    work done by both the ICP solver and the samplers without changing the
    solution set.

    ``memo`` lets a caller simplifying many path conditions that share
    conjunct *objects* (symbolic execution shares them between paths)
    simplify each object once: it maps ``id(constraint)`` to the constraint
    (kept alive, so the id stays its own), its simplified form and that
    form's canonical text.
    """
    if memo is None:
        memo = {}
    seen = set()
    simplified = []
    for constraint in pc.constraints:
        entry = memo.get(id(constraint))
        if entry is None:
            reduced = simplify_constraint(constraint)
            entry = memo[id(constraint)] = (constraint, reduced, reduced.canonical())
        _, reduced, key = entry
        if key not in seen:
            seen.add(key)
            simplified.append(reduced)
    return ast.PathCondition.of(simplified, pc.label)


def simplify_constraint_set(constraint_set: ast.ConstraintSet) -> ast.ConstraintSet:
    """Simplify every member path condition of a disjunction."""
    return ast.ConstraintSet.of(
        (simplify_path_condition(pc) for pc in constraint_set.path_conditions),
        constraint_set.name,
    )
