"""The recursive HC4 walk, kept as the reference the flat tape is held to.

:class:`~repro.icp.hc4.ConstraintTree` runs HC4's two sweeps on a flat tape
of float bounds.  This module keeps the readable form they were first
written in: a recursive walk over :class:`_Node` objects with
:class:`~repro.intervals.interval.Interval` arithmetic.  The tape reproduces
it bit for bit (same outward rounding, same ``max``/``min`` argument order,
same emptiness decisions, same errors), and the tests and benchmarks compare
the two bound for bound and paving for paving.

The function projections (:func:`~repro.icp.hc4._project_call`), the square
and integer-exponent tests and the certainty rule are shared with the tape,
imported from :mod:`repro.icp.hc4`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ICPError
from repro.icp.hc4 import (
    _ROOT_PAD,
    _certainly_holds,
    _integer_exponent,
    _is_square,
    _project_call,
    relation_range,
)
from repro.intervals.box import Box
from repro.intervals.functions import apply_function
from repro.intervals.interval import ENTIRE, Interval
from repro.lang import ast


@dataclass
class _Node:
    """Mutable evaluation-tree node used by the two reference sweeps.

    ``square`` marks ``e * e`` products, decided once when the tree is
    built.  Every forward sweep overwrites ``value`` on every node, so a tree
    can be swept again over any number of boxes.
    """

    expression: ast.Expression
    children: List["_Node"] = field(default_factory=list)
    value: Interval = ENTIRE
    square: bool = False


# --------------------------------------------------------------------------- #
# Forward sweep
# --------------------------------------------------------------------------- #
def _build_tree(expression: ast.Expression) -> _Node:
    square = isinstance(expression, ast.BinaryOp) and expression.operator == "*" and _is_square(expression)
    return _Node(expression, [_build_tree(child) for child in expression.children()], square=square)


def _forward(node: _Node, box: Box) -> Interval:
    expression = node.expression
    for child in node.children:
        _forward(child, box)

    if isinstance(expression, ast.Constant):
        node.value = Interval.point(expression.value)
    elif isinstance(expression, ast.Variable):
        node.value = box.interval(expression.name) if expression.name in box else ENTIRE
    elif isinstance(expression, ast.UnaryOp):
        node.value = -node.children[0].value
    elif isinstance(expression, ast.BinaryOp):
        left = node.children[0].value
        right = node.children[1].value
        if node.square:
            # ``e * e`` is a square: the tight enclosure avoids the spurious
            # negative range of the generic product rule.
            node.value = left.sqr()
        else:
            node.value = _forward_binary(expression.operator, left, right)
    elif isinstance(expression, ast.FunctionCall):
        arguments = [child.value for child in node.children]
        node.value = apply_function(expression.name, arguments)
    else:  # pragma: no cover - defensive
        raise ICPError(f"cannot evaluate node of type {type(expression).__name__}")
    return node.value


def _forward_binary(operator: str, left: Interval, right: Interval) -> Interval:
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if operator == "/":
        return left / right
    raise ICPError(f"unknown binary operator {operator!r}")


def evaluate_interval(expression: ast.Expression, box: Box) -> Interval:
    """Interval enclosure of ``expression`` over ``box`` (forward sweep only).

    The same rules as :func:`_forward`, walked straight over the expression:
    a one-shot enclosure needs no tree to keep node values in.
    """
    if isinstance(expression, ast.Constant):
        return Interval.point(expression.value)
    if isinstance(expression, ast.Variable):
        return box.interval(expression.name) if expression.name in box else ENTIRE
    if isinstance(expression, ast.UnaryOp):
        return -evaluate_interval(expression.operand, box)
    if isinstance(expression, ast.BinaryOp):
        left = evaluate_interval(expression.left, box)
        right = evaluate_interval(expression.right, box)
        if expression.operator == "*" and _is_square(expression):
            return left.sqr()
        return _forward_binary(expression.operator, left, right)
    if isinstance(expression, ast.FunctionCall):
        return apply_function(expression.name, [evaluate_interval(argument, box) for argument in expression.arguments])
    raise ICPError(f"cannot evaluate node of type {type(expression).__name__}")  # pragma: no cover


class ReferenceTree:
    """One constraint's ``left - right`` tree of :class:`_Node` objects.

    The recursive reference for :class:`~repro.icp.hc4.ConstraintTree`: the
    same three methods, computed with :class:`Interval` arithmetic one node
    object at a time.  :func:`hc4_revise` runs it.
    """

    __slots__ = ("constraint", "root")

    def __init__(self, constraint: ast.Constraint) -> None:
        self.constraint = constraint
        self.root = _build_tree(ast.BinaryOp("-", constraint.left, constraint.right))

    def certainly_holds(self, box: Box, strict_boundaries: bool = False) -> bool:
        """:func:`constraint_certainly_holds` on this tree."""
        return _certainly_holds(self.constraint.operator, _forward(self.root, box), strict_boundaries)

    def certainly_fails(self, box: Box) -> bool:
        """:func:`constraint_certainly_fails` on this tree."""
        return _certainly_fails(self.constraint.operator, _forward(self.root, box))

    def revise(self, box: Box) -> Optional[Box]:
        """:func:`hc4_revise` on this tree."""
        value = _forward(self.root, box)
        feasible = value.intersect(relation_range(self.constraint.operator))
        if feasible.is_empty():
            return None
        domains: Dict[str, Interval] = {name: iv for name, iv in box.items()}
        if not _backward(self.root, feasible, domains):
            return None
        return Box(domains)


def constraint_range(constraint: ast.Constraint, box: Box) -> Interval:
    """Interval enclosure of ``left - right`` for a constraint over ``box``."""
    return evaluate_interval(ast.BinaryOp("-", constraint.left, constraint.right), box)


def constraint_certainly_holds(constraint: ast.Constraint, box: Box, strict_boundaries: bool = False) -> bool:
    """True when every point of ``box`` satisfies ``constraint``.

    See :meth:`~repro.icp.hc4.ConstraintTree.certainly_holds` for what
    ``strict_boundaries`` changes.
    """
    return _certainly_holds(constraint.operator, constraint_range(constraint, box), strict_boundaries)


def constraint_certainly_fails(constraint: ast.Constraint, box: Box) -> bool:
    """True when no point of ``box`` satisfies ``constraint``."""
    return _certainly_fails(constraint.operator, constraint_range(constraint, box))


def _certainly_fails(operator: str, value: Interval) -> bool:
    if value.is_empty():
        return True
    return value.intersect(relation_range(operator)).is_empty()


# --------------------------------------------------------------------------- #
# Backward sweep
# --------------------------------------------------------------------------- #
def hc4_revise(constraint: ast.Constraint, box: Box) -> Optional[Box]:
    """Contract ``box`` with respect to one constraint.

    Returns the contracted box, or ``None`` when the constraint is certainly
    unsatisfiable over ``box``.  Runs the recursive :class:`ReferenceTree`.
    """
    return ReferenceTree(constraint).revise(box)


def _backward(node: _Node, projected: Interval, domains: Dict[str, Interval]) -> bool:
    """Push ``projected`` (the feasible range of ``node``) down the tree.

    Returns False as soon as some variable domain becomes empty.
    """
    value = node.value.intersect(projected)
    if value.is_empty():
        return False
    node.value = value
    expression = node.expression

    if isinstance(expression, ast.Constant):
        return True

    if isinstance(expression, ast.Variable):
        name = expression.name
        if name in domains:
            narrowed = domains[name].intersect(value)
            if narrowed.is_empty():
                return False
            domains[name] = narrowed
        return True

    if isinstance(expression, ast.UnaryOp):
        return _backward(node.children[0], -value, domains)

    if isinstance(expression, ast.BinaryOp):
        return _backward_binary(expression.operator, node, value, domains)

    if isinstance(expression, ast.FunctionCall):
        children = node.children
        power = _integer_exponent(children[1].expression) if expression.name == "pow" else None
        projections = _project_call(expression.name, value, [child.value for child in children], power)
        if projections is None:
            return False
        return all(_backward(child, projected, domains) for child, projected in zip(children, projections))

    raise ICPError(f"cannot project node of type {type(expression).__name__}")  # pragma: no cover


def _backward_binary(operator: str, node: _Node, value: Interval, domains: Dict[str, Interval]) -> bool:
    left_node, right_node = node.children
    left, right = left_node.value, right_node.value

    if node.square:
        # Invert the square: |e| <= sqrt(max feasible value).
        feasible = value.intersect(Interval(0.0, math.inf))
        if feasible.is_empty():
            return False
        if math.isfinite(feasible.hi):
            root = math.sqrt(feasible.hi) * (1.0 + _ROOT_PAD)
            bound = Interval(-root, root)
        else:
            bound = ENTIRE
        return _backward(left_node, left.intersect(bound), domains) and _backward(
            right_node, right.intersect(bound), domains
        )

    if operator == "+":
        new_left = value - right
        new_right = value - left
    elif operator == "-":
        new_left = value + right
        new_right = left - value
    elif operator == "*":
        new_left = _project_factor(value, right, left)
        new_right = _project_factor(value, left, right)
    elif operator == "/":
        new_left = value * right
        new_right = _project_factor(left, value, right)
    else:  # pragma: no cover - defensive
        raise ICPError(f"unknown binary operator {operator!r}")

    return _backward(left_node, new_left, domains) and _backward(right_node, new_right, domains)


def _project_factor(product: Interval, other: Interval, current: Interval) -> Interval:
    """Feasible values of one factor given the product and the other factor.

    When the other factor straddles zero, exact projection would require a
    union of two intervals; returning the current enclosure keeps the
    contraction conservative.
    """
    if other.contains(0.0):
        return current
    return product / other
