"""HC4-revise: forward interval evaluation and backward constraint projection.

The HC4 algorithm (Benhamou et al.) contracts a box with respect to a single
constraint in two sweeps over the expression tree:

* the **forward** sweep computes an interval enclosure for every node given
  the current variable domains;
* the **backward** sweep pushes the constraint's feasible output range back
  down the tree, narrowing the node enclosures and ultimately the variable
  domains.

Every projection implemented here is *conservative*: when the exact inverse
image is expensive to compute (periodic functions, ``atan2``, ``min``/``max``)
the projection simply leaves the operand enclosure unchanged, which never
removes a solution.  This matches the paper's soundness requirement — the
union of reported boxes must contain all solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ICPError
from repro.intervals.box import Box
from repro.intervals.functions import (
    apply_function,
    integer_power,
    interval_exp,
    interval_log,
    interval_tan,
)
from repro.intervals.interval import EMPTY, ENTIRE, Interval
from repro.lang import ast

#: Feasible range of ``left - right`` for each comparison operator.  Strict and
#: non-strict inequalities share the same closed range: the boundary has zero
#: measure, and including it keeps the enclosure sound.
_RELATION_RANGES: Dict[str, Interval] = {
    "<=": Interval(-math.inf, 0.0),
    "<": Interval(-math.inf, 0.0),
    ">=": Interval(0.0, math.inf),
    ">": Interval(0.0, math.inf),
    "==": Interval(0.0, 0.0),
    "!=": ENTIRE,
}


@dataclass
class _Node:
    """Mutable evaluation-tree node used by the two HC4 sweeps.

    ``square`` marks ``e * e`` products, decided once when the tree is
    built.  Every forward sweep overwrites ``value`` on every node, so a tree
    can be swept again over any number of boxes.
    """

    expression: ast.Expression
    children: List["_Node"] = field(default_factory=list)
    value: Interval = ENTIRE
    square: bool = False


def relation_range(operator: str) -> Interval:
    """Feasible interval of ``left - right`` for a comparison operator."""
    try:
        return _RELATION_RANGES[operator]
    except KeyError as exc:
        raise ICPError(f"unsupported comparison operator {operator!r}") from exc


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


class ConstraintTree:
    """One constraint's ``left - right`` tree, built once and swept per box.

    Building the tree (and deciding which products are squares) costs more
    than a sweep, so the paving solver and the contractor build one tree per
    constraint per query and reuse it for every box they visit.  A tree is
    mutable scratch space: share it within one thread only.
    """

    __slots__ = ("constraint", "root")

    def __init__(self, constraint: ast.Constraint) -> None:
        self.constraint = constraint
        self.root = _build_tree(ast.BinaryOp("-", constraint.left, constraint.right))

    def certainly_holds(self, box: Box, strict_boundaries: bool = False) -> bool:
        """:func:`constraint_certainly_holds` on this tree."""
        return _certainly_holds(self.constraint.operator, _forward(self.root, box), strict_boundaries)

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


def constraint_trees(pc: ast.PathCondition) -> Tuple[ConstraintTree, ...]:
    """One :class:`ConstraintTree` per conjunct of ``pc``, in order."""
    return tuple(ConstraintTree(constraint) for constraint in pc.constraints)


def constraint_range(constraint: ast.Constraint, box: Box) -> Interval:
    """Interval enclosure of ``left - right`` for a constraint over ``box``."""
    return evaluate_interval(ast.BinaryOp("-", constraint.left, constraint.right), box)


#: Tolerance used when classifying a box as certainly satisfying a constraint.
#: The outward rounding of interval arithmetic can push an exact boundary a few
#: ULPs past zero; since the boundary itself has measure zero, absorbing that
#: slack keeps "inner" classification useful without affecting soundness of the
#: probability estimate beyond floating-point noise.
_CERTAINTY_TOLERANCE = 1e-12


def constraint_certainly_holds(constraint: ast.Constraint, box: Box, strict_boundaries: bool = False) -> bool:
    """True when every point of ``box`` satisfies ``constraint``.

    Used to classify paving boxes as *inner* (tight) boxes: sampling inside an
    inner box is unnecessary because the hit ratio is exactly one.

    The default mode grants the strict operators ``<`` and ``>`` the same
    floating-point boundary slack as their non-strict counterparts: under a
    continuous profile the boundary set has probability zero, so a box that
    touches it is still "inner up to measure zero".  That argument breaks for
    integer-supported profiles — an atom sitting exactly on the boundary of a
    strict inequality carries positive mass but does *not* satisfy it — so
    callers classifying boxes over discrete variables must pass
    ``strict_boundaries=True``, which requires the whole enclosure to clear
    the boundary with no slack (boundary-touching boxes stay undecided and
    get sampled, which is unbiased).
    """
    return _certainly_holds(constraint.operator, constraint_range(constraint, box), strict_boundaries)


def _certainly_holds(operator: str, value: Interval, strict_boundaries: bool) -> bool:
    if value.is_empty():
        return False
    slack = _CERTAINTY_TOLERANCE * max(1.0, value.magnitude())
    if operator == "<":
        return value.hi < 0.0 if strict_boundaries else value.hi <= slack
    if operator == ">":
        return value.lo > 0.0 if strict_boundaries else value.lo >= -slack
    if operator == "<=":
        return value.hi <= slack
    if operator == ">=":
        return value.lo >= -slack
    if operator == "==":
        return value.magnitude() <= slack
    if operator == "!=":
        return not value.contains(0.0)
    raise ICPError(f"unsupported comparison operator {operator!r}")


def constraint_certainly_fails(constraint: ast.Constraint, box: Box) -> bool:
    """True when no point of ``box`` satisfies ``constraint``."""
    value = constraint_range(constraint, box)
    if value.is_empty():
        return True
    feasible = relation_range(constraint.operator)
    return value.intersect(feasible).is_empty()


# --------------------------------------------------------------------------- #
# Backward sweep
# --------------------------------------------------------------------------- #
def hc4_revise(constraint: ast.Constraint, box: Box) -> Optional[Box]:
    """Contract ``box`` with respect to one constraint.

    Returns the contracted box, or ``None`` when the constraint is certainly
    unsatisfiable over ``box``.
    """
    return ConstraintTree(constraint).revise(box)


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
        return _backward_function(expression.name, node, value, domains)

    raise ICPError(f"cannot project node of type {type(expression).__name__}")  # pragma: no cover


def _is_square(expression: ast.BinaryOp) -> bool:
    """True for products of the form ``e * e`` (syntactically identical factors)."""
    return expression.left.canonical() == expression.right.canonical()


def _backward_binary(operator: str, node: _Node, value: Interval, domains: Dict[str, Interval]) -> bool:
    left_node, right_node = node.children
    left, right = left_node.value, right_node.value

    if node.square:
        # Invert the square: |e| <= sqrt(max feasible value).
        feasible = value.intersect(Interval(0.0, math.inf))
        if feasible.is_empty():
            return False
        if math.isfinite(feasible.hi):
            root = math.sqrt(feasible.hi) * (1.0 + 1e-12)
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


def _backward_function(name: str, node: _Node, value: Interval, domains: Dict[str, Interval]) -> bool:
    children = node.children

    if name == "sqrt":
        argument = value.intersect(Interval(0.0, math.inf)).sqr()
        return _backward(children[0], argument.hull(Interval.point(0.0)) if argument.is_empty() else argument, domains)
    if name == "exp":
        return _backward(children[0], interval_log(value), domains)
    if name == "log":
        return _backward(children[0], interval_exp(value), domains)
    if name == "abs":
        bound = value.intersect(Interval(0.0, math.inf))
        if bound.is_empty():
            return False
        return _backward(children[0], Interval(-bound.hi, bound.hi), domains)
    if name == "atan":
        clipped = value.intersect(Interval(-math.pi / 2, math.pi / 2))
        if clipped.is_empty():
            return False
        return _backward(children[0], interval_tan(clipped), domains)
    if name == "tanh":
        clipped = value.intersect(Interval(-1.0, 1.0))
        if clipped.is_empty():
            return False
        return _backward(children[0], children[0].value, domains)
    if name in ("sin", "cos"):
        feasible_output = value.intersect(Interval(-1.0, 1.0))
        if feasible_output.is_empty():
            return False
        return _backward(children[0], children[0].value, domains)
    if name == "pow":
        return _backward_pow(node, value, domains)
    if name in ("asin", "acos", "tan", "sinh", "cosh", "log10", "atan2", "min", "max"):
        # Conservative: keep the operand enclosures unchanged.
        return all(_backward(child, child.value, domains) for child in children)

    # Unknown functions never prune.
    return all(_backward(child, child.value, domains) for child in children)


def _backward_pow(node: _Node, value: Interval, domains: Dict[str, Interval]) -> bool:
    base_node, exponent_node = node.children
    exponent = exponent_node.expression
    if isinstance(exponent, ast.Constant) and float(exponent.value).is_integer():
        power = int(exponent.value)
        projected = _invert_integer_power(value, base_node.value, power)
        return _backward(base_node, projected, domains) and _backward(exponent_node, exponent_node.value, domains)
    # Non-integer exponents: no pruning of the base, only of the sign domain.
    return _backward(base_node, base_node.value, domains) and _backward(exponent_node, exponent_node.value, domains)


def _invert_integer_power(value: Interval, base: Interval, power: int) -> Interval:
    """Enclosure of the bases whose ``power``-th power lies in ``value``."""
    if power == 0:
        return base
    if value.is_empty():
        return EMPTY
    if power > 0 and power % 2 == 0:
        upper = value.intersect(Interval(0.0, math.inf))
        if upper.is_empty():
            return EMPTY
        root = upper.hi ** (1.0 / power) if math.isfinite(upper.hi) else math.inf
        return base.intersect(Interval(-root, root))
    if power > 0:
        lo = _signed_root(value.lo, power)
        hi = _signed_root(value.hi, power)
        return base.intersect(Interval(lo, hi))
    # Negative powers: give up on pruning, stay conservative.
    return base


def _signed_root(value: float, power: int) -> float:
    """Real ``power``-th root of ``value`` for odd ``power`` (sign preserving)."""
    if value == math.inf or value == -math.inf:
        return value
    magnitude = abs(value) ** (1.0 / power)
    return math.copysign(magnitude, value)
