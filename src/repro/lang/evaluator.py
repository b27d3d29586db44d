"""Concrete (floating-point) evaluation of expressions and constraints.

This evaluator defines the semantics against which everything else is checked:
the hit-or-miss Monte Carlo sampler uses it as its oracle (a sample is a "hit"
when :func:`holds_path_condition` returns True), and the interval evaluator and
ICP solver are validated against it by property tests.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping, Sequence

from repro.errors import EvaluationError, UnknownFunctionError, UnknownVariableError
from repro.lang import ast

Assignment = Mapping[str, float]

_UNARY_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "asin": math.asin,
    "acos": math.acos,
    "atan": math.atan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "log": math.log,
    "log10": math.log10,
    "sqrt": math.sqrt,
    "abs": abs,
}

_BINARY_FUNCTIONS: Dict[str, Callable[[float, float], float]] = {
    "pow": math.pow,
    "atan2": math.atan2,
    "min": min,
    "max": max,
}

_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def evaluate(expression: ast.Expression, assignment: Assignment) -> float:
    """Evaluate ``expression`` under the variable ``assignment``.

    Domain errors of the underlying math functions (``sqrt`` of a negative
    number, ``log`` of zero, division by zero) are reported as NaN or signed
    infinity rather than exceptions, mirroring the behaviour of the Java
    floating-point programs the paper analyses: such points simply fail to
    satisfy the constraints that mention them.
    """
    if isinstance(expression, ast.Constant):
        return expression.value

    if isinstance(expression, ast.Variable):
        try:
            return float(assignment[expression.name])
        except KeyError as exc:
            raise UnknownVariableError(expression.name) from exc

    if isinstance(expression, ast.UnaryOp):
        value = evaluate(expression.operand, assignment)
        if expression.operator == "-":
            return -value
        raise EvaluationError(f"unknown unary operator {expression.operator!r}")

    if isinstance(expression, ast.BinaryOp):
        left = evaluate(expression.left, assignment)
        right = evaluate(expression.right, assignment)
        return _apply_binary_operator(expression.operator, left, right)

    if isinstance(expression, ast.FunctionCall):
        arguments = [evaluate(argument, assignment) for argument in expression.arguments]
        return _apply_function(expression.name, arguments)

    raise EvaluationError(f"cannot evaluate node of type {type(expression).__name__}")


def _apply_binary_operator(operator: str, left: float, right: float) -> float:
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if operator == "/":
        if right == 0.0:
            if left == 0.0:
                return math.nan
            return math.copysign(math.inf, left) * math.copysign(1.0, right)
        return left / right
    raise EvaluationError(f"unknown binary operator {operator!r}")


def _apply_function(name: str, arguments: Sequence[float]) -> float:
    if name in _UNARY_FUNCTIONS:
        if len(arguments) != 1:
            raise EvaluationError(f"function {name!r} expects 1 argument, got {len(arguments)}")
        try:
            return _UNARY_FUNCTIONS[name](arguments[0])
        except (ValueError, OverflowError):
            return math.nan
    if name in _BINARY_FUNCTIONS:
        if len(arguments) != 2:
            raise EvaluationError(f"function {name!r} expects 2 arguments, got {len(arguments)}")
        try:
            return _BINARY_FUNCTIONS[name](arguments[0], arguments[1])
        except (ValueError, OverflowError):
            return math.nan
    raise UnknownFunctionError(name)


def holds(constraint: ast.Constraint, assignment: Assignment) -> bool:
    """True when ``assignment`` satisfies the atomic ``constraint``.

    Comparisons involving NaN are unsatisfied, matching IEEE semantics.
    """
    left = evaluate(constraint.left, assignment)
    right = evaluate(constraint.right, assignment)
    if math.isnan(left) or math.isnan(right):
        return constraint.operator == "!=" and not (math.isnan(left) and math.isnan(right))
    return _COMPARATORS[constraint.operator](left, right)


def holds_path_condition(pc: ast.PathCondition, assignment: Assignment) -> bool:
    """True when ``assignment`` satisfies every conjunct of ``pc``."""
    return all(holds(constraint, assignment) for constraint in pc.constraints)


def holds_any(constraint_set: ast.ConstraintSet, assignment: Assignment) -> bool:
    """Indicator function of the paper's Equation (1): any PC satisfied."""
    return any(holds_path_condition(pc, assignment) for pc in constraint_set.path_conditions)
