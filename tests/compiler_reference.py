"""The closure-tree constraint compiler, kept as the oracle the fused kernels are held to.

:mod:`repro.lang.kernel` lowers a whole path condition into one generated
NumPy function.  This module compiles the same constraints the plain way:
every AST node becomes one closure over whole NumPy arrays of samples, with
one intermediate array per node and every constant materialised with
``np.full``.  The kernel tests and ``benchmarks/bench_kernels.py`` hold the
fused kernels to these closures bit for bit.

The compiled semantics matches :mod:`repro.lang.evaluator` point-wise: domain
errors (square roots of negatives, logs of non-positives, division by zero)
produce NaN/inf entries, and comparisons involving NaN are unsatisfied, so a
sample hitting a domain error simply does not count as a hit.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import EvaluationError, UnknownFunctionError, UnknownVariableError
from repro.lang import ast
from repro.lang.kernel import CompiledPredicate, SampleBatch, _batch_length

#: Compiled expression: sample batch -> array of floats.
CompiledExpression = Callable[[SampleBatch], np.ndarray]


_UNARY_UFUNCS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "asin": np.arcsin,
    "acos": np.arccos,
    "atan": np.arctan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "log10": np.log10,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_BINARY_UFUNCS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "pow": np.power,
    "atan2": np.arctan2,
    "min": np.minimum,
    "max": np.maximum,
}

_COMPARISON_UFUNCS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "<=": np.less_equal,
    "<": np.less,
    ">=": np.greater_equal,
    ">": np.greater,
    "==": np.equal,
    "!=": np.not_equal,
}


def compile_expression(expression: ast.Expression) -> CompiledExpression:
    """Compile an expression into a vectorised evaluator."""
    if isinstance(expression, ast.Constant):
        value = float(expression.value)

        def eval_constant(batch: SampleBatch, _value: float = value) -> np.ndarray:
            length = _batch_length(batch)
            return np.full(length, _value)

        return eval_constant

    if isinstance(expression, ast.Variable):
        name = expression.name

        def eval_variable(batch: SampleBatch, _name: str = name) -> np.ndarray:
            try:
                return np.asarray(batch[_name], dtype=float)
            except KeyError as exc:
                raise UnknownVariableError(_name) from exc

        return eval_variable

    if isinstance(expression, ast.UnaryOp):
        operand = compile_expression(expression.operand)
        if expression.operator != "-":
            raise EvaluationError(f"unknown unary operator {expression.operator!r}")

        def eval_negation(batch: SampleBatch) -> np.ndarray:
            return -operand(batch)

        return eval_negation

    if isinstance(expression, ast.BinaryOp):
        return _compile_binary(expression)

    if isinstance(expression, ast.FunctionCall):
        return _compile_call(expression)

    raise EvaluationError(f"cannot compile node of type {type(expression).__name__}")


def _compile_binary(expression: ast.BinaryOp) -> CompiledExpression:
    left = compile_expression(expression.left)
    right = compile_expression(expression.right)
    operator = expression.operator

    if operator == "+":
        return lambda batch: left(batch) + right(batch)
    if operator == "-":
        return lambda batch: left(batch) - right(batch)
    if operator == "*":
        return lambda batch: left(batch) * right(batch)
    if operator == "/":

        def eval_division(batch: SampleBatch) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                return left(batch) / right(batch)

        return eval_division
    raise EvaluationError(f"unknown binary operator {operator!r}")


def _compile_call(expression: ast.FunctionCall) -> CompiledExpression:
    name = expression.name
    compiled_args = [compile_expression(argument) for argument in expression.arguments]

    if name in _UNARY_UFUNCS:
        if len(compiled_args) != 1:
            raise EvaluationError(f"function {name!r} expects 1 argument, got {len(compiled_args)}")
        ufunc = _UNARY_UFUNCS[name]
        argument = compiled_args[0]

        def eval_unary(batch: SampleBatch) -> np.ndarray:
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                return ufunc(argument(batch))

        return eval_unary

    if name in _BINARY_UFUNCS:
        if len(compiled_args) != 2:
            raise EvaluationError(f"function {name!r} expects 2 arguments, got {len(compiled_args)}")
        ufunc = _BINARY_UFUNCS[name]
        first, second = compiled_args

        def eval_binary(batch: SampleBatch) -> np.ndarray:
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                return ufunc(first(batch), second(batch))

        return eval_binary

    raise UnknownFunctionError(name)


def compile_constraint(constraint: ast.Constraint) -> CompiledPredicate:
    """Compile one atomic constraint into a vectorised predicate."""
    left = compile_expression(constraint.left)
    right = compile_expression(constraint.right)
    comparison = _COMPARISON_UFUNCS[constraint.operator]

    def eval_constraint(batch: SampleBatch) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return comparison(left(batch), right(batch))

    return eval_constraint


def compile_path_condition(pc: ast.PathCondition) -> CompiledPredicate:
    """Compile a conjunction of constraints into a vectorised predicate."""
    predicates = [compile_constraint(constraint) for constraint in pc.constraints]

    def eval_path_condition(batch: SampleBatch) -> np.ndarray:
        length = _batch_length(batch)
        result = np.ones(length, dtype=bool)
        for predicate in predicates:
            result &= predicate(batch)
            if not result.any():
                break
        return result

    return eval_path_condition


def compile_constraint_set(constraint_set: ast.ConstraintSet) -> CompiledPredicate:
    """Compile a disjunction of path conditions into a vectorised predicate."""
    predicates = [compile_path_condition(pc) for pc in constraint_set.path_conditions]

    def eval_constraint_set(batch: SampleBatch) -> np.ndarray:
        length = _batch_length(batch)
        result = np.zeros(length, dtype=bool)
        for predicate in predicates:
            result |= predicate(batch)
        return result

    return eval_constraint_set
