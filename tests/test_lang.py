"""Unit tests for the constraint language: AST, parser, evaluation, simplification."""

import math

import numpy as np
import pytest

from repro.errors import ParseError, UnknownFunctionError, UnknownVariableError
from repro.lang import ast
from repro.lang.analysis import (
    constraint_set_statistics,
    extract_related_constraints,
    group_constraints_by_block,
    shared_constraints,
)
from repro.lang.evaluator import evaluate, holds, holds_any, holds_path_condition
from repro.lang.parser import (
    parse_constraint,
    parse_constraint_set,
    parse_expression,
    parse_path_condition,
)
from repro.lang.simplify import (
    simplify_constraint,
    simplify_expression,
    simplify_path_condition,
)
from repro.lang.substitution import substitute, substitute_constraint

from compiler_reference import (
    compile_constraint,
    compile_constraint_set,
    compile_expression,
    compile_path_condition,
)


class TestAst:
    def test_free_variables_of_expression(self):
        expr = parse_expression("x * sin(y) + 2")
        assert expr.free_variables() == {"x", "y"}

    def test_constraint_negation_roundtrip(self):
        constraint = parse_constraint("x <= 1")
        assert constraint.negate().operator == ">"
        assert constraint.negate().negate() == constraint

    def test_negation_table_covers_all_operators(self):
        for operator in ast.COMPARISON_OPERATORS:
            constraint = ast.Constraint(operator, ast.var("x"), ast.const(0))
            assert constraint.negate().operator in ast.COMPARISON_OPERATORS

    def test_invalid_comparison_operator_rejected(self):
        with pytest.raises(ValueError):
            ast.Constraint("<>", ast.var("x"), ast.const(0))

    def test_path_condition_conjoin_and_len(self):
        pc = ast.PathCondition.of([parse_constraint("x <= 1")])
        extended = pc.conjoin(parse_constraint("y >= 0"))
        assert len(extended) == 2
        assert extended.free_variables() == {"x", "y"}

    def test_canonical_is_order_insensitive_for_path_conditions(self):
        pc1 = parse_path_condition("x <= 1 && y >= 0")
        pc2 = parse_path_condition("y >= 0 && x <= 1")
        assert pc1.canonical() == pc2.canonical()

    def test_expression_size_and_operation_count(self):
        expr = parse_expression("sin(x) * x + pow(y, 2)")
        assert ast.expression_size(expr) > 5
        counts = ast.count_operations(expr)
        assert counts["sin"] == 1 and counts["pow"] == 1 and counts["*"] == 1

    def test_constraint_set_iteration(self):
        cs = parse_constraint_set("x <= 1 || x > 1 && y <= 0")
        assert len(cs) == 2
        assert cs.free_variables() == {"x", "y"}


class TestParser:
    def test_parse_number_forms(self):
        assert evaluate(parse_expression("1.5e2"), {}) == 150.0
        assert evaluate(parse_expression(".5"), {}) == 0.5

    def test_precedence(self):
        assert evaluate(parse_expression("2 + 3 * 4"), {}) == 14.0
        assert evaluate(parse_expression("(2 + 3) * 4"), {}) == 20.0

    def test_unary_minus(self):
        assert evaluate(parse_expression("-x * 2"), {"x": 3}) == -6.0

    def test_math_prefix_normalisation(self):
        expr = parse_expression("Math.sin(x)")
        assert isinstance(expr, ast.FunctionCall) and expr.name == "sin"

    def test_function_with_two_arguments(self):
        expr = parse_expression("atan2(y, x)")
        assert isinstance(expr, ast.FunctionCall) and len(expr.arguments) == 2

    def test_parse_constraint_operators(self):
        for op in ("<=", "<", ">=", ">", "==", "!="):
            constraint = parse_constraint(f"x {op} 1")
            assert constraint.operator == op

    def test_parse_path_condition(self):
        pc = parse_path_condition("x <= 1 && y > 0 && x + y != 2")
        assert len(pc) == 3

    def test_parse_constraint_set(self):
        cs = parse_constraint_set("x <= 1 || x > 1 && y <= 0 || y > 5")
        assert len(cs) == 3

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("x <= 1 garbage")

    def test_missing_comparison_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("x + 1")

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("(x + 1")

    def test_unexpected_character_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x $ 1")

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_expression("x +\n@")
        assert excinfo.value.line == 2


class TestEvaluator:
    def test_arithmetic(self):
        assert evaluate(parse_expression("x * y - 3 / z"), {"x": 2, "y": 5, "z": 3}) == pytest.approx(9.0)

    def test_functions(self):
        value = evaluate(parse_expression("sqrt(pow(x, 2) + pow(y, 2))"), {"x": 3, "y": 4})
        assert value == pytest.approx(5.0)

    def test_division_by_zero_gives_infinity(self):
        assert math.isinf(evaluate(parse_expression("1 / x"), {"x": 0}))

    def test_zero_over_zero_gives_nan(self):
        assert math.isnan(evaluate(parse_expression("x / y"), {"x": 0, "y": 0}))

    def test_sqrt_of_negative_gives_nan(self):
        assert math.isnan(evaluate(parse_expression("sqrt(x)"), {"x": -1}))

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            evaluate(parse_expression("missing + 1"), {})

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            evaluate(ast.call("bogus", ast.const(1)), {})

    def test_holds_comparison(self):
        assert holds(parse_constraint("x <= 1"), {"x": 0.5})
        assert not holds(parse_constraint("x <= 1"), {"x": 2.0})

    def test_nan_comparison_is_unsatisfied(self):
        constraint = parse_constraint("sqrt(x) <= 10")
        assert not holds(constraint, {"x": -1.0})

    def test_holds_path_condition_and_any(self):
        pc = parse_path_condition("x >= 0 && x <= 1")
        assert holds_path_condition(pc, {"x": 0.5})
        cs = parse_constraint_set("x < 0 || x >= 0 && x <= 1")
        assert holds_any(cs, {"x": 0.5})
        assert not holds_any(cs, {"x": 3.0})


class TestSimplify:
    def test_constant_folding(self):
        expr = simplify_expression(parse_expression("2 * 3 + 1"))
        assert isinstance(expr, ast.Constant) and expr.value == 7.0

    def test_identity_elimination(self):
        expr = simplify_expression(parse_expression("x + 0"))
        assert isinstance(expr, ast.Variable)
        expr = simplify_expression(parse_expression("1 * x"))
        assert isinstance(expr, ast.Variable)
        expr = simplify_expression(parse_expression("x * 0"))
        assert isinstance(expr, ast.Constant) and expr.value == 0.0

    def test_double_negation(self):
        expr = simplify_expression(ast.neg(ast.neg(ast.var("x"))))
        assert isinstance(expr, ast.Variable)

    def test_function_folding(self):
        expr = simplify_expression(parse_expression("sqrt(4)"))
        assert isinstance(expr, ast.Constant) and expr.value == 2.0

    def test_simplification_preserves_semantics(self):
        source = "2 * x + 0 + sqrt(4) * (1 * y)"
        original = parse_expression(source)
        simplified = simplify_expression(original)
        for point in ({"x": 1.0, "y": 2.0}, {"x": -3.5, "y": 0.0}):
            assert evaluate(original, point) == pytest.approx(evaluate(simplified, point))

    def test_duplicate_conjuncts_removed(self):
        pc = parse_path_condition("x <= 1 && x <= 1 && y > 0")
        assert len(simplify_path_condition(pc)) == 2

    def test_simplify_constraint_both_sides(self):
        constraint = simplify_constraint(parse_constraint("x + 0 <= 2 * 3"))
        assert constraint.canonical() == "x <= 6.0"


class TestSubstitution:
    def test_substitute_variable(self):
        result = substitute(parse_expression("a + b"), {"a": parse_expression("x * 2")})
        assert result.free_variables() == {"x", "b"}

    def test_substitute_inside_function(self):
        result = substitute(parse_expression("sin(a)"), {"a": parse_expression("x + 1")})
        assert evaluate(result, {"x": 0.0}) == pytest.approx(math.sin(1.0))

    def test_substitute_constraint(self):
        constraint = substitute_constraint(parse_constraint("total >= 5"), {"total": parse_expression("x + y")})
        assert constraint.free_variables() == {"x", "y"}


class TestCompiler:
    def _batch(self, **columns):
        return {name: np.asarray(values, dtype=float) for name, values in columns.items()}

    def test_compiled_expression_matches_evaluator(self):
        expr = parse_expression("sin(x) * sqrt(y) + pow(x, 2) / (y + 1)")
        compiled = compile_expression(expr)
        xs = np.linspace(0.1, 2.0, 7)
        ys = np.linspace(0.5, 3.0, 7)
        batch = self._batch(x=xs, y=ys)
        values = compiled(batch)
        for index in range(len(xs)):
            expected = evaluate(expr, {"x": xs[index], "y": ys[index]})
            assert values[index] == pytest.approx(expected)

    def test_compiled_constraint(self):
        predicate = compile_constraint(parse_constraint("x * x + y * y <= 1"))
        batch = self._batch(x=[0.0, 1.0, 0.9], y=[0.0, 1.0, 0.1])
        assert predicate(batch).tolist() == [True, False, True]

    def test_compiled_path_condition_short_circuits(self):
        predicate = compile_path_condition(parse_path_condition("x >= 0 && sqrt(x) <= 2"))
        batch = self._batch(x=[-1.0, 1.0, 9.0])
        assert predicate(batch).tolist() == [False, True, False]

    def test_compiled_constraint_set_is_disjunction(self):
        predicate = compile_constraint_set(parse_constraint_set("x < 0 || x > 1"))
        batch = self._batch(x=[-0.5, 0.5, 1.5])
        assert predicate(batch).tolist() == [True, False, True]

    def test_nan_rows_never_hit(self):
        predicate = compile_path_condition(parse_path_condition("sqrt(x) <= 2"))
        batch = self._batch(x=[-1.0, 4.0])
        assert predicate(batch).tolist() == [False, True]

    def test_unknown_variable_in_batch(self):
        predicate = compile_expression(parse_expression("x + 1"))
        with pytest.raises(UnknownVariableError):
            predicate(self._batch(y=[1.0]))


class TestAnalysis:
    def test_statistics_counts(self):
        cs = parse_constraint_set("x + y <= 1 && sin(x) > 0 || x - y > 1")
        stats = constraint_set_statistics(cs)
        assert stats.path_count == 2
        assert stats.conjunct_count == 3
        assert stats.arithmetic_operation_count >= 3
        assert stats.variable_count == 2

    def test_extract_related_constraints(self):
        pc = parse_path_condition("x <= 1 && y >= 0 && x + z <= 2")
        factor = extract_related_constraints(pc, {"x", "z"})
        assert len(factor) == 2
        assert factor.free_variables() == {"x", "z"}

    def test_group_constraints_by_block_skips_empty_blocks(self):
        pc = parse_path_condition("x <= 1 && y >= 0")
        groups = group_constraints_by_block(pc, [frozenset({"x"}), frozenset({"y"}), frozenset({"w"})])
        assert len(groups) == 2

    def test_shared_constraints_histogram(self):
        cs = parse_constraint_set("x <= 1 && y > 0 || x <= 1 && y <= 0")
        histogram = shared_constraints(cs)
        assert histogram["x <= 1.0"] == 2
