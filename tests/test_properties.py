"""Property-based tests (hypothesis) for the core invariants of the reproduction.

The invariants checked here are the ones the paper's correctness argument rests
on:

* interval arithmetic and the interval evaluator are *enclosing*;
* HC4 contraction and paving never lose solutions (soundness of ICP);
* the flat HC4 tape reproduces the recursive reference bound for bound;
* the stored paving text decodes back to exactly the boxes it renders;
* the estimate algebra matches the closed-form mean/variance formulas;
* the compiled NumPy evaluator agrees with the reference interpreter;
* stratified estimates converge to the exact probability for box-shaped events.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.estimate import Estimate, product_independent, sum_disjoint
from repro.core.profiles import UsageProfile
from repro.core.stratified import decode_paving, render_paving
from repro.icp.hc4 import ConstraintTree
from repro.icp.solver import PavedBox
from repro.intervals import Box, Interval
from repro.intervals.functions import supported_functions
from repro.lang import ast
from repro.lang.evaluator import evaluate, holds
from repro.lang.simplify import simplify_expression

from compiler_reference import compile_expression
from hc4_reference import ReferenceTree, evaluate_interval, hc4_revise

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
small_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
probabilities = st.floats(min_value=0.0, max_value=1.0)
variances = st.floats(min_value=0.0, max_value=0.25)


@st.composite
def intervals(draw):
    low = draw(finite_floats)
    high = draw(finite_floats)
    if low > high:
        low, high = high, low
    return Interval.make(low, high)


@st.composite
def expressions(draw, depth=0):
    """Random expressions over the variables x and y using safe operators."""
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            return ast.const(draw(small_floats))
        return ast.var("x" if choice == 1 else "y")
    kind = draw(st.sampled_from(["+", "-", "*", "neg", "sin", "cos", "abs"]))
    if kind in ("+", "-", "*"):
        return ast.BinaryOp(kind, draw(expressions(depth + 1)), draw(expressions(depth + 1)))
    if kind == "neg":
        return ast.neg(draw(expressions(depth + 1)))
    return ast.call(kind, draw(expressions(depth + 1)))


# --------------------------------------------------------------------------- #
# Interval arithmetic properties
# --------------------------------------------------------------------------- #
class TestIntervalProperties:
    @given(intervals(), intervals(), small_floats, small_floats)
    def test_addition_encloses_pointwise_sum(self, a, b, ta, tb):
        x = a.lo + (a.hi - a.lo) * abs(math.sin(ta))
        y = b.lo + (b.hi - b.lo) * abs(math.sin(tb))
        assert (a + b).contains(x + y)

    @given(intervals(), intervals(), small_floats, small_floats)
    def test_multiplication_encloses_pointwise_product(self, a, b, ta, tb):
        x = a.lo + (a.hi - a.lo) * abs(math.sin(ta))
        y = b.lo + (b.hi - b.lo) * abs(math.sin(tb))
        product = (a * b)
        assert product.contains(x * y) or math.isclose(
            x * y, product.lo, rel_tol=1e-9
        ) or math.isclose(x * y, product.hi, rel_tol=1e-9)

    @given(intervals())
    def test_sqr_is_non_negative_enclosure(self, a):
        squared = a.sqr()
        if not a.is_empty():
            assert squared.lo >= 0.0
            assert squared.contains(a.lo * a.lo) or math.isclose(a.lo * a.lo, squared.hi, rel_tol=1e-12)

    @given(intervals(), intervals())
    def test_intersection_is_subset_of_both(self, a, b):
        inter = a.intersect(b)
        if not inter.is_empty():
            assert a.contains_interval(inter)
            assert b.contains_interval(inter)

    @given(intervals(), intervals())
    def test_hull_contains_both(self, a, b):
        hull = a.hull(b)
        assert hull.contains_interval(a)
        assert hull.contains_interval(b)


# --------------------------------------------------------------------------- #
# Interval evaluation and HC4 soundness
# --------------------------------------------------------------------------- #
class TestEnclosureProperties:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(expressions(), st.floats(0, 1), st.floats(0, 1))
    def test_interval_evaluation_encloses_concrete_evaluation(self, expr, tx, ty):
        box = Box.from_bounds({"x": (-2.0, 3.0), "y": (-1.0, 4.0)})
        x = -2.0 + 5.0 * tx
        y = -1.0 + 5.0 * ty
        value = evaluate(expr, {"x": x, "y": y})
        assume(math.isfinite(value))
        enclosure = evaluate_interval(expr, box)
        assert enclosure.contains(value) or math.isclose(value, enclosure.lo, abs_tol=1e-9) or math.isclose(
            value, enclosure.hi, abs_tol=1e-9
        )

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(expressions(), st.floats(0, 1), st.floats(0, 1), st.sampled_from(["<=", ">=", "<", ">"]))
    def test_hc4_revise_never_removes_solutions(self, expr, tx, ty, operator):
        constraint = ast.Constraint(operator, expr, ast.const(0.5))
        box = Box.from_bounds({"x": (-2.0, 3.0), "y": (-1.0, 4.0)})
        x = -2.0 + 5.0 * tx
        y = -1.0 + 5.0 * ty
        point = {"x": x, "y": y}
        assume(holds(constraint, point))
        narrowed = hc4_revise(constraint, box)
        assert narrowed is not None
        assert narrowed.contains_point(point)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(expressions(), st.floats(0, 1), st.floats(0, 1))
    def test_simplification_preserves_value(self, expr, tx, ty):
        point = {"x": -2.0 + 5.0 * tx, "y": -1.0 + 5.0 * ty}
        original = evaluate(expr, point)
        simplified = evaluate(simplify_expression(expr), point)
        if math.isnan(original):
            assert math.isnan(simplified) or math.isfinite(simplified)
        else:
            assert simplified == pytest.approx(original, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(expressions())
    def test_compiled_evaluator_matches_interpreter(self, expr):
        compiled = compile_expression(expr)
        xs = np.linspace(-2.0, 3.0, 5)
        ys = np.linspace(-1.0, 4.0, 5)
        values = compiled({"x": xs, "y": ys})
        for index in range(len(xs)):
            expected = evaluate(expr, {"x": xs[index], "y": ys[index]})
            actual = float(values[index])
            if math.isnan(expected):
                assert math.isnan(actual)
            else:
                assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)


# --------------------------------------------------------------------------- #
# The HC4 tape against the recursive reference
# --------------------------------------------------------------------------- #
#: Values that exercise signed zeros, tiny magnitudes and magnitudes whose
#: products or powers overflow to ±inf.
special_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0])
huge_floats = st.sampled_from([1e-300, -1e-300, 1e154, -1e154, 1e300, -1e300, 1.7e308, -1.7e308])
tape_floats = st.one_of(
    special_floats, huge_floats, st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False)
)

#: pow exponents: integers (even, odd, zero, negative) and non-integers.
pow_exponents = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, -1.0, -2.0, -3.0, 0.5, 1.5, -0.5, 2.5])

UNARY_FUNCTIONS = sorted(set(supported_functions()) - {"pow", "atan2", "min", "max"})


@st.composite
def tape_expressions(draw, depth=0):
    """Random expressions with every node kind HC4 handles.

    ``z`` is sometimes missing from the box; ``e * e`` squares appear on
    purpose; ``pow`` gets integer, negative and non-integer exponents, and
    sometimes a variable one.
    """
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return ast.const(draw(tape_floats))
        return ast.var(draw(st.sampled_from("xyz")))
    kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "square", "pow", "call", "binary call"]))
    child = tape_expressions(depth + 1)
    if kind in ("+", "-", "*", "/"):
        return ast.BinaryOp(kind, draw(child), draw(child))
    if kind == "neg":
        return ast.neg(draw(child))
    if kind == "square":
        operand = draw(child)
        return ast.mul(operand, operand)
    if kind == "pow":
        exponent = ast.const(draw(pow_exponents)) if draw(st.integers(0, 4)) else draw(child)
        return ast.call("pow", draw(child), exponent)
    if kind == "binary call":
        return ast.call(draw(st.sampled_from(["atan2", "min", "max"])), draw(child), draw(child))
    return ast.call(draw(st.sampled_from(UNARY_FUNCTIONS)), draw(child))


@st.composite
def tape_boxes(draw):
    """Boxes over x and y, with z only sometimes present.

    Each interval straddles zero, is a point, or is drawn freely; bounds
    are often signed zeros or huge.
    """
    intervals = {}
    for name in draw(st.sampled_from(["xyz", "xy", "yxz"])):
        kind = draw(st.sampled_from(["any", "straddle", "point"]))
        if kind == "point":
            low = high = draw(tape_floats)
        elif kind == "straddle":
            low = -abs(draw(tape_floats)) or -1.0
            high = abs(draw(tape_floats)) or 1.0
        else:
            low, high = sorted((draw(tape_floats), draw(tape_floats)))
        intervals[name] = Interval(low, high)
    return Box(intervals)


def _outcome(sweep):
    """The result of ``sweep()``, or the type of the exception it raised."""
    try:
        return sweep()
    except Exception as error:  # the exception type is the outcome
        return type(error)


def _exact(box):
    """Every bound of a revised box, hex-encoded so signed zeros count."""
    if not isinstance(box, Box):
        return box
    return [(name, float(iv.lo).hex(), float(iv.hi).hex()) for name, iv in box.items()]


@st.composite
def arithmetic_expressions(draw, depth=0):
    """Small ``+ - * /``, negation and square expressions over x and y."""
    if depth >= 2 or draw(st.booleans()):
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            return ast.const(draw(special_floats))
        return ast.var(draw(st.sampled_from("xy")))
    kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "square"]))
    child = arithmetic_expressions(depth + 1)
    if kind == "neg":
        return ast.neg(draw(child))
    if kind == "square":
        operand = draw(child)
        return ast.mul(operand, operand)
    return ast.BinaryOp(kind, draw(child), draw(child))


@st.composite
def small_boxes(draw):
    """Boxes over x and y whose bounds are small values or signed zeros."""
    intervals = {}
    for name in "xy":
        low, high = sorted((draw(special_floats), draw(special_floats)))
        intervals[name] = Interval(low, high)
    return Box(intervals)


def _assert_tape_matches_reference(constraint, box):
    tape = ConstraintTree(constraint)
    reference = ReferenceTree(constraint)
    # The tape's scratch lists are reused: sweep it twice to show no state
    # leaks from one sweep into the next.
    for _ in range(2):
        assert _exact(_outcome(lambda: tape.revise(box))) == _exact(_outcome(lambda: hc4_revise(constraint, box)))
        for strict in (False, True):
            assert _outcome(lambda: tape.certainly_holds(box, strict)) == _outcome(
                lambda: reference.certainly_holds(box, strict)
            )
        assert _outcome(lambda: tape.certainly_fails(box)) == _outcome(lambda: reference.certainly_fails(box))


class TestTapeMatchesReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        tape_expressions(),
        st.one_of(special_floats.map(ast.const), tape_expressions()),
        st.sampled_from(ast.COMPARISON_OPERATORS),
        tape_boxes(),
    )
    def test_every_node_kind_matches_bound_for_bound(self, left, right, operator, box):
        _assert_tape_matches_reference(ast.Constraint(operator, left, right), box)

    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        arithmetic_expressions(),
        special_floats.map(ast.const),
        st.sampled_from(ast.COMPARISON_OPERATORS),
        small_boxes(),
    )
    def test_arithmetic_narrowing_matches_bound_for_bound(self, left, right, operator, box):
        # Tight boxes narrow often, so most examples reach the variable
        # narrowing; signed-zero bounds and constants reach the zero cases.
        _assert_tape_matches_reference(ast.Constraint(operator, left, right), box)


# --------------------------------------------------------------------------- #
# Stored paving text
# --------------------------------------------------------------------------- #
any_bounds = st.floats(allow_nan=False)


@st.composite
def pavings(draw):
    """Boxes over a random variable order, plus a canonical order of the same names."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    canonical = draw(st.permutations(names))
    boxes = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        intervals = {}
        for name in names:
            low, high = sorted((draw(any_bounds), draw(any_bounds)))
            intervals[name] = Interval(low, high)
        boxes.append(PavedBox(Box(intervals), inner=draw(st.booleans())))
    return tuple(names), tuple(canonical), tuple(boxes)


class TestPavingTextProperties:
    @settings(max_examples=100)
    @given(pavings())
    def test_decode_inverts_render(self, paving):
        names, canonical, boxes = paving
        text = render_paving(boxes, canonical)
        decoded = decode_paving(text, canonical, names)
        assert decoded == boxes
        assert all(paved.box.variables == names for paved in decoded)
        # Exact, sign of zero included: the decoded boxes render to the same text.
        assert render_paving(decoded, canonical) == text


# --------------------------------------------------------------------------- #
# Estimate algebra properties
# --------------------------------------------------------------------------- #
class TestEstimateProperties:
    @given(st.lists(st.tuples(probabilities, variances), min_size=1, max_size=6))
    def test_disjoint_sum_means_add(self, pairs):
        estimates = [Estimate(mean, variance) for mean, variance in pairs]
        total = sum_disjoint(estimates)
        assert total.mean == pytest.approx(sum(mean for mean, _ in pairs))
        assert total.variance == pytest.approx(sum(variance for _, variance in pairs))

    @given(st.lists(st.tuples(probabilities, variances), min_size=1, max_size=5))
    def test_product_mean_is_product_of_means(self, pairs):
        estimates = [Estimate(mean, variance) for mean, variance in pairs]
        product = product_independent(estimates)
        expected_mean = 1.0
        for mean, _ in pairs:
            expected_mean *= mean
        assert product.mean == pytest.approx(expected_mean)

    @given(probabilities, variances, probabilities, variances)
    def test_product_variance_matches_equation_8(self, m1, v1, m2, v2):
        combined = Estimate(m1, v1).multiply_independent(Estimate(m2, v2))
        assert combined.variance == pytest.approx(m1 * m1 * v2 + m2 * m2 * v1 + v1 * v2)

    @given(probabilities, variances, st.floats(min_value=0.0, max_value=1.0))
    def test_scaling_is_quadratic_in_variance(self, mean, variance, weight):
        scaled = Estimate(mean, variance).scale(weight)
        assert scaled.mean == pytest.approx(weight * mean)
        assert scaled.variance == pytest.approx(weight * weight * variance)

    @given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=10_000))
    def test_from_hits_is_valid_probability(self, samples, hits):
        assume(hits <= samples)
        estimate = Estimate.from_hits(hits, samples)
        assert 0.0 <= estimate.mean <= 1.0
        assert estimate.variance <= 0.25


# --------------------------------------------------------------------------- #
# End-to-end statistical property
# --------------------------------------------------------------------------- #
class TestQuantificationProperties:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.floats(min_value=-0.9, max_value=0.4),
        st.floats(min_value=0.1, max_value=0.5),
        st.floats(min_value=-0.9, max_value=0.4),
        st.floats(min_value=0.1, max_value=0.5),
    )
    def test_box_events_are_estimated_exactly(self, x_low, x_width, y_low, y_width):
        """Axis-aligned box events are resolved by ICP with zero variance."""
        from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
        from repro.lang.parser import parse_constraint_set

        x_high = x_low + x_width
        y_high = y_low + y_width
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        cs = parse_constraint_set(f"x >= {x_low} && x <= {x_high} && y >= {y_low} && y <= {y_high}")
        result = QCoralAnalyzer(profile, QCoralConfig(samples_per_query=200, seed=1)).analyze(cs)
        exact = (x_width / 2.0) * (y_width / 2.0)
        assert result.mean == pytest.approx(exact, abs=1e-6)
        assert result.variance == pytest.approx(0.0, abs=1e-12)
