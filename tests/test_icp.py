"""Unit tests for interval constraint propagation: HC4, contractor, paving."""

import math

import pytest

from repro.errors import ConfigurationError, DomainError
from repro.icp import (
    ICPConfig,
    constraint_certainly_fails,
    constraint_certainly_holds,
    contract,
    evaluate_interval,
    hc4_revise,
    pave,
)
from repro.api import Session
from repro.core.profiles import UsageProfile
from repro.core.qcoral import plan_factors
from repro.icp import solver
from repro.icp.hc4 import ConstraintTree, ReferenceTree, constraint_trees
from repro.intervals import Box, Interval
from repro.lang.parser import parse_constraint, parse_expression, parse_path_condition
from repro.subjects import aerospace, discrete, solids, volcomp_suite


def box(**bounds):
    return Box.from_bounds({name: tuple(value) for name, value in bounds.items()})


class TestConfig:
    def test_defaults_match_paper(self):
        config = ICPConfig()
        assert config.max_boxes == 10
        assert config.precision == pytest.approx(1e-3)
        assert config.time_budget == pytest.approx(2.0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ICPConfig(max_boxes=0)
        with pytest.raises(ConfigurationError):
            ICPConfig(precision=0.0)
        with pytest.raises(ConfigurationError):
            ICPConfig(time_budget=-1.0)


class TestIntervalEvaluation:
    def test_linear_expression(self):
        result = evaluate_interval(parse_expression("2 * x + y"), box(x=(0, 1), y=(1, 2)))
        assert result.contains(1.0) and result.contains(4.0)

    def test_nonlinear_expression(self):
        result = evaluate_interval(parse_expression("sin(x) * sqrt(y)"), box(x=(0, 1), y=(1, 4)))
        assert result.contains(math.sin(0.5) * math.sqrt(2.0))

    def test_enclosure_of_sample_points(self):
        expr = parse_expression("x * x - 2 * x * y + pow(y, 2)")
        domain = box(x=(-1, 2), y=(0, 3))
        enclosure = evaluate_interval(expr, domain)
        for x in (-1.0, 0.0, 1.0, 2.0):
            for y in (0.0, 1.5, 3.0):
                value = (x - y) ** 2
                assert enclosure.contains(value)

    def test_certainly_holds_and_fails(self):
        constraint = parse_constraint("x <= 5")
        assert constraint_certainly_holds(constraint, box(x=(0, 1)))
        assert constraint_certainly_fails(constraint, box(x=(6, 7)))
        undecided = box(x=(4, 6))
        assert not constraint_certainly_holds(constraint, undecided)
        assert not constraint_certainly_fails(constraint, undecided)


class TestHC4Revise:
    def test_prunes_linear_constraint(self):
        narrowed = hc4_revise(parse_constraint("x + y <= 1"), box(x=(0, 5), y=(0, 5)))
        assert narrowed is not None
        assert narrowed.interval("x").hi <= 1.0 + 1e-9
        assert narrowed.interval("y").hi <= 1.0 + 1e-9

    def test_detects_infeasibility(self):
        assert hc4_revise(parse_constraint("x >= 10"), box(x=(0, 1))) is None

    def test_prunes_through_sqrt(self):
        narrowed = hc4_revise(parse_constraint("sqrt(x) <= 2"), box(x=(0, 100)))
        assert narrowed is not None
        assert narrowed.interval("x").hi <= 4.0 + 1e-6

    def test_prunes_through_exp(self):
        narrowed = hc4_revise(parse_constraint("exp(x) <= 1"), box(x=(-5, 5)))
        assert narrowed is not None
        assert narrowed.interval("x").hi <= 1e-9

    def test_prunes_even_power(self):
        narrowed = hc4_revise(parse_constraint("pow(x, 2) <= 4"), box(x=(-10, 10)))
        assert narrowed is not None
        assert narrowed.interval("x").hi <= 2.0 + 1e-6
        assert narrowed.interval("x").lo >= -2.0 - 1e-6

    def test_no_false_pruning_for_sin(self):
        narrowed = hc4_revise(parse_constraint("sin(x) >= 0.5"), box(x=(0, 6.3)))
        assert narrowed is not None
        # Conservative: the solution pi/6..5pi/6 must remain inside.
        assert narrowed.interval("x").contains(math.pi / 2)

    def test_odd_power_projection_keeps_boundary_atoms(self):
        # ``1000.0000000000001 ** (1/3)`` rounds to just below 10: without
        # outward rounding the projection cut off the solution x = 10.
        constraint = parse_constraint("pow(x, 3) >= 64")
        narrowed = hc4_revise(constraint, box(x=(0, 10)))
        assert repr(narrowed) == "Box({x: [3.9999999999959996, 10.0]})"
        assert narrowed.interval("x").contains(4.0) and narrowed.interval("x").contains(10.0)
        assert ConstraintTree(constraint).revise(box(x=(0, 10))) == narrowed

    def test_odd_and_even_power_roots_round_outward(self):
        for text, domain, solutions in (
            ("pow(x, 3) <= -8", (-10, 10), (-10.0, -2.0)),
            ("pow(x, 5) <= 32", (-3, 10), (-3.0, 2.0)),
            ("pow(x, 4) <= 1e-40", (-1, 1), (-1e-10, 1e-10)),
        ):
            narrowed = hc4_revise(parse_constraint(text), box(x=domain))
            assert all(narrowed.interval("x").contains(value) for value in solutions), text

    def test_integer_power_query_counts_every_atom(self):
        # x in {0..10} uniformly; x**3 >= 64 holds for x = 4..10: 7 of 11 atoms.
        report = Session().quantify("pow(x, 3) >= 64", UsageProfile.from_specs({"x": "int:0:10"})).run()
        assert report.mean == pytest.approx(7 / 11, abs=1e-12)
        assert report.std == 0.0

    def test_soundness_never_removes_solutions(self):
        constraint = parse_constraint("x * y + sqrt(y) <= 3")
        domain = box(x=(-2, 2), y=(0, 4))
        narrowed = hc4_revise(constraint, domain)
        assert narrowed is not None
        # Sample solutions of the constraint and check they stay inside.
        from repro.lang.evaluator import holds

        steps = 15
        for i in range(steps + 1):
            for j in range(steps + 1):
                x = -2 + 4 * i / steps
                y = 4 * j / steps
                if holds(constraint, {"x": x, "y": y}):
                    assert narrowed.contains_point({"x": x, "y": y})


class TestContractor:
    def test_contract_conjunction(self):
        pc = parse_path_condition("x + y <= 1 && x >= 0 && y >= 0")
        narrowed = contract(pc, box(x=(-5, 5), y=(-5, 5)))
        assert narrowed is not None
        assert narrowed.interval("x").lo >= -1e-9
        assert narrowed.interval("x").hi <= 1.0 + 1e-9

    def test_contract_detects_unsat(self):
        pc = parse_path_condition("x >= 2 && x <= 1")
        assert contract(pc, box(x=(0, 5))) is None

    def test_contract_empty_box(self):
        pc = parse_path_condition("x <= 1")
        assert contract(pc, Box.empty(["x"])) is None


class TestPaving:
    def test_paving_covers_all_solutions(self):
        pc = parse_path_condition("x * x + y * y <= 1")
        domain = box(x=(-2, 2), y=(-2, 2))
        paving = pave(pc, domain)
        assert not paving.is_unsatisfiable()
        from repro.lang.evaluator import holds_path_condition

        steps = 20
        for i in range(steps + 1):
            for j in range(steps + 1):
                x = -2 + 4 * i / steps
                y = -2 + 4 * j / steps
                if holds_path_condition(pc, {"x": x, "y": y}):
                    assert any(paved.box.contains_point({"x": x, "y": y}) for paved in paving.boxes)

    def test_paving_box_budget_respected(self):
        pc = parse_path_condition("sin(x * y) > 0.25")
        domain = box(x=(-10, 10), y=(-10, 10))
        paving = pave(pc, domain, ICPConfig(max_boxes=10, time_budget=2.0))
        assert 1 <= len(paving) <= 10

    def test_exact_box_constraint_gives_single_inner_box(self):
        pc = parse_path_condition("x >= 0 && x <= 1 && y >= 0 && y <= 1")
        domain = box(x=(-1, 2), y=(-1, 2))
        paving = pave(pc, domain)
        assert all(paved.inner for paved in paving.boxes)
        assert paving.covered_volume() == pytest.approx(1.0, rel=1e-6)

    def test_unsatisfiable_constraint_gives_empty_paving(self):
        pc = parse_path_condition("x >= 5")
        paving = pave(pc, box(x=(0, 1)))
        assert paving.is_unsatisfiable()

    def test_trivial_path_condition_returns_domain(self):
        from repro.lang.ast import PathCondition

        domain = box(x=(0, 1))
        paving = pave(PathCondition.of([]), domain)
        assert len(paving) == 1 and paving.boxes[0].inner

    def test_missing_domain_variable_rejected(self):
        pc = parse_path_condition("x + y <= 1")
        with pytest.raises(DomainError):
            pave(pc, box(x=(0, 1)))

    def test_unbounded_domain_rejected(self):
        pc = parse_path_condition("x <= 1")
        domain = Box({"x": Interval(0.0, math.inf)})
        with pytest.raises(DomainError):
            pave(pc, domain)

    def test_covered_fraction_between_zero_and_one(self):
        pc = parse_path_condition("x * x + y * y <= 1")
        paving = pave(pc, box(x=(-2, 2), y=(-2, 2)))
        assert 0.0 < paving.covered_fraction() <= 1.0

    def test_time_capped_flag(self):
        pc = parse_path_condition("x * x + y * y <= 1")
        domain = box(x=(-2, 2), y=(-2, 2))
        # The box budget, not the clock, ends the default search.
        assert not pave(pc, domain).time_capped
        assert pave(pc, domain, ICPConfig(max_boxes=1000, time_budget=1e-9)).time_capped

    def test_reused_constraint_trees_match_fresh_contraction(self):
        pc = parse_path_condition("x * x + y * y <= 1 && sin(x * y) >= -0.5 && (x - y) * (x - y) <= 2")
        trees = constraint_trees(pc)
        for low in (-2.0, -1.0, -0.5, 0.0, 0.5):
            start = box(x=(low, low + 1.5), y=(-low - 1, 2))
            assert contract(pc, start, trees=trees) == contract(pc, start)
            for tree, constraint in zip(trees, pc.constraints):
                assert tree.revise(start) == hc4_revise(constraint, start)
                assert tree.certainly_holds(start) == constraint_certainly_holds(constraint, start)

    def test_inner_volume_below_exact_solution_volume(self):
        pc = parse_path_condition("x * x + y * y <= 1")
        paving = pave(pc, box(x=(-2, 2), y=(-2, 2)), ICPConfig(max_boxes=40, time_budget=2.0))
        assert paving.inner_volume() <= math.pi + 1e-6


def _subject_factors(group):
    """Every distinct factor of one subject group, with the domain it is paved over."""
    if group == "volcomp":
        cases = [
            (subject.constraint_set(assertion).path_conditions, subject.profile())
            for subject, assertion in volcomp_suite.all_assertion_cases()
        ]
    elif group == "solids":
        cases = [([solid.constraint], solid.profile()) for solid in solids.all_solids()]
    elif group == "aerospace":
        cases = [(subject.constraint_set.path_conditions, subject.profile()) for subject in aerospace.all_subjects()]
    else:
        cases = [([subject.constraint], subject.profile) for subject in discrete.all_discrete_subjects()]
    for path_conditions, profile in cases:
        _, factors = plan_factors(path_conditions)
        for factor, variables in factors.values():
            restricted = profile.restrict(variables)
            yield factor, restricted.domain(), restricted.discrete_variables()


def _exact_paving(paving):
    """The boxes (by ``repr``, so signed zeros count), inner flags and effort counters."""
    boxes = [(repr(paved.box), paved.inner) for paved in paving.boxes]
    return boxes, paving.boxes_explored, paving.contraction_passes


class TestTapePavings:
    """``ICPSolver.pave`` on the flat tape against pavings on reference trees."""

    @pytest.mark.parametrize("group", ["volcomp", "solids", "aerospace", "discrete"])
    def test_pavings_identical_to_reference_trees(self, group, monkeypatch):
        # Lift the wall-clock stop so only the box budget ends a search.
        icp = solver.ICPSolver(ICPConfig(time_budget=1e9))
        factors = list(_subject_factors(group))
        assert factors
        tape = [icp.pave(pc, domain, integer_variables=integers) for pc, domain, integers in factors]
        references = []

        def reference_trees(pc):
            references.append(tuple(ReferenceTree(constraint) for constraint in pc.constraints))
            return references[-1]

        monkeypatch.setattr(solver, "constraint_trees", reference_trees)
        for (pc, domain, integers), paving in zip(factors, tape):
            reference = icp.pave(pc, domain, integer_variables=integers)
            assert _exact_paving(paving) == _exact_paving(reference), pc.canonical()
        assert len(references) == len(factors)
