"""Unit tests for the mini language: parser, interpreter, symbolic executor."""

import itertools

import numpy as np
import pytest

from repro.errors import ParseError, SymbolicExecutionError
from repro.icp.contractor import contract
from repro.intervals.box import Box
from repro.lang.evaluator import holds, holds_any
from repro.subjects import programs
from repro.subjects.volcomp_suite import TARGET_EVENT, all_assertion_cases, subject_by_name
from repro.symexec import (
    ASSERTION_VIOLATION_EVENT,
    ConcreteInterpreter,
    SymbolicExecutor,
    execute_program,
    parse_program,
    run_program,
)
from symexec_reference import DomainOnlyExecutor
from test_distinct_work import PROGRAMS as DISTINCT_WORK_PROGRAMS


class TestProgramParser:
    def test_parse_safety_monitor(self):
        program = parse_program(programs.SAFETY_MONITOR, name="monitor")
        assert program.input_names() == ("altitude", "headFlap", "tailFlap")
        assert program.input_bounds()["altitude"] == (0.0, 20000.0)

    def test_negative_bounds(self):
        program = parse_program("input x in [-5, -1];\nskip;")
        assert program.input_bounds()["x"] == (-5.0, -1.0)

    def test_empty_domain_rejected(self):
        with pytest.raises(ParseError):
            parse_program("input x in [1, 0];\nskip;")

    def test_program_without_inputs_rejected(self):
        with pytest.raises(ParseError):
            parse_program("skip;")

    def test_else_if_chain(self):
        source = """
        input x in [0, 10];
        if (x >= 7) { observe(high); }
        else if (x >= 3) { observe(mid); }
        else { observe(low); }
        """
        program = parse_program(source)
        result = execute_program(program)
        assert set(result.events()) == {"high", "mid", "low"}

    def test_while_loop_parsing(self):
        program = parse_program(programs.THERMOSTAT)
        assert program.input_names() == ("temperature", "heatingRate")

    def test_boolean_conditions(self):
        source = """
        input x in [0, 1];
        input y in [0, 1];
        if (x >= 0.5 && y >= 0.5 || !(x <= 0.9)) { observe(hit); }
        """
        program = parse_program(source)
        result = execute_program(program)
        assert "hit" in result.events()

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ParseError):
            parse_program("input x in [0, 1]\nskip;")


class TestConcreteInterpreter:
    def test_safety_monitor_high_altitude(self):
        program = parse_program(programs.SAFETY_MONITOR)
        trace = run_program(program, {"altitude": 12000, "headFlap": 0, "tailFlap": 0})
        assert trace.observed("callSupervisor")

    def test_safety_monitor_low_altitude_safe_flaps(self):
        program = parse_program(programs.SAFETY_MONITOR)
        trace = run_program(program, {"altitude": 100, "headFlap": 0.0, "tailFlap": 0.0})
        assert not trace.observed("callSupervisor")

    def test_assignment_and_arithmetic(self):
        program = parse_program("input x in [0, 10];\ny = x * 2 + 1;\nif (y >= 5) { observe(big); }")
        assert run_program(program, {"x": 3}).observed("big")
        assert not run_program(program, {"x": 1}).observed("big")

    def test_while_loop_terminates(self):
        program = parse_program(programs.THERMOSTAT)
        trace = run_program(program, {"temperature": 10, "heatingRate": 0.5})
        assert trace.observed("slowHeating")

    def test_loop_bound_flag(self):
        source = "input x in [0, 1];\nwhile (x >= 0) { x = x + 1; }"
        program = parse_program(source)
        trace = run_program(program, {"x": 0.5}, loop_bound=10)
        assert trace.hit_bound

    def test_assert_violation_event(self):
        program = parse_program(programs.SCORING_WITH_ASSERT)
        violated = run_program(program, {"score": 100, "bonus": 15})
        satisfied = run_program(program, {"score": 50, "bonus": 10})
        assert violated.observed(ASSERTION_VIOLATION_EVENT)
        assert not satisfied.observed(ASSERTION_VIOLATION_EVENT)

    def test_missing_input_rejected(self):
        program = parse_program(programs.SAFETY_MONITOR)
        with pytest.raises(SymbolicExecutionError):
            run_program(program, {"altitude": 100})

    def test_invalid_loop_bound(self):
        program = parse_program(programs.SAFETY_MONITOR)
        with pytest.raises(SymbolicExecutionError):
            ConcreteInterpreter(program, loop_bound=0)


class TestSymbolicExecutor:
    def test_safety_monitor_paths(self):
        program = parse_program(programs.SAFETY_MONITOR)
        result = execute_program(program)
        assert result.path_count == 3
        target = result.constraint_set_for("callSupervisor")
        assert len(target) == 2

    def test_paths_are_disjoint_and_cover_domain(self):
        """Sampled inputs satisfy exactly one path condition (Section 4 disjointness)."""
        program = parse_program(programs.SAFETY_MONITOR)
        result = execute_program(program)
        rng = np.random.default_rng(5)
        bounds = program.input_bounds()
        for _ in range(200):
            point = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in bounds.items()}
            satisfied = [
                path for path in result.paths
                if all(
                    __import__("repro.lang.evaluator", fromlist=["holds"]).holds(c, point)
                    for c in path.condition.constraints
                )
            ]
            assert len(satisfied) == 1

    def test_agreement_with_concrete_interpreter(self):
        """An input observes the event iff it satisfies a PC reported for it."""
        program = parse_program(programs.SAFETY_MONITOR)
        symbolic = execute_program(program)
        target = symbolic.constraint_set_for("callSupervisor")
        rng = np.random.default_rng(11)
        bounds = program.input_bounds()
        for _ in range(200):
            point = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in bounds.items()}
            concrete = run_program(program, point).observed("callSupervisor")
            symbolic_hit = holds_any(target, point)
            assert concrete == symbolic_hit

    def test_collision_check_single_branch(self):
        program = parse_program(programs.COLLISION_CHECK)
        result = execute_program(program)
        assert set(result.events()) == {"collision"}
        assert len(result.constraint_set_for("collision")) == 1

    def test_loop_unrolling_produces_multiple_paths(self):
        program = parse_program(programs.THERMOSTAT)
        result = execute_program(program, max_depth=30)
        assert result.path_count > 2

    def test_bounded_paths_reported_separately(self):
        source = "input x in [0.1, 1];\ntotal = 0;\nwhile (total <= 100) { total = total + x; }\nobserve(done);"
        program = parse_program(source)
        result = execute_program(program, max_depth=10)
        bounded = result.bounded_constraint_set()
        assert len(bounded) >= 1
        # Paths that hit the bound are excluded from the event's PC set.
        assert all(not path.hit_bound for path in result.paths if path.observed("done"))

    def test_assert_violation_constraints(self):
        program = parse_program(programs.SCORING_WITH_ASSERT)
        result = execute_program(program)
        violations = result.constraint_set_for(ASSERTION_VIOLATION_EVENT)
        assert len(violations) == 1
        assert holds_any(violations, {"score": 100.0, "bonus": 15.0})
        assert not holds_any(violations, {"score": 10.0, "bonus": 5.0})

    def test_infeasible_branches_pruned(self):
        source = """
        input x in [0, 1];
        if (x >= 5) { observe(impossible); }
        if (x <= 2) { observe(always); }
        """
        result = execute_program(parse_program(source))
        assert "impossible" not in result.events()
        assert "always" in result.events()

    def test_constraint_set_against_event(self):
        program = parse_program(programs.SAFETY_MONITOR)
        result = execute_program(program)
        against = result.constraint_set_against("callSupervisor")
        assert len(against) == 1

    def test_max_paths_truncation_flag(self):
        source = "\n".join(
            ["input x in [0, 1];"]
            + [f"if (x >= 0.{i}) {{ observe(e{i}); }} else {{ skip; }}" for i in range(1, 8)]
        )
        result = execute_program(parse_program(source), max_paths=5)
        assert result.truncated

    def test_invalid_bounds_rejected(self):
        program = parse_program(programs.SAFETY_MONITOR)
        with pytest.raises(SymbolicExecutionError):
            SymbolicExecutor(program, max_depth=0)
        with pytest.raises(SymbolicExecutionError):
            SymbolicExecutor(program, max_paths=0)


def rendered(result):
    """What must match between two executors: each path, in order."""
    return [(path.condition.canonical(), path.events, path.hit_bound) for path in result.paths]


#: Paths a full :func:`contract` of the path condition refutes but that the
#: executor keeps, because it revises each path's box with the new conjunct
#: only and never re-contracts the earlier ones.  On many-paths these are
#: ``y + z`` thresholds that fail only after ``y + z >= 7`` pins ``y`` and
#: ``z`` to the corner of the box ``y + z < 5`` left.
KEPT_REFUTED = {"many-paths": 15}

PRUNING_CASES = [
    pytest.param(subject.program(assertion), subject.max_depth, 0, id=f"{subject.name}:{assertion.label}")
    for subject, assertion in all_assertion_cases()
] + [
    pytest.param(parse_program(source), 50, KEPT_REFUTED.get(name, 0), id=name)
    for name, source in sorted(DISTINCT_WORK_PROGRAMS.items())
]


class TestPathSensitivePruning:
    @pytest.mark.parametrize("program,max_depth,kept_refuted", PRUNING_CASES)
    def test_paths_are_the_reference_paths_that_contraction_does_not_refute(self, program, max_depth, kept_refuted):
        pruned = rendered(execute_program(program, max_depth=max_depth))
        reference = DomainOnlyExecutor(program, max_depth=max_depth).execute()
        domain = Box.from_bounds(program.input_bounds())
        refuted = [contract(path.condition, domain) is None for path in reference.paths]
        # The pruned paths are the reference's, in order, with dropped ones
        # skipped; every dropped path is one that contraction refutes.
        remaining = iter(zip(rendered(reference), refuted))
        kept = []
        for path in pruned:
            for candidate, refutes in remaining:
                if candidate == path:
                    kept.append(refutes)
                    break
                assert refutes, f"dropped a path contraction does not refute: {candidate}"
            else:
                pytest.fail(f"path not produced by the reference, or out of order: {path}")
        assert all(refutes for _, refutes in remaining)
        assert sum(kept) == kept_refuted

    def test_atrial_drops_the_refuted_paths(self):
        subject = subject_by_name("ATRIAL")
        for assertion, targets in zip(subject.assertions, (510, 0, 2250)):
            result = execute_program(subject.program(assertion), max_depth=subject.max_depth)
            assert result.path_count == 2250
            assert len(result.constraint_set_for(TARGET_EVENT)) == targets

    def test_boundary_pairs_are_kept(self):
        """Closed-interval HC4 cannot refute ``x < 2 && x >= 2``: the path stays."""
        source = """
        input x in [0, 4];
        if (x < 2) { if (x >= 2) { observe(edge); } }
        if (x >= 3) { if (x < 1) { observe(never); } }
        """
        result = execute_program(parse_program(source))
        assert "edge" in result.events()
        assert "never" not in result.events()


#: Inputs on and around every branch threshold of ATRIAL and EGFR EPI; the
#: error inputs put ``sbp + sbpErr`` and ``pr + prErr`` on their thresholds too.
THRESHOLD_INPUTS = {
    "ATRIAL": {
        "age": (45, 54, 55, 65, 75, 85, 95),
        "sbp": (90, 140, 150, 160, 170, 190),
        "pr": (120, 180, 190, 200, 210, 260),
        "bmi": (18, 30, 45),
        "sbpErr": (-10, -5, 0, 10),
        "prErr": (-15, -10, 0, 10, 15),
    },
    "EGFR EPI": {
        "scr": (0.5, 0.9, 1.2, 1.5, 3.0),
        "age": (18, 50, 90),
        "scrF": (0.5, 0.7, 1.0, 1.3, 3.0),
        "ageF": (18, 50, 90),
    },
}


class TestConcreteAgreementOnThresholds:
    @pytest.mark.parametrize("name", sorted(THRESHOLD_INPUTS))
    def test_every_run_satisfies_exactly_one_kept_path(self, name):
        subject = subject_by_name(name)
        values = THRESHOLD_INPUTS[name]
        grid = [dict(zip(values, point)) for point in itertools.product(*values.values())]
        rng = np.random.default_rng(3)
        points = [grid[index] for index in rng.choice(len(grid), size=150, replace=False)]
        if name == "ATRIAL":
            points += [
                {"age": 65, "sbp": 160, "pr": 200, "bmi": 30, "sbpErr": 0, "prErr": 0},
                {"age": 75, "sbp": 150, "pr": 190, "bmi": 30, "sbpErr": -10, "prErr": 10},
                {"age": 85, "sbp": 145, "pr": 185, "bmi": 29, "sbpErr": -5, "prErr": -5},
            ]
        for assertion in subject.assertions:
            program = subject.program(assertion)
            result = execute_program(program, max_depth=subject.max_depth)
            # Paths share their conjuncts: evaluate each distinct one once.
            conjuncts = {c.canonical(): c for path in result.paths for c in path.condition.constraints}
            position = {text: index for index, text in enumerate(conjuncts)}
            paths = [tuple(position[c.canonical()] for c in path.condition.constraints) for path in result.paths]
            for point in points:
                truth = [holds(constraint, point) for constraint in conjuncts.values()]
                satisfied = [index for index, path in enumerate(paths) if all(truth[i] for i in path)]
                assert len(satisfied) == 1, (assertion.label, point)
                path = result.paths[satisfied[0]]
                assert path.observed(TARGET_EVENT) == run_program(program, point).observed(TARGET_EVENT)
