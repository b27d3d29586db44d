"""Per-distinct work on many-path programs.

Symbolic execution, path-condition simplification, the planner, the run
ledger and the incremental differ each do their per-factor or per-branch
work once per *distinct* item within one call, however many path conditions
repeat it.  These tests check two things:

* the memos are exact — keys, factor states, path conditions and fixed-seed
  answers equal what the unmemoised functions give, also where dataclass
  equality conflates two items (``Constant(0.0) == Constant(-0.0)``, while
  ``x <= 0.0`` and ``x <= -0.0`` print, key and sample apart);
* the memoised steps run at most once per distinct item, counted through
  monkeypatched wrappers on a small program whose loop unrolls to a few
  dozen feasible paths sharing a dozen factors.
"""

import collections

import pytest

from repro.api import Session
from repro.api.report import Report
from repro.core import qcoral
from repro.core.cache import EstimateCache
from repro.core.dependency import compute_dependency_partition
from repro.core.methods import store_method_tag
from repro.core.profiles import UsageProfile
from repro.core.qcoral import FactorPlan, QCoralAnalyzer, QCoralConfig
from repro.incremental.diff import factor_versions
from repro.lang import ast
from repro.lang.analysis import group_constraints_by_block
from repro.lang.parser import parse_constraint_set, parse_path_condition
from repro.lang.simplify import simplify_path_condition
from repro.obs.ledger import ledger_entry_for
from repro.store import keys as store_keys
from repro.store import open_store
from repro.symexec import symbolic
from repro.symexec.parser import parse_program
from repro.symexec.symbolic import SymbolicExecutor, execute_program

#: Two branches per iteration, unrolled four times: 256 paths, of which 40
#: are feasible; 23 of them reach the target, over 12 distinct factors.
MANY_PATHS = """
input x in [0, 10];
input y in [0, 10];
input z in [-1, 1];
score = 0;
i = 0;
while (i < 4) {
    if (x >= 2 * i + 1) { score = score + 1; } else { skip; }
    if (y + z >= 2 * i + 1) { score = score + 2; } else { skip; }
    i = i + 1;
}
if (score >= 6) { observe(target); }
"""

#: Branches that dataclass equality conflates but canonical text does not
#: (``<= 0.0`` vs ``<= -0.0``), next to ones both treat alike (``1`` vs ``1.0``).
SIGNED_ZEROS = """
input x in [-1, 1];
input y in [-1, 1];
hits = 0;
if (sin(3 * x) - 0.25 <= 0.0) { hits = hits + 1; }
if (sin(3 * x) - 0.25 <= -0.0) { hits = hits + 2; }
if (y * y * 2 <= 1) { hits = hits + 4; }
if (y * y * 2.0 <= 1.0) { hits = hits + 8; }
if (hits >= 4) { observe(target); }
"""

PROGRAMS = {"many-paths": MANY_PATHS, "signed-zeros": SIGNED_ZEROS}

#: Fixed-seed answers — (mean, σ) in hex and total samples, cold and then
#: warm on the same store.  The memos must not move them; they were last
#: re-recorded when chunk seeds became keyed by (seed, factor, stratum, offset).
PROGRAM_GOLDENS = {
    "many-paths": (
        ("0x1.660b16e1f61cep-1", "0x1.95e3f1eddeb59p-11", 16000),
        ("0x1.65d0e1f0eb149p-1", "0x1.881649ba2c7ffp-11", 1016),
    ),
    "signed-zeros": (
        ("0x1.6a0d5e630b3e4p-1", "0x1.82137b066114ep-15", 24000),
        ("0x1.6a0d5e630b3e4p-1", "0x1.82137b066114fp-15", 7805),
    ),
}

SET_PROFILE = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1), "z": (-2, 2)})
SET_CONFIG = QCoralConfig(samples_per_query=3000, seed=5, max_rounds=3, allocation="neyman")

#: Cold and warm answers of :func:`signed_set` under ``SET_CONFIG``, recorded
#: like ``PROGRAM_GOLDENS``.
SET_GOLDENS = (
    ("0x1.1351eaafdf469p+0", "0x1.d3eebf3bd3c00p-16", 9000),
    ("0x1.135210a35e7b6p+0", "0x1.9303e426bbdabp-16", 800),
)


def signed_set() -> ast.ConstraintSet:
    """Parsed path conditions with ``0.0``/``-0.0`` and ``1``/``1.0`` constants,
    plus one built with integer constants, which print like floats."""
    parsed = parse_constraint_set(
        "x <= 0.0 && sin(3 * y) <= 0.5"
        " || x > -0.0 && sin(3 * y) <= 0.5"
        " || x > 0.0 && sin(3 * y) > 0.5 && z * z <= 1"
        " || x <= -0.0 && sin(3 * y) > 0.5 && z * z <= 1.0"
    )
    z = ast.Variable("z")
    integral = ast.PathCondition.of(
        [
            ast.Constraint(">", ast.Variable("x"), ast.Constant(0)),
            ast.Constraint("<=", ast.BinaryOp("*", z, z), ast.Constant(1)),
        ]
    )
    return ast.ConstraintSet.of(parsed.path_conditions + (integral,))


def program_target(source: str):
    """The program's target constraint set and its uniform usage profile."""
    program = parse_program(source)
    constraint_set = execute_program(program).constraint_set_for("target")
    return constraint_set, UsageProfile.uniform(program.input_bounds())


def answer(result):
    return (result.mean.hex(), result.std.hex(), result.total_samples)


class UnmemoisedExecutor(SymbolicExecutor):
    """Reference executor: decides every branch from scratch."""

    def _feasible_outcomes(self, substituted):
        self._outcomes.clear()
        self._verdicts.clear()
        return super()._feasible_outcomes(substituted)


def counting(monkeypatch, owner, name, key):
    """Wrap ``owner.name`` so each call counts under ``key(*args)``."""
    counts = collections.Counter()
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key(*args)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return counts


# --------------------------------------------------------------------------- #
# Exact memo keys
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_symbolic_paths_equal_the_unmemoised_executor(name):
    program = parse_program(PROGRAMS[name])
    memoised = SymbolicExecutor(program).execute()
    reference = UnmemoisedExecutor(program).execute()

    def rendered(result):
        return [(path.condition.canonical(), path.events, path.hit_bound) for path in result.paths]

    assert rendered(memoised) == rendered(reference)
    if name == "signed-zeros":
        texts = [path.condition.canonical() for path in memoised.paths]
        assert any("<= 0.0" in text and "<= -0.0" in text for text in texts)
        assert any("<= 0.0" in text and "> -0.0" in text for text in texts)


@pytest.mark.parametrize("source", ["signed-set", "signed-zeros", "many-paths"])
def test_plan_keys_states_and_path_conditions_equal_the_unmemoised_functions(source):
    if source == "signed-set":
        constraint_set, profile = signed_set(), SET_PROFILE
    else:
        constraint_set, profile = program_target(PROGRAMS[source])
    reference_pcs = [simplify_path_condition(pc) for pc in constraint_set.path_conditions]
    blocks = compute_dependency_partition(reference_pcs).blocks
    reference_keys = [
        [EstimateCache.key_for(factor) for _, factor in group_constraints_by_block(pc, blocks)] for pc in reference_pcs
    ]

    planned = FactorPlan(constraint_set, True)
    layout, _ = planned.factors()
    assert [pc.canonical() for pc, _ in layout] == [pc.canonical() for pc in reference_pcs]
    analyzer = QCoralAnalyzer(profile, SET_CONFIG)
    states, _ = analyzer._build_plan(planned)
    assert [[states[index].key for index in row] for row in planned.incidence().rows] == reference_keys
    assert len(states) == len({key for keys in reference_keys for key in keys})


def test_signed_zero_factors_stay_apart():
    constraint_set = signed_set()
    analyzer = QCoralAnalyzer(SET_PROFILE, SET_CONFIG)
    states, _ = analyzer._build_plan(FactorPlan(constraint_set, True))
    keys = {state.key for state in states}
    assert {"x <= 0.0", "x <= -0.0", "x > 0.0", "x > -0.0"} <= keys
    # The integer-constant path condition shares its text, so its states.
    assert len(states) == 7


def test_constraint_set_answers_match_goldens():
    store = open_store(None, "memory")
    answers = tuple(
        answer(QCoralAnalyzer(SET_PROFILE, SET_CONFIG, store=store).analyze(signed_set())) for _ in range(2)
    )
    assert answers == SET_GOLDENS


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_answers_match_goldens(name):
    with Session(store=open_store(None, "memory")) as session:
        query = session.analyze(PROGRAMS[name], "target").with_budget(4000).until(rounds=3)
        answers = tuple(answer(query.allocation("neyman").seed(11).run()) for _ in range(2))
    assert answers == PROGRAM_GOLDENS[name]


# --------------------------------------------------------------------------- #
# Work counts
# --------------------------------------------------------------------------- #
def test_alpha_orders_run_once_per_distinct_factor(monkeypatch):
    constraint_set, profile = program_target(MANY_PATHS)
    calls = counting(monkeypatch, store_keys, "alpha_orders", lambda pc: pc.canonical())
    config = QCoralConfig(samples_per_query=2000, seed=3)

    # A stored and ledgered run keys each distinct factor once in total: the
    # ledger reads the keys the planner carried on the factor reports.
    with Session(store=open_store(None, "memory"), ledger_backend="memory") as session:
        report = session.quantify(constraint_set, profile).with_budget(2000).seed(3).run()
        (entry,) = session.ledger.entries()
    reports = [factor for path_report in report.path_reports for factor in path_report.factors]
    distinct = {factor.factor.canonical() for factor in reports}
    assert len(reports) > 3 * len(distinct)
    assert set(calls) == distinct and max(calls.values()) == 1
    assert len(entry.factor_keys) == len(distinct)

    # Without a store the ledger keys each distinct factor itself, once.
    calls.clear()
    result = QCoralAnalyzer(profile, config).analyze(constraint_set)
    assert result.store_context is None
    ledger_entry_for(Report.from_qcoral(result), profile)
    assert set(calls) == distinct and max(calls.values()) == 1

    calls.clear()
    versions = factor_versions(constraint_set, profile, store_method_tag(config))
    assert len(versions) == len(distinct) and set(calls) == distinct and max(calls.values()) == 1


def test_factor_versions_digests_are_the_keys_the_run_carries(monkeypatch):
    constraint_set, profile = program_target(MANY_PATHS)
    config = QCoralConfig(samples_per_query=2000, seed=3)
    result = QCoralAnalyzer(profile, config, store=open_store(None, "memory")).analyze(constraint_set)
    keys = [factor_report.key for path_report in result.path_reports for factor_report in path_report.factors]
    assert None not in keys
    carried = {key.digest for key in keys}
    assert result.store_context == store_keys.StoreContext(profile, store_method_tag(config))
    assert set(factor_versions(constraint_set, profile, store_method_tag(config))) == carried
    # The ledger family of the run is the family of those digests.
    report = Report.from_qcoral(result)
    assert set(ledger_entry_for(report, profile).factor_keys) == carried

    # Under another profile object the ledger keys the factors itself: an
    # equal profile gives the same digests, a different one other digests.
    calls = counting(monkeypatch, store_keys, "alpha_orders", lambda pc: pc.canonical())
    _, equal = program_target(MANY_PATHS)
    assert set(ledger_entry_for(report, equal).factor_keys) == carried
    assert sum(calls.values()) == len(carried)
    shifted = UsageProfile.uniform({"x": (0.0, 11.0), "y": (0.0, 11.0), "z": (-1.0, 2.0)})
    assert not carried & set(ledger_entry_for(report, shifted).factor_keys)


def test_feasibility_checked_once_per_distinct_branch_constraint(monkeypatch):
    # Each distinct branch conjunct gets one HC4 tree per execute(), which
    # every path reaching the branch revises its own box with.
    calls = counting(monkeypatch, symbolic, "ConstraintTree", lambda constraint: constraint.canonical())
    branches = counting(monkeypatch, SymbolicExecutor, "_branch_comparison", lambda executor, constraint, state: None)
    program = parse_program(MANY_PATHS)

    for _ in range(2):  # memos are per execute(): the second run builds afresh
        calls.clear()
        branches.clear()
        assert execute_program(program).path_count == 40
        assert calls and max(calls.values()) == 1
        assert sum(calls.values()) < sum(branches.values()) / 4


def test_factor_estimates_once_per_state_per_round(monkeypatch):
    constraint_set, profile = program_target(MANY_PATHS)
    calls = counting(monkeypatch, qcoral._FactorState, "estimate", id)
    config = QCoralConfig(samples_per_query=2000, seed=3, max_rounds=4, allocation="neyman")

    result = QCoralAnalyzer(profile, config).analyze(constraint_set)
    assert result.rounds == 4
    # One snapshot per round, one for the finalize.
    assert max(calls.values()) <= result.rounds + 1


# --------------------------------------------------------------------------- #
# Ledger families under a profile that cannot key every factor
# --------------------------------------------------------------------------- #
def test_ledger_family_does_not_depend_on_path_order_when_a_factor_cannot_be_keyed():
    full = UsageProfile.uniform({"x": (0, 1), "y": (0, 1), "w": (0, 1)})
    partial = UsageProfile.uniform({"x": (0, 1), "y": (0, 1)})
    forward = parse_constraint_set("x <= 0.5 && w <= 0.2 || x > 0.5 && y <= 0.3")
    backward = ast.ConstraintSet.of(reversed(forward.path_conditions))

    entries = []
    with Session() as session:
        for constraint_set in (forward, backward):
            report = session.quantify(constraint_set, full).with_budget(500).seed(1).run()
            entries.append(ledger_entry_for(report, partial))
    assert entries[0].family == entries[1].family
    assert entries[0].factor_keys == entries[1].factor_keys

    # Factors the profile covers keep their store digests; only the one over
    # ``w`` falls back to a text hash.
    context = store_keys.StoreContext(partial, store_method_tag(report.config))
    for text in ("x <= 0.5", "x > 0.5", "y <= 0.3"):
        assert context.key_for(parse_path_condition(text)).digest in entries[0].factor_keys
