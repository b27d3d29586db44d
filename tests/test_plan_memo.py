"""The Session's plan memo: each program is symbolically executed and planned once.

A warm program query takes its plan (the event's and the bound-hitting
constraint sets, their factor layouts and store keys) from the session
instead of running symbolic execution, simplification, partitioning and
keying again.  The plan is a pure function of its key, so every answer, store
row and ledger family must equal those of a session that plans afresh.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Session
from repro.api import session as session_module
from repro.errors import ParseError
from repro.lang import ast
from repro.obs import Observability
from repro.obs.ledger import MemoryLedger
from repro.store.backends import open_store
from repro.subjects.volcomp_suite import subject_by_name
from repro.symexec import ast as prog_ast
from repro.symexec.parser import parse_program

from test_distinct_work import MANY_PATHS, answer

ATRIAL = subject_by_name("ATRIAL")
ATRIAL_SOURCE = ATRIAL.program_source(ATRIAL.assertion("points >= 10"))

#: The program of ``test_symexec.py::test_max_paths_truncation_flag``: eight
#: paths, each observing a different subset of the seven events.
TRUNCATED = "\n".join(
    ["input x in [0, 1];"] + [f"if (x >= 0.{i}) {{ observe(e{i}); }} else {{ skip; }}" for i in range(1, 8)]
)


def build(session, source, event="target", **options):
    query = session.analyze(source, event, **options)
    return query.with_budget(2000).until(rounds=3).allocation("neyman").seed(11)


@pytest.fixture
def executions(monkeypatch):
    """Counts symbolic executions the sessions run."""
    calls = []
    original = session_module.execute_program

    def counting(program, *args, **kwargs):
        calls.append(program)
        return original(program, *args, **kwargs)

    monkeypatch.setattr(session_module, "execute_program", counting)
    return calls


def stored_rows(store):
    return {key: repr(store.get(key)) for key in store.keys()}


def families(ledger):
    return [entry.family for entry in ledger.entries()]


def factor_digests(report):
    return tuple(factor.key.digest for path in report.path_reports for factor in path.factors)


# --------------------------------------------------------------------------- #
# (a) Warm answers equal a session that plans afresh
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "source,max_depth", [(MANY_PATHS, 50), (ATRIAL_SOURCE, ATRIAL.max_depth)], ids=["many-paths", "atrial"]
)
def test_memoised_runs_equal_fresh_sessions(source, max_depth, executions):
    memo_store, memo_ledger = open_store(None, "memory"), MemoryLedger()
    with Session(store=memo_store, ledger=memo_ledger) as session:
        memoised = [answer(build(session, source, max_depth=max_depth).run()) for _ in range(2)]
    assert len(executions) == 1

    fresh_store, fresh_ledger = open_store(None, "memory"), MemoryLedger()
    fresh = []
    for _ in range(2):
        with Session(store=fresh_store, ledger=fresh_ledger) as session:
            fresh.append(answer(build(session, source, max_depth=max_depth).run()))
    assert len(executions) == 3

    assert memoised == fresh
    assert memoised[1][2] < memoised[0][2]  # the warm run reused the store
    assert stored_rows(memo_store) == stored_rows(fresh_store)
    assert families(memo_ledger) == families(fresh_ledger)


# --------------------------------------------------------------------------- #
# (b) What the memo keys on
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "change",
    [
        {"event": "other"},
        {"max_depth": 40},
        {"max_paths": 1000},
        {"partition_and_cache": False},
    ],
    ids=["event", "max_depth", "max_paths", "partcache"],
)
def test_each_key_component_misses_the_memo(change, executions):
    source = MANY_PATHS.replace("observe(target);", "observe(target); observe(other);")
    hub = Observability()
    with Session(observability=hub) as session:
        build(session, source).run()
        change = dict(change)
        partition_and_cache = change.pop("partition_and_cache", True)
        changed = build(session, source, **change).features(partition_and_cache=partition_and_cache)
        changed.run()
        assert len(executions) == 2
        changed.run()
        assert len(executions) == 2
    assert hub.snapshot().counter("qcoral_plan_reuse_total") == 1


def test_profile_and_method_re_key_the_memoised_plan(executions):
    wide = {"x": (0, 10), "y": (0, 10), "z": (-2, 2)}
    variants = [
        lambda query: query,
        lambda query: query.method("importance"),
        lambda query: query.features(stratified=False),
    ]
    queries = [(profile, variant) for profile in (None, wide) for variant in variants]
    with Session(store=open_store(None, "memory")) as session:
        memoised = [variant(build(session, MANY_PATHS, profile=profile)).run() for profile, variant in queries]
    assert len(executions) == 1

    fresh_store = open_store(None, "memory")
    for (profile, variant), reference in zip(queries, memoised):
        with Session(store=fresh_store) as session:
            report = variant(build(session, MANY_PATHS, profile=profile)).run()
        assert answer(report) == answer(reference)
        assert factor_digests(report) == factor_digests(reference)
    assert len({factor_digests(report) for report in memoised}) == len(memoised)


def threshold_program(threshold):
    """``input x in [-1, 1]; if (x <= threshold) { observe(target); }``, built directly."""
    condition = prog_ast.Comparison(ast.Constraint("<=", ast.Variable("x"), ast.Constant(threshold)))
    return prog_ast.Program(
        inputs=(prog_ast.InputDeclaration("x", -1.0, 1.0),),
        body=(prog_ast.IfStatement(condition, (prog_ast.ObserveStatement("target"),)),),
    )


def test_signed_zero_programs_never_share_a_plan(executions):
    positive, negative = threshold_program(0.0), threshold_program(-0.0)
    assert positive == negative  # dataclass equality conflates them
    with Session() as session:
        reports = [build(session, program).run() for program in (positive, negative, positive, negative)]
    assert len(executions) == 2
    texts = [[path.pc.canonical() for path in report.path_reports] for report in reports]
    assert texts[0] == texts[2] == ["x <= 0.0"]
    assert texts[1] == texts[3] == ["x <= -0.0"]


@pytest.fixture
def parses(monkeypatch):
    """Counts program texts the sessions parse."""
    calls = []
    original = session_module.parse_program

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(session_module, "parse_program", counting)
    return calls


def test_repeated_program_text_is_parsed_once(parses, executions):
    with Session() as session:
        reports = [answer(build(session, MANY_PATHS).run()) for _ in range(2)]
        assert len(parses) == 1
        # Another event of the same text is another plan, so it parses again.
        build(session, MANY_PATHS, "other")
        assert len(parses) == 2
    assert len(executions) == 1
    assert reports[0] == reports[1]


def test_program_syntax_errors_raise_when_the_query_is_built(parses):
    broken = MANY_PATHS + "\nif (x <= "
    with Session() as session:
        build(session, MANY_PATHS).run()
        for _ in range(2):
            with pytest.raises(ParseError):
                session.analyze(broken, "target")
    assert len(parses) == 3  # a failed parse memoises nothing


def test_text_and_parsed_programs_plan_apart_with_equal_answers(executions):
    with Session() as session:
        from_text = answer(build(session, MANY_PATHS).run())
        from_program = answer(build(session, parse_program(MANY_PATHS)).run())
    assert len(executions) == 2
    assert from_text == from_program


# --------------------------------------------------------------------------- #
# (c) The bound
# --------------------------------------------------------------------------- #
def test_least_recently_used_plan_is_evicted_at_the_bound(executions):
    size = session_module._PLAN_MEMO_SIZE
    sources = [f"input x in [0, 1];\nif (x <= {index + 1}) {{ observe(target); }}" for index in range(size + 1)]
    with Session() as session:
        for source in sources[:size]:
            session.analyze(source, "target").with_budget(100).run()
        assert len(executions) == size
        session.analyze(sources[0], "target").with_budget(100).run()  # a hit refreshes the first program
        assert len(executions) == size
        session.analyze(sources[size], "target").with_budget(100).run()  # evicts the second
        assert len(executions) == size + 1 and len(session._plans) == size
        session.analyze(sources[0], "target").with_budget(100).run()
        assert len(executions) == size + 1
        session.analyze(sources[1], "target").with_budget(100).run()
        assert len(executions) == size + 2


# --------------------------------------------------------------------------- #
# (d) Repeated trials and (e) concurrent queries
# --------------------------------------------------------------------------- #
def test_repeat_executes_the_program_once(executions):
    with Session() as session:
        repeated = build(session, MANY_PATHS).repeat(runs=5)
    assert len(repeated.trials) == 5
    assert len(executions) == 1


def test_concurrent_queries_share_one_plan_and_match_serial_answers(executions):
    with Session() as session:
        serial = answer(build(session, MANY_PATHS).run())
    executions.clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Session() as session:
            barrier = threading.Barrier(4)

            def run():
                barrier.wait(timeout=60)
                return answer(build(session, MANY_PATHS).run())

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run) for _ in range(4)]
                answers = [future.result(timeout=120) for future in futures]
            assert len(session._plans) == 1
    finally:
        sys.setswitchinterval(interval)
    assert answers == [serial] * 4


# --------------------------------------------------------------------------- #
# Observability and truncation
# --------------------------------------------------------------------------- #
def test_plan_reuse_is_counted_and_answers_match_without_a_hub():
    hub = Observability()
    with Session(store=open_store(None, "memory"), observability=hub) as session:
        observed = [answer(build(session, MANY_PATHS).run()) for _ in range(3)]
    assert hub.snapshot().counter("qcoral_plan_reuse_total") == 2
    with Session(store=open_store(None, "memory")) as session:
        assert [answer(build(session, MANY_PATHS).run()) for _ in range(3)] == observed


def truncation_records(report):
    return [diagnostic for diagnostic in report.diagnostics if diagnostic.code == "SYMEXEC_TRUNCATED"]


def test_truncated_exploration_is_reported_cold_and_warm():
    with Session() as session:
        for _ in range(2):
            (record,) = truncation_records(build(session, TRUNCATED, "e1", max_paths=5).run())
            assert dict(record.evidence) == {"explored_paths": 5, "max_paths": 5}
            assert record.severity == "warning" and not record.timing
        for max_paths in (8, 100_000):
            assert truncation_records(build(session, TRUNCATED, "e1", max_paths=max_paths).run()) == []
