"""Served repeats cost what they read: plan, paving and mass memos of a Session.

A repeated constraint-set query takes its parsed set, factor layout and store
keys from the session's plan memo, decodes each stored paving (and weighs its
boxes by the profile) once per session, and freezes a factor whose stored
counts already cover the budget without building a sampler.  All of that is a
pure function of its key, so every answer, store row, ledger family and
deterministic diagnostic must equal those of sessions that start afresh.
"""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Session
from repro.api import session as session_module
from repro.core.profiles import UsageProfile
from repro.core.stratified import StoredPaving, decode_paving
from repro.icp.solver import Paving
from repro.lang import ast
from repro.obs import Observability
from repro.obs.diagnostics import deterministic_diagnostics
from repro.obs.ledger import MemoryLedger, open_ledger
from repro.serve.wire import build_query, parse_quantify_payload
from repro.store.backends import open_store
from repro.subjects.evolution import EVOLUTION_DOMAINS

#: The evolution fixture's five factors: a template, its v1 threshold, and the
#: thresholds a new family may move it to (as in perfbench's served-mix).
FACTORS = (
    ("a*a + b*b <= {}", 1.0, (0.6, 0.7, 0.8, 0.9)),
    ("sin(c) <= {}", 0.5, (0.3, 0.4, 0.6, 0.7)),
    ("d*d*d <= {}", 0.5, (0.2, 0.3, 0.4, 0.6)),
    ("e + f <= {}", 0.75, (0.55, 0.6, 0.65, 0.7)),
    ("cos(g) <= {}", 0.2, (0.0, 0.1, 0.3, 0.4)),
)

CIRCLE = "x*x + y*y <= 1"
SQUARE = {"x": (-1, 1), "y": (-1, 1)}

COUNTERS = ("qcoral_plan_reuse_total", "qcoral_samplers_built_total", "qcoral_paving_decodes_total")


def served_stream(requests=40, seed=7):
    """A served-mix-shaped stream: 60% exact repeats, the rest new families."""
    rng = random.Random(seed)
    families, stream = [], []
    for _ in range(requests):
        if families and rng.random() < 0.6:
            stream.append(rng.choice(families))
            continue
        moved = set(rng.sample(range(len(FACTORS)), rng.choice((1, 1, 2, 3))))
        text = " && ".join(
            template.format(rng.choice(alternatives) if index in moved else baseline)
            for index, (template, baseline, alternatives) in enumerate(FACTORS)
        )
        request = (text, rng.randrange(2**31))
        families.append(request)
        stream.append(request)
    return stream


STREAM = served_stream()


def outcome(report):
    codes = tuple(diagnostic.code for diagnostic in deterministic_diagnostics(report.diagnostics))
    return (report.mean.hex(), report.std.hex(), report.total_samples, codes)


def serve(session, request, **settings):
    """One request through the server's own spec parsing and query building."""
    text, seed = request
    payload = {"constraints": text, "domains": EVOLUTION_DOMAINS, "seed": seed, "budget": 3000}
    payload.update(settings or {"max_rounds": 3, "allocation": "neyman"})
    return build_query(session, parse_quantify_payload(payload, defaults=session.defaults)).run()


def replay(session, stream, **settings):
    return [outcome(serve(session, request, **settings)) for request in stream]


def stored_rows(store):
    return {key: repr(store.get(key)) for key in store.keys()}


def counters(hub):
    snapshot = hub.snapshot()
    return {name: int(snapshot.counter(name)) for name in COUNTERS}


def quantify(session, constraints, profile=SQUARE, budget=2000, seed=1):
    return session.quantify(constraints, profile).with_budget(budget).seed(seed)


def answer(report):
    return (report.mean.hex(), report.std.hex(), report.total_samples)


# --------------------------------------------------------------------------- #
# A served stream, cold then warm, against sessions that start afresh
# --------------------------------------------------------------------------- #
def test_served_stream_matches_fresh_sessions(tmp_path):
    hub = Observability()
    memo_store, memo_ledger = str(tmp_path / "memo.db"), str(tmp_path / "memo.jsonl")
    with Session(store=memo_store, ledger=memo_ledger, observability=hub) as session:
        memoised = replay(session, STREAM) + replay(session, STREAM)

    fresh_store, fresh_ledger = str(tmp_path / "fresh.db"), str(tmp_path / "fresh.jsonl")
    fresh = []
    for request in STREAM + STREAM:
        with Session(store=fresh_store, ledger=fresh_ledger) as session:
            fresh.extend(replay(session, [request]))

    assert memoised == fresh
    assert any(samples == 0 for _, _, samples, _ in memoised[len(STREAM) :])
    stores = [open_store(path, "sqlite", readonly=True) for path in (memo_store, fresh_store)]
    try:
        assert stored_rows(stores[0]) == stored_rows(stores[1])
    finally:
        for store in stores:
            store.close()
    families = []
    for path in (memo_ledger, fresh_ledger):
        with open_ledger(path, "jsonl") as ledger:
            families.append([entry.family for entry in ledger.entries()])
    assert families[0] == families[1] and len(families[0]) == 2 * len(STREAM)
    distinct = len({text for text, _ in STREAM})
    assert counters(hub)["qcoral_plan_reuse_total"] == 2 * len(STREAM) - distinct


def test_observability_on_and_off_give_identical_answers():
    replays = []
    for hub in (Observability(), None):
        store, ledger = open_store(None, "memory"), MemoryLedger()
        with Session(store=store, ledger=ledger, observability=hub) as session:
            answers = replay(session, STREAM) + replay(session, STREAM)
        replays.append((answers, stored_rows(store), [entry.family for entry in ledger.entries()]))
    assert replays[0] == replays[1]


def test_concurrent_warm_repeats_match_serial_answers():
    # One even round spends exactly each factor's need, so after the cold
    # pass every stored entry covers the budget and the warm pass only reads.
    even = {"max_rounds": 1, "allocation": "even"}
    hub = Observability()
    with Session(store=open_store(None, "memory"), observability=hub) as session:
        replay(session, STREAM, **even)
        serial = replay(session, STREAM, **even)
    assert all(samples == 0 for _, _, samples, _ in serial)

    hub = Observability()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Session(store=open_store(None, "memory"), observability=hub) as session:
            replay(session, STREAM, **even)
            before = counters(hub)
            barrier = threading.Barrier(4)

            def run(requests):
                barrier.wait(timeout=60)
                return replay(session, requests, **even)

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, STREAM[offset::4]) for offset in range(4)]
                parts = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    concurrent = [None] * len(STREAM)
    for offset, part in enumerate(parts):
        concurrent[offset::4] = part
    assert concurrent == serial
    after = counters(hub)
    assert after["qcoral_plan_reuse_total"] - before["qcoral_plan_reuse_total"] == len(STREAM)
    assert after["qcoral_samplers_built_total"] == before["qcoral_samplers_built_total"]


# --------------------------------------------------------------------------- #
# What the memos key on
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "other",
    [{"x": (-1, 3), "y": (-1, 1)}, {"x": "normal:0:0.5:-1:1", "y": (-1, 1)}],
    ids=["wider-x", "normal-x"],
)
def test_profiles_differing_in_one_domain_do_not_share_masses(other):
    hub, store = Observability(), open_store(None, "memory")
    with Session(store=store, observability=hub) as session:
        memoised = [answer(quantify(session, CIRCLE, profile).run()) for profile in (SQUARE, SQUARE, other, other)]
    assert len(store.keys()) == 2
    assert counters(hub)["qcoral_paving_decodes_total"] == 2

    fresh = []
    for profile in (SQUARE, other):
        with Session(store=open_store(None, "memory")) as session:
            fresh += [answer(quantify(session, CIRCLE, profile).run()) for _ in range(2)]
    assert memoised == fresh
    assert memoised[1][2] == memoised[3][2] == 0 and memoised[1] != memoised[3]


def test_same_paving_text_under_two_profiles_is_weighed_per_profile():
    # Same support, so ICP paves both alike; only the masses tell them apart.
    normal = {"x": "normal:0:0.5:-1:1", "y": (-1, 1)}
    store = open_store(None, "memory")
    with Session(store=store) as session:
        memoised = [answer(quantify(session, CIRCLE, profile).run()) for profile in (SQUARE, normal, SQUARE, normal)]
    assert len({store.get(key).paving for key in store.keys()}) == 1 and len(store.keys()) == 2
    for profile, reference in zip((SQUARE, normal), memoised[2:]):
        with Session(store=store) as session:
            assert answer(quantify(session, CIRCLE, profile).run()) == reference


def test_a_method_change_does_not_share_masses():
    methods = ("hit-or-miss", "importance", "hit-or-miss", "importance")
    hub = Observability()
    with Session(store=open_store(None, "memory"), observability=hub) as session:
        memoised = [answer(quantify(session, CIRCLE).method(method).run()) for method in methods]
    assert counters(hub)["qcoral_paving_decodes_total"] == 2
    fresh_store = open_store(None, "memory")
    for method, reference in zip(methods, memoised):
        with Session(store=fresh_store) as session:
            assert answer(quantify(session, CIRCLE).method(method).run()) == reference


def test_only_a_paving_without_a_sampler_header_is_adopted_by_hit_or_miss():
    store = open_store(None, "memory")
    with Session(store=store) as session:
        quantify(session, CIRCLE).run()
    (key,) = store.keys()
    text = store.get(key).paving
    profile = UsageProfile.uniform(SQUARE)
    paving = Paving(profile.domain(), decode_paving(text, ("x", "y"), ("x", "y")))
    assert decode_paving("imp64|" + text, ("x", "y"), ("x", "y")) == paving.boxes
    plain = StoredPaving.weigh(text, ("x", "y"), paving, profile)
    headed = StoredPaving.weigh("imp64|" + text, ("x", "y"), paving, profile)
    assert plain.plain and plain.adoptable
    assert not headed.plain and not headed.adoptable
    assert headed.masses == plain.masses


def signed_zero_set(zero):
    """``x <= zero`` built directly, so the constant keeps its sign."""
    return ast.ConstraintSet.of([ast.PathCondition((ast.Constraint("<=", ast.Variable("x"), ast.Constant(zero)),))])


@pytest.mark.parametrize("as_text", [True, False], ids=["text", "constraint-set"])
def test_signed_zero_constraint_sets_never_share_a_plan(as_text):
    if as_text:
        targets = ("x <= 0.0", "x <= -0.0")
    else:
        targets = (signed_zero_set(0.0), signed_zero_set(-0.0))
        assert targets[0] == targets[1]  # dataclass equality conflates them
    hub = Observability()
    with Session(observability=hub) as session:
        reports = [quantify(session, target, {"x": (-1, 1)}).run() for target in targets + targets]
        assert len(session._plans) == 2
    assert counters(hub)["qcoral_plan_reuse_total"] == 2
    rendered = [[path.pc.canonical() for path in report.path_reports] for report in reports]
    assert rendered[0] == rendered[2] == ["x <= 0.0"]
    assert rendered[1] == rendered[3] == ["x <= -0.0"]


def test_a_pooled_entry_is_frozen_from_its_new_counts(tmp_path):
    path = str(tmp_path / "pooled.db")
    hub = Observability()
    with Session(store=path, observability=hub) as session:
        quantify(session, CIRCLE).run()
        first = quantify(session, CIRCLE).run()
        assert first.total_samples == 0 and counters(hub)["qcoral_paving_decodes_total"] == 1
        # Another run pools 2000 more samples into the entry the memo decoded.
        with Session(store=path) as other:
            assert quantify(other, CIRCLE, budget=4000, seed=2).run().total_samples == 2000
        pooled = quantify(session, CIRCLE, budget=4000).run()
        assert pooled.total_samples == 0 and counters(hub)["qcoral_paving_decodes_total"] == 1
    assert answer(pooled) != answer(first)
    with Session(store=path) as session:
        assert answer(quantify(session, CIRCLE, budget=4000).run()) == answer(pooled)


# --------------------------------------------------------------------------- #
# The bounds
# --------------------------------------------------------------------------- #
def test_least_recently_used_constraint_plan_is_evicted(monkeypatch):
    monkeypatch.setattr(session_module, "_PLAN_MEMO_SIZE", 3)
    texts = [f"x <= 0.{index + 1}" for index in range(4)]
    hub = Observability()
    with Session(observability=hub) as session:

        def reused(text):
            before = counters(hub)["qcoral_plan_reuse_total"]
            quantify(session, text, {"x": (0, 1)}, budget=100).run()
            return counters(hub)["qcoral_plan_reuse_total"] - before

        assert [reused(text) for text in texts[:3]] == [0, 0, 0]
        assert reused(texts[0]) == 1  # a hit refreshes the first text
        assert reused(texts[3]) == 0  # and the second goes
        assert len(session._plans) == 3
        assert [reused(texts[0]), reused(texts[1])] == [1, 0]


def test_least_recently_used_paving_is_evicted(monkeypatch):
    monkeypatch.setattr(session_module, "PAVING_MEMO_SIZE", 2)
    circles = [f"x*x + y*y <= 0.{index + 5}" for index in range(3)]
    hub = Observability()
    with Session(store=open_store(None, "memory"), observability=hub) as session:

        def decoded(text):
            before = counters(hub)["qcoral_paving_decodes_total"]
            assert quantify(session, text).run().total_samples == 0
            return counters(hub)["qcoral_paving_decodes_total"] - before

        for text in circles:
            quantify(session, text).run()
        assert [decoded(text) for text in circles] == [1, 1, 1]
        assert len(session._pavings) == 2
        assert decoded(circles[1]) == 0  # a hit refreshes the second circle
        assert decoded(circles[0]) == 1  # and the third goes
        assert [decoded(circles[1]), decoded(circles[2])] == [0, 1]
