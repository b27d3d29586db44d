"""One sampling path on counter-keyed seeds.

Every sampling chunk is seeded by (master seed, factor key, stratum box,
sample offset), so a fixed-seed answer is the same with no executor, on the
serial, thread and process backends at any worker count, cold and warm, and
whatever order the path conditions arrive in.
"""

from dataclasses import replace

import pytest

from repro.core.importance import ImportanceSampler
from repro.core.profiles import BinomialDistribution, TruncatedNormalDistribution, UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.exec import SerialExecutor, make_executor
from repro.lang.parser import parse_constraint_set, parse_path_condition
from repro.store import open_store

CONSTRAINTS = "x * x + y * y <= 1 && z <= 0.5 || x * x + y * y <= 1 && z > 0.5 && z <= 0.75"
PROFILE = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1), "z": (0, 1)})

#: The two path conditions of the order test, over uniform x, y in [0, 1].
FIRST = "x * x + sin(x) <= 0.5 && y <= 0.3"
SECOND = "x * x + sin(x) > 0.5 && y * y * y + y >= 0.7"
UNIT = UsageProfile.uniform({"x": (0, 1), "y": (0, 1)})

#: Small chunks so the test budgets shard into several tasks per stratum.
CHUNK = 400

CONFIGS = {
    "strat-partcache": QCoralConfig(samples_per_query=3_000, seed=17, max_rounds=3, allocation="neyman"),
    "importance-adaptive": QCoralConfig(
        samples_per_query=3_000, seed=17, method="importance", mass_split_boxes=8, mass_split_adaptive=2
    ),
    "plain-mc": QCoralConfig(samples_per_query=3_000, seed=17, stratified=False, max_rounds=2),
}

BACKENDS = [
    (None, None),
    ("serial", 1),
    ("thread", 1),
    ("thread", 2),
    ("thread", 4),
    ("process", 1),
    ("process", 2),
    ("process", 4),
]


@pytest.fixture(scope="module")
def pools():
    """One pool per (kind, workers), shared by every config and pass."""
    opened = {}
    yield opened
    for backend in opened.values():
        backend.close()


def _executor(pools, kind, workers):
    if kind is None:
        return None
    if (kind, workers) not in pools:
        pools[(kind, workers)] = make_executor(kind, workers)
    return pools[(kind, workers)]


def _answer(result):
    return result.mean.hex(), result.variance.hex(), result.total_samples


def _stored(store):
    """Every store entry, per-stratum counts and pavings included."""
    return {key: store.get(key).to_dict() for key in sorted(store.keys())}


def _cold_and_warm(config, executor):
    """Answers and store contents of a cold run and a larger warm run on one store."""
    store = open_store(None, "memory")
    constraint_set = parse_constraint_set(CONSTRAINTS)
    config = replace(config, chunk_size=CHUNK)
    outcomes = []
    for budget in (config.samples_per_query, 2 * config.samples_per_query):
        with QCoralAnalyzer(PROFILE, config.with_samples(budget), executor=executor, store=store) as analyzer:
            outcomes.append((_answer(analyzer.analyze(constraint_set)), _stored(store)))
    store.close()
    return outcomes


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def references(self):
        return {name: _cold_and_warm(config, None) for name, config in CONFIGS.items()}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("kind,workers", BACKENDS)
    def test_cold_and_warm_identical_on_every_backend(self, references, pools, name, kind, workers):
        outcomes = _cold_and_warm(CONFIGS[name], _executor(pools, kind, workers))
        assert outcomes == references[name]

    def test_reference_runs_sample(self, references):
        for (cold, cold_store), (warm, warm_store) in references.values():
            assert cold[2] > 0 and warm[2] > 0
            assert cold_store and warm_store != cold_store


class _RecordingExecutor(SerialExecutor):
    """The serial backend, remembering the key of every chunk it runs."""

    def __init__(self):
        self.keys = []

    def map(self, fn, items):
        self.keys.extend((task.seed.entropy, task.seed.spawn_key) for task in items)
        return super().map(fn, items)


class TestOrderAndKeys:
    @pytest.mark.parametrize("kind", [None, "serial", "thread"])
    def test_reversed_path_conditions_give_the_same_answer(self, kind):
        # Three factors are sampled; at 2002 samples each the pilot round's
        # 1501 samples split unevenly, so the spare sample must go to the
        # same factor whichever path condition comes first.
        for samples in (2_000, 2_002):
            config = QCoralConfig(samples_per_query=samples, seed=3, max_rounds=2, executor=kind)
            answers = []
            for text in (f"{FIRST} || {SECOND}", f"{SECOND} || {FIRST}"):
                with QCoralAnalyzer(UNIT, config) as analyzer:
                    answers.append(_answer(analyzer.analyze(parse_constraint_set(text))))
            assert answers[0] == answers[1]

    def test_warm_continuation_keys_are_disjoint_from_the_cold_run(self):
        store = open_store(None, "memory")
        constraint_set = parse_constraint_set(CONSTRAINTS)
        keys = []
        for budget in (2_000, 5_000):
            recorder = _RecordingExecutor()
            config = QCoralConfig(samples_per_query=budget, seed=9, chunk_size=CHUNK)
            with QCoralAnalyzer(PROFILE, config, executor=recorder, store=store) as analyzer:
                result = analyzer.analyze(constraint_set)
            assert (result.cache_statistics.warm_starts > 0) == (budget == 5_000)
            keys.append(recorder.keys)
        cold, warm = keys
        assert cold and warm
        assert len(set(cold)) == len(cold) and len(set(warm)) == len(warm)
        assert not set(cold) & set(warm)
        store.close()

    def test_no_two_live_strata_share_a_key_after_adaptive_splits(self):
        profile = UsageProfile(
            {"x": BinomialDistribution(20, 0.5), "y": TruncatedNormalDistribution(0.0, 0.4, -1.0, 1.0)}
        )
        pc = parse_path_condition("sin(x * 0.55) + y * y <= 0.3")
        recorder = _RecordingExecutor()
        sampler = ImportanceSampler(pc, profile, 3, executor=recorder, max_boxes=8, adaptive_splits=4, chunk_size=CHUNK)
        for _ in range(6):
            sampler.extend(2_000, allocation="neyman")
        assert sampler.discarded_samples > 0, "expected at least one adaptive split"
        live = [stratum.word for stratum in sampler.strata if stratum.word is not None]
        assert len(live) == len(set(live))
        # No chunk key was ever handed out twice, before or after a split.
        assert recorder.keys and len(recorder.keys) == len(set(recorder.keys))
