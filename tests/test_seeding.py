"""One sampling path on counter-keyed seeds.

Every sampling chunk is seeded by (master seed, factor key, stratum box,
sample offset), so a fixed-seed answer is the same in the calling thread and
on a thread pool of any size, cold and warm, and whatever order the path
conditions arrive in.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.api import Session
from repro.core.importance import ImportanceSampler
from repro.core.profiles import BinomialDistribution, TruncatedNormalDistribution, UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
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

#: How the chunks run: through a default Session (None) or a one-worker
#: Session ("serial"), both in the calling thread, or on a pool of 1, 2 or 4
#: threads handed to the analyzer ("thread").
BACKENDS = [(None, None), ("serial", 1), ("thread", 1), ("thread", 2), ("thread", 4)]

#: Session arguments of each backend kind of the order test.
SESSION_ARGS = {None: {}, "serial": {"workers": 1}, "thread": {"workers": 2}}


def _answer(result):
    return result.mean.hex(), result.variance.hex(), result.total_samples


def _stored(store):
    """Every store entry, per-stratum counts and pavings included."""
    return {key: store.get(key).to_dict() for key in sorted(store.keys())}


def _analyze(constraint_set, config, store, kind, workers):
    """One run on the backend ``kind`` names (see BACKENDS).

    "bare" is an analyzer without a pool: the reference every backend matches.
    """
    if kind in (None, "serial"):
        with Session(store=store, **({} if workers is None else {"workers": workers})) as session:
            return session.quantify(constraint_set, PROFILE, config=config).run()
    pool = ThreadPoolExecutor(workers) if kind == "thread" else None
    try:
        analyzer = QCoralAnalyzer(PROFILE, config, pool=pool, store=store)
        return analyzer.analyze(constraint_set)
    finally:
        if pool is not None:
            pool.shutdown()


def _cold_and_warm(config, kind="bare", workers=None):
    """Answers and store contents of a cold run and a larger warm run on one store."""
    store = open_store(None, "memory")
    constraint_set = parse_constraint_set(CONSTRAINTS)
    config = replace(config, chunk_size=CHUNK)
    outcomes = []
    for budget in (config.samples_per_query, 2 * config.samples_per_query):
        result = _analyze(constraint_set, replace(config, samples_per_query=budget), store, kind, workers)
        outcomes.append((_answer(result), _stored(store)))
    store.close()
    return outcomes


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def references(self):
        return {name: _cold_and_warm(config) for name, config in CONFIGS.items()}

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("kind,workers", BACKENDS)
    def test_cold_and_warm_identical_on_every_backend(self, references, name, kind, workers):
        outcomes = _cold_and_warm(CONFIGS[name], kind, workers)
        assert outcomes == references[name]

    def test_reference_runs_sample(self, references):
        for (cold, cold_store), (warm, warm_store) in references.values():
            assert cold[2] > 0 and warm[2] > 0
            assert cold_store and warm_store != cold_store


class _RecordingPool(ThreadPoolExecutor):
    """A one-thread pool remembering the key of every chunk it runs."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.keys = []

    def map(self, fn, *iterables, **kwargs):
        tasks = list(iterables[0])
        self.keys.extend((task.seed.entropy, task.seed.spawn_key) for task in tasks)
        return super().map(fn, tasks, **kwargs)


class TestOrderAndKeys:
    @pytest.mark.parametrize("kind", list(SESSION_ARGS))
    def test_reversed_path_conditions_give_the_same_answer(self, kind):
        # Three factors are sampled; at 2002 samples each the pilot round's
        # 1501 samples split unevenly, so the spare sample must go to the
        # same factor whichever path condition comes first.
        with Session(**SESSION_ARGS[kind]) as session:
            for samples in (2_000, 2_002):
                config = QCoralConfig(samples_per_query=samples, seed=3, max_rounds=2)
                answers = []
                for text in (f"{FIRST} || {SECOND}", f"{SECOND} || {FIRST}"):
                    answers.append(_answer(session.quantify(text, UNIT, config=config).run()))
                assert answers[0] == answers[1]

    def test_warm_continuation_keys_are_disjoint_from_the_cold_run(self):
        store = open_store(None, "memory")
        constraint_set = parse_constraint_set(CONSTRAINTS)
        keys = []
        for budget in (2_000, 5_000):
            config = QCoralConfig(samples_per_query=budget, seed=9, chunk_size=CHUNK)
            with _RecordingPool() as recorder:
                result = QCoralAnalyzer(PROFILE, config, pool=recorder, store=store).analyze(constraint_set)
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
        with _RecordingPool() as recorder:
            sampler = ImportanceSampler(pc, profile, 3, pool=recorder, max_boxes=8, adaptive_splits=4, chunk_size=CHUNK)
            for _ in range(6):
                sampler.extend(2_000, allocation="neyman")
        assert sampler.discarded_samples > 0, "expected at least one adaptive split"
        live = [stratum.word for stratum in sampler.strata if stratum.word is not None]
        assert len(live) == len(set(live))
        # No chunk key was ever handed out twice, before or after a split.
        assert recorder.keys and len(recorder.keys) == len(set(recorder.keys))
