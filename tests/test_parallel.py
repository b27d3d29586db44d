"""Tests for the parallel execution subsystem (repro.exec) and its threading
through the sampling stack: the ``workers`` knob and its thread pool,
counter-keyed chunk seeds, merge algebra, the analyzer's reproducibility at
every worker count, thread-safe caching, and repeated trials on a pooled
session."""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.runner import repeat_analysis, repeat_query, trial_seeds
from repro.api import Session
from repro.cli import main
from repro.core.cache import EstimateCache
from repro.core.estimate import Estimate
from repro.core.montecarlo import SamplingResult
from repro.core.profiles import UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.core.stratified import StratifiedSampler
from repro.errors import ConfigurationError
from repro.exec import chunk_seed, execute_sampling_task, plan_chunks, run_sampling_tasks, shard_budget
from repro.exec.scheduler import factor_seed
from repro.lang.parser import parse_constraint_set, parse_path_condition


def run_engine(constraint_set, profile, config, workers=1):
    """One engine run of ``constraint_set``, on a pool of ``workers`` threads above 1."""
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        analyzer = QCoralAnalyzer(profile, config, pool=pool)
        return analyzer.analyze(constraint_set)
    finally:
        if pool is not None:
            pool.shutdown()

#: A non-trivial workload: two disjoint paths, a shared non-linear factor.
CONSTRAINTS = "x * x + y * y <= 1 && z <= 0.5 || x * x + y * y <= 1 && z > 0.5 && z <= 0.75"

#: Small chunks so even tiny test budgets shard into several tasks.
CHUNK = 500


def _profile():
    return UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1), "z": (0, 1)})


def _draw(seed):
    return np.random.default_rng(seed).integers(0, 10**9)


def _circle_tasks(samples, seed, chunk_size=CHUNK):
    """A keyed plan of ``samples`` circle draws (one stratum, offset 0)."""
    pc = parse_path_condition("x * x + y * y <= 1")
    profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
    return plan_chunks(pc, profile, ("x", "y"), samples, np.random.SeedSequence(seed), 0, 0, chunk_size)


class TestSeedStream:
    """Counter-keyed chunk seeds: (master seed, factor, stratum, offset) → stream."""

    def test_same_seed_reproduces_children(self):
        for stratum, offset in ((0, 0), (7, 500), (2**63, 2**40)):
            first = chunk_seed(factor_seed(123, "x <= 0.5"), stratum, offset)
            second = chunk_seed(factor_seed(123, "x <= 0.5"), stratum, offset)
            assert _draw(first) == _draw(second)

    def test_children_are_independent(self):
        base = factor_seed(5, "x <= 0.5")
        draws = {
            _draw(chunk_seed(base, 0, 0)),
            _draw(chunk_seed(base, 1, 0)),
            _draw(chunk_seed(base, 0, 1)),
            _draw(chunk_seed(factor_seed(5, "x <= 0.25"), 0, 0)),
            _draw(chunk_seed(factor_seed(6, "x <= 0.5"), 0, 0)),
        }
        assert len(draws) == 5

    def test_wide_words_never_alias(self):
        # SeedSequence flattens its key into 32-bit words; fixed-width halves
        # keep (2**32, 0) and (0, 1) apart.
        base = np.random.SeedSequence(9)
        assert _draw(chunk_seed(base, 2**32, 0)) != _draw(chunk_seed(base, 0, 1))

    def test_spawn_seeds_are_ints_and_reproducible(self):
        seeds = trial_seeds(4, base_seed=42)
        assert all(isinstance(seed, int) for seed in seeds)
        assert seeds == trial_seeds(4, base_seed=42)
        assert len(set(seeds)) == 4

    def test_negative_spawn_rejected(self):
        with pytest.raises(ValueError):
            trial_seeds(-1)


class TestShardBudget:
    def test_chunks_sum_to_budget(self):
        assert sum(shard_budget(10_123, 1_000)) == 10_123

    def test_chunk_sizes(self):
        assert shard_budget(2_500, 1_000) == [1_000, 1_000, 500]
        assert shard_budget(999, 1_000) == [999]
        assert shard_budget(0, 1_000) == []

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_budget(-1, 100)
        with pytest.raises(ConfigurationError):
            shard_budget(100, 0)


class TestExecutors:
    """The one parallelism knob: ``Session(workers=N)`` and its lazy thread pool."""

    def test_one_worker_samples_in_the_calling_thread(self):
        with Session() as session:
            assert session.pool is None
            report = session.quantify("x >= 0", {"x": (-1, 1)}).with_budget(1_000).run()
        assert report.executor is None

    def test_invalid_worker_count_rejected(self):
        for workers in (0, -2, 1.5, None):
            with pytest.raises(ConfigurationError):
                Session(workers=workers)

    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_map_preserves_order(self, kind):
        # Chunks of different sizes finish in any order on a pool; their
        # counts must still come back in task order.
        tasks = _circle_tasks(2_000, 5, chunk_size=300)
        expected = [task.samples for task in tasks]
        assert len(set(expected)) > 1
        if kind == "serial":
            counts = run_sampling_tasks(None, tasks)
        else:
            with ThreadPoolExecutor(4) as pool:
                counts = run_sampling_tasks(pool, tasks)
        assert [samples for _, samples in counts] == expected

    def test_describe(self):
        with Session(workers=4) as session:
            report = session.quantify("x >= 0", {"x": (-1, 1)}).with_budget(1_000).seed(1).run()
        assert report.executor == "thread×4"
        assert report.to_dict()["executor"] == "thread×4"

    def test_close_is_idempotent(self):
        session = Session(workers=3)
        pool = session.pool
        assert isinstance(pool, ThreadPoolExecutor)
        assert session.pool is pool  # created once
        session.close()
        session.close()
        with pytest.raises(RuntimeError):
            pool.submit(int)  # shut down with the session


class TestShardedSampling:
    def test_chunked_merge_equals_one_shot(self):
        """Running a plan in one call equals executing and merging its chunks by hand."""
        tasks = _circle_tasks(4_000, 11, chunk_size=1_000)
        assert [task.samples for task in tasks] == [1_000] * 4
        hits = sum(chunk_hits for chunk_hits, _ in run_sampling_tasks(None, tasks))
        one_shot = SamplingResult(Estimate.from_hits(hits, 4_000), hits, 4_000)

        merged = None
        for task in tasks:
            chunk_hits, samples = execute_sampling_task(task)
            part = SamplingResult(Estimate.from_hits(chunk_hits, samples), chunk_hits, samples)
            merged = part if merged is None else merged.merge(part)
        assert merged.hits == one_shot.hits
        assert merged.samples == one_shot.samples
        assert merged.estimate == one_shot.estimate

    @pytest.mark.parametrize("kind,workers", [("serial", 1), ("thread", 2), ("thread", 4)])
    def test_backends_bit_identical(self, kind, workers):
        tasks = _circle_tasks(3_000, 3)
        reference = run_sampling_tasks(None, tasks)
        pool = ThreadPoolExecutor(workers) if kind == "thread" else None
        try:
            assert run_sampling_tasks(pool, tasks) == reference
        finally:
            if pool is not None:
                pool.shutdown()

    def test_chunk_size_changes_plan_but_not_validity(self):
        pc = parse_path_condition("x >= 0")
        profile = UsageProfile.uniform({"x": (-1, 1)})
        for chunk_size in (2_000, 250):
            tasks = plan_chunks(pc, profile, ("x",), 2_000, np.random.SeedSequence(1), 0, 0, chunk_size)
            counts = run_sampling_tasks(None, tasks)
            hits = sum(chunk_hits for chunk_hits, _ in counts)
            assert sum(samples for _, samples in counts) == 2_000
            assert hits / 2_000 == pytest.approx(0.5, abs=0.05)

    def test_chunks_are_keyed_by_offset(self):
        """A plan continued from an offset reproduces the tail of a longer plan."""
        pc = parse_path_condition("x >= 0")
        profile = UsageProfile.uniform({"x": (-1, 1)})
        seed = np.random.SeedSequence(4)
        whole = plan_chunks(pc, profile, ("x",), 3 * CHUNK, seed, 0, 0, CHUNK)
        tail = plan_chunks(pc, profile, ("x",), 2 * CHUNK, seed, 0, CHUNK, CHUNK)
        assert run_sampling_tasks(None, whole)[1:] == run_sampling_tasks(None, tail)


class TestStratifiedParallel:
    def test_plan_absorb_matches_extend(self):
        """Running a plan elsewhere and absorbing equals in-place extension."""
        pc = parse_path_condition("x * x + y * y <= 1")
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        direct = StratifiedSampler(pc, profile, 21, chunk_size=CHUNK)
        direct.extend(2_000)

        planned_sampler = StratifiedSampler(pc, profile, 21, chunk_size=CHUNK)
        planned = planned_sampler.plan_extension(2_000)
        assert planned, "expected at least one sampleable stratum"
        for (stratum_index, task), (hits, samples) in zip(
            planned, run_sampling_tasks(None, [task for _, task in planned])
        ):
            planned_sampler.absorb_chunk(stratum_index, hits, samples)
        assert planned_sampler.estimate() == direct.estimate()
        assert planned_sampler.counts() == direct.counts()
        assert planned_sampler.total_samples == direct.total_samples == 2_000

    def test_executor_backed_extend_matches_serial(self):
        pc = parse_path_condition("x * x + y * y <= 1")
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        serial = StratifiedSampler(pc, profile, 8, chunk_size=CHUNK)
        serial.extend(1_500)
        with ThreadPoolExecutor(3) as pool:
            threaded = StratifiedSampler(pc, profile, 8, pool=pool, chunk_size=CHUNK)
            threaded.extend(1_500)
        assert threaded.estimate() == serial.estimate()
        assert threaded.counts() == serial.counts()


class TestAnalyzerDeterminism:
    """Same master seed => identical QCoralResult at every worker count."""

    @pytest.fixture(scope="class")
    def reference(self):
        config = QCoralConfig(samples_per_query=3_000, seed=17, chunk_size=CHUNK)
        return run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)

    @pytest.mark.parametrize("kind,workers", [("serial", 1), ("thread", 1), ("thread", 2), ("thread", 4)])
    def test_backend_and_worker_count_invariance(self, reference, kind, workers):
        # "thread", 1 hands the analyzer a pool of one thread; "serial" none.
        config = QCoralConfig(samples_per_query=3_000, seed=17, chunk_size=CHUNK)
        if kind == "serial":
            result = run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)
        else:
            with ThreadPoolExecutor(workers) as pool:
                result = QCoralAnalyzer(_profile(), config, pool=pool).analyze(parse_constraint_set(CONSTRAINTS))
            assert result.executor == f"thread×{workers}"
        assert result.mean == reference.mean
        assert result.variance == reference.variance
        assert result.total_samples == reference.total_samples

    def test_adaptive_neyman_invariance(self):
        """The variance-driven loop re-allocates identically at every worker count."""
        config = replace(QCoralConfig(samples_per_query=4_000, seed=5, allocation="neyman"), chunk_size=CHUNK)
        serial = run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)
        threaded = run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config, workers=3)
        assert serial.rounds == threaded.rounds
        assert serial.mean == threaded.mean
        assert serial.variance == threaded.variance

    def test_plain_mc_configuration_invariance(self):
        """The no-STRAT path (whole-domain hit-or-miss) shards identically."""
        config = QCoralConfig(
            samples_per_query=2_000,
            stratified=False,
            partition_and_cache=False,
            seed=29,
            chunk_size=CHUNK,
        )
        constraint_set = parse_constraint_set(CONSTRAINTS)
        assert run_engine(constraint_set, _profile(), config).estimate == run_engine(
            constraint_set, _profile(), config, workers=2
        ).estimate

    def test_default_path_matches_serial_executor(self):
        """A bare analyzer samples in the calling thread, exactly as ``Session(workers=1)``."""
        config = QCoralConfig(samples_per_query=2_000, seed=13)
        first = run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)
        second = run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)
        with Session(workers=1) as session:
            serial = session.quantify(CONSTRAINTS, _profile(), config=config).run()
        assert first.estimate == second.estimate == serial.estimate
        assert first.total_samples == serial.total_samples
        assert first.executor is None and serial.executor is None

    def test_executor_recorded_in_repr(self):
        config = QCoralConfig(samples_per_query=1_000, seed=1, chunk_size=CHUNK)
        result = run_engine(parse_constraint_set("x >= 0"), UsageProfile.uniform({"x": (-1, 1)}), config, workers=2)
        assert "exec=thread×2" in repr(result)

    def test_invalid_executor_config_rejected(self):
        # Parallelism is a Session knob, not a config field.
        with pytest.raises(TypeError):
            QCoralConfig(executor="thread")
        with pytest.raises(TypeError):
            QCoralConfig(workers=2)
        with pytest.raises(ConfigurationError):
            QCoralConfig(chunk_size=0)
        with pytest.raises(ConfigurationError):
            Session(workers=0)

    def test_borrowed_executor_not_closed(self):
        with ThreadPoolExecutor(2) as pool:
            config = QCoralConfig(samples_per_query=1_000, seed=3, chunk_size=CHUNK)
            analyzer = QCoralAnalyzer(_profile(), config, pool=pool)
            analyzer.analyze(parse_constraint_set(CONSTRAINTS))
            # The borrowed pool must still be usable after analyzer close.
            assert pool.submit(int, "42").result() == 42


class TestThreadSafeCache:
    def test_concurrent_lookups_and_inserts(self):
        cache = EstimateCache()
        factors = [parse_path_condition(f"x <= {i}") for i in range(8)]
        errors = []

        def hammer(worker):
            try:
                for round_index in range(50):
                    factor = factors[(worker + round_index) % len(factors)]
                    if cache.get(factor) is None:
                        cache.put(factor, Estimate.exact(0.5))
                    cache.record_shared_hit()
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(cache) == len(factors)
        statistics = cache.statistics
        # Every iteration does exactly one get and one record_shared_hit:
        # the counters must balance despite 8 threads racing on them.
        assert statistics.lookups == 8 * 50 * 2

    def test_shared_analyzer_under_thread_backend(self):
        """One analyzer with PARTCACHE analysed concurrently stays consistent."""
        config = QCoralConfig(samples_per_query=1_000, seed=2, chunk_size=CHUNK)
        result = run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config, workers=2)
        assert 0.0 <= result.mean <= 1.0


def _repeat_in_thread(repeat, timeout=120.0):
    """Run ``repeat()`` on a daemon thread; fail instead of hanging past ``timeout``."""
    outcome = {}

    def target():
        outcome["value"] = repeat()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"repeated trials did not finish within {timeout:.0f} s"
    return outcome["value"]


class TestRunnerExecutor:
    def test_trial_seeds_prefix_stable(self):
        assert trial_seeds(3, base_seed=4) == trial_seeds(5, base_seed=4)[:3]

    def test_trial_seeds_pinned(self):
        # Recorded before the trial seeds moved onto SeedSequence.spawn
        # directly: Query.repeat answers must not move.
        assert trial_seeds(5, base_seed=0) == [3757552657, 673228719, 3241444873, 3685993406, 1216546553]
        assert trial_seeds(5, base_seed=2014) == [3795767458, 3578693689, 1477077092, 3692059209, 3706863618]

    def test_repeat_analysis_runs_every_seed_in_order(self):
        seen = []

        def run(seed):
            seen.append(seed)
            return float(np.random.default_rng(seed).random()), 0.0

        repeated = repeat_analysis(run, runs=6, base_seed=3)
        assert seen == trial_seeds(6, base_seed=3)
        assert [o.estimate for o in repeated.outcomes] == [
            float(np.random.default_rng(seed).random()) for seed in seen
        ]

    def test_repeat_query_with_executor(self):
        """Trials on a pooled session match the calling thread's, trial for trial."""
        bounds = {"x": (-1, 1), "y": (-1, 1)}
        results = []
        for workers in (1, 2):
            with Session(workers=workers) as session:
                query = session.quantify("x * x + y * y <= 1", bounds).with_budget(500).configure(chunk_size=100)
                results.append(_repeat_in_thread(lambda: repeat_query(query, runs=4, base_seed=1)))
        serial, pooled = results
        assert pooled.runs == 4
        assert [o.estimate for o in pooled.outcomes] == [o.estimate for o in serial.outcomes]
        assert pooled.mean_estimate == pytest.approx(np.pi / 4, abs=0.1)
        assert pooled.mean_samples == 500

    @pytest.mark.parametrize("workers", [2, 4])
    def test_repeat_on_a_pooled_session_finishes(self, workers):
        """``Query.repeat`` on ``Session(workers=N)`` completes and matches one worker."""
        bounds = {"x": (-1, 1), "y": (-1, 1)}
        reports = []
        for count in (1, workers):
            with Session(workers=count) as session:
                query = session.quantify("x * x + y * y <= 1", bounds).with_budget(2_000).configure(chunk_size=250)
                reports.append(_repeat_in_thread(lambda: query.repeat(runs=4, base_seed=7)))
        serial, pooled = reports
        assert [(t.estimate, t.reported_std) for t in pooled.trials] == [
            (t.estimate, t.reported_std) for t in serial.trials
        ]
        assert (pooled.mean, pooled.std) == (serial.mean, serial.std)


class TestCliExecutor:
    def test_quantify_with_executor_flag(self, capsys):
        exit_code = main(
            [
                "quantify",
                "x >= 0",
                "--domain",
                "x=-1:1",
                "--samples",
                "1000",
                "--seed",
                "1",
                "--workers",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "executor:      thread×2" in captured.out

    def test_executor_flag_determinism_across_backends(self, capsys):
        outputs = []
        for workers in ("1", "2", "3"):
            main(
                [
                    "quantify",
                    "x * x + y * y <= 1",
                    "--domain",
                    "x=-1:1",
                    "--domain",
                    "y=-1:1",
                    "--samples",
                    "2000",
                    "--seed",
                    "6",
                    "--workers",
                    workers,
                ]
            )
            out = capsys.readouterr().out
            outputs.append([line for line in out.splitlines() if line.startswith("probability:")])
        assert outputs[0] == outputs[1] == outputs[2]
