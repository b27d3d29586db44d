"""Tests for the parallel execution subsystem (repro.exec) and its threading
through the sampling stack: executor backends, deterministic sharded seeding,
merge algebra, the analyzer's cross-backend reproducibility, thread-safe
caching, and the executor-aware experiment runner."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.runner import repeat_analysis, repeat_query, trial_seeds
from repro.api import Session
from repro.cli import main
from repro.core.cache import EstimateCache
from repro.core.estimate import Estimate
from repro.core.montecarlo import hit_or_miss_sharded
from repro.core.profiles import UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.core.stratified import StratifiedSampler
from repro.errors import ConfigurationError
from repro.exec import (
    EXECUTOR_KINDS,
    SamplingTask,
    SeedStream,
    SerialExecutor,
    ThreadPoolExecutor,
    execute_sampling_task,
    make_executor,
    run_sampling_tasks,
    shard_budget,
)
from repro.lang.parser import parse_constraint_set, parse_path_condition


def run_engine(constraint_set, profile, config):
    """One engine run of ``constraint_set``; closes any pool the config opened."""
    with QCoralAnalyzer(profile, config) as analyzer:
        return analyzer.analyze(constraint_set)

#: A non-trivial workload: two disjoint paths, a shared non-linear factor.
CONSTRAINTS = "x * x + y * y <= 1 && z <= 0.5 || x * x + y * y <= 1 && z > 0.5 && z <= 0.75"

#: Small chunks so even tiny test budgets shard into several tasks.
CHUNK = 500


def _profile():
    return UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1), "z": (0, 1)})


def _double(value):
    return value * 2  # module-level so the process backend can pickle it


class TestSeedStream:
    def test_same_seed_reproduces_children(self):
        first = SeedStream(123).spawn(3)
        second = SeedStream(123).spawn(3)
        for a, b in zip(first, second):
            assert a.generator().integers(0, 10**9) == b.generator().integers(0, 10**9)

    def test_children_are_independent(self):
        left, right = SeedStream(5).spawn(2)
        assert left.generator().integers(0, 10**9) != right.generator().integers(0, 10**9)

    def test_spawn_order_is_the_identity(self):
        stream = SeedStream(9)
        first = stream.spawn_sequence()
        again = SeedStream(9)
        assert np.random.default_rng(first).integers(0, 10**9) == np.random.default_rng(
            again.spawn_sequence()
        ).integers(0, 10**9)
        assert stream.children_spawned == again.children_spawned == 1

    def test_spawn_seeds_are_ints_and_reproducible(self):
        seeds = SeedStream(42).spawn_seeds(4)
        assert all(isinstance(seed, int) for seed in seeds)
        assert seeds == SeedStream(42).spawn_seeds(4)
        assert len(set(seeds)) == 4

    def test_negative_spawn_rejected(self):
        with pytest.raises(ValueError):
            SeedStream(1).spawn(-1)


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
    def test_make_executor_kinds(self):
        for kind in EXECUTOR_KINDS:
            backend = make_executor(kind, workers=2)
            assert backend.kind == kind
            backend.close()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_executor("gpu")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ThreadPoolExecutor(0)

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_map_preserves_order(self, kind):
        with make_executor(kind, workers=2) as backend:
            assert backend.map(_double, list(range(20))) == [2 * i for i in range(20)]

    def test_describe(self):
        assert SerialExecutor().describe() == "serial"
        with ThreadPoolExecutor(4) as backend:
            assert backend.describe() == "thread×4"

    def test_close_is_idempotent(self):
        backend = ThreadPoolExecutor(2)
        backend.map(_double, [1, 2])
        backend.close()
        backend.close()


class TestShardedSampling:
    def test_chunked_merge_equals_one_shot(self):
        """Chunked SamplingResult merging reproduces the one-shot counts."""
        pc = parse_path_condition("x * x + y * y <= 1")
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        one_shot = hit_or_miss_sharded(pc, profile, 4_000, SeedStream(11), chunk_size=1_000)

        # Re-run the identical plan by hand and merge the partial results.
        stream = SeedStream(11)
        tasks = [
            SamplingTask(pc=pc, profile=profile, samples=1_000, seed=stream.spawn_sequence(), variables=("x", "y"))
            for _ in range(4)
        ]
        merged = None
        for task in tasks:
            hits, samples = execute_sampling_task(task)
            from repro.core.montecarlo import SamplingResult

            part = SamplingResult(Estimate.from_hits(hits, samples), hits, samples)
            merged = part if merged is None else merged.merge(part)
        assert merged.hits == one_shot.hits
        assert merged.samples == one_shot.samples
        assert merged.estimate == one_shot.estimate

    @pytest.mark.parametrize("kind,workers", [("serial", 1), ("thread", 2), ("thread", 4), ("process", 2)])
    def test_backends_bit_identical(self, kind, workers):
        pc = parse_path_condition("x * x + y * y <= 1")
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        reference = hit_or_miss_sharded(pc, profile, 3_000, SeedStream(3), chunk_size=CHUNK)
        with make_executor(kind, workers=workers) as backend:
            result = hit_or_miss_sharded(pc, profile, 3_000, SeedStream(3), executor=backend, chunk_size=CHUNK)
        assert result.hits == reference.hits
        assert result.estimate == reference.estimate

    def test_chunk_size_changes_plan_but_not_validity(self):
        pc = parse_path_condition("x >= 0")
        profile = UsageProfile.uniform({"x": (-1, 1)})
        coarse = hit_or_miss_sharded(pc, profile, 2_000, SeedStream(1), chunk_size=2_000)
        fine = hit_or_miss_sharded(pc, profile, 2_000, SeedStream(1), chunk_size=250)
        for result in (coarse, fine):
            assert result.samples == 2_000
            assert result.estimate.mean == pytest.approx(0.5, abs=0.05)


class TestStratifiedParallel:
    def test_plan_absorb_matches_extend(self):
        """Running a plan elsewhere and absorbing equals in-place extension."""
        pc = parse_path_condition("x * x + y * y <= 1")
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        direct = StratifiedSampler(pc, profile, None, seed_stream=SeedStream(21), chunk_size=CHUNK)
        direct.extend(2_000)

        planned_sampler = StratifiedSampler(pc, profile, None, seed_stream=SeedStream(21), chunk_size=CHUNK)
        planned = planned_sampler.plan_extension(2_000)
        assert planned, "expected at least one sampleable stratum"
        for (stratum_index, task), (hits, samples) in zip(
            planned, run_sampling_tasks(None, [task for _, task in planned])
        ):
            planned_sampler.absorb_chunk(stratum_index, hits, samples)
        assert planned_sampler.estimate() == direct.estimate()
        assert planned_sampler.total_samples == direct.total_samples == 2_000

    def test_sampler_requires_rng_or_stream(self):
        pc = parse_path_condition("x >= 0")
        with pytest.raises(ConfigurationError):
            StratifiedSampler(pc, UsageProfile.uniform({"x": (-1, 1)}), None)

    def test_executor_backed_extend_matches_serial(self):
        pc = parse_path_condition("x * x + y * y <= 1")
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        serial = StratifiedSampler(pc, profile, None, seed_stream=SeedStream(8), chunk_size=CHUNK)
        serial.extend(1_500)
        with make_executor("thread", workers=3) as backend:
            threaded = StratifiedSampler(
                pc, profile, None, seed_stream=SeedStream(8), executor=backend, chunk_size=CHUNK
            )
            threaded.extend(1_500)
        assert threaded.estimate() == serial.estimate()


class TestAnalyzerDeterminism:
    """Same master seed => identical QCoralResult on every backend/worker count."""

    @pytest.fixture(scope="class")
    def reference(self):
        config = QCoralConfig(samples_per_query=3_000, seed=17, executor="serial", chunk_size=CHUNK)
        return run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)

    @pytest.mark.parametrize(
        "kind,workers",
        [("serial", 1), ("thread", 1), ("thread", 2), ("thread", 4), ("process", 1), ("process", 2), ("process", 4)],
    )
    def test_backend_and_worker_count_invariance(self, reference, kind, workers):
        config = QCoralConfig(samples_per_query=3_000, seed=17, executor=kind, workers=workers, chunk_size=CHUNK)
        result = run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)
        assert result.mean == reference.mean
        assert result.variance == reference.variance
        assert result.total_samples == reference.total_samples

    def test_adaptive_neyman_invariance(self):
        """The variance-driven loop re-allocates identically on all backends."""
        def run(kind, workers):
            config = replace(QCoralConfig.adaptive(4_000, seed=5).with_executor(kind, workers), chunk_size=CHUNK)
            return run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)

        serial = run("serial", None)
        threaded = run("thread", 3)
        assert serial.rounds == threaded.rounds
        assert serial.mean == threaded.mean
        assert serial.variance == threaded.variance

    def test_plain_mc_configuration_invariance(self):
        """The no-STRAT path (whole-domain hit-or-miss) shards identically."""
        def run(kind, workers):
            config = QCoralConfig(
                samples_per_query=2_000,
                stratified=False,
                partition_and_cache=False,
                seed=29,
                executor=kind,
                workers=workers,
                chunk_size=CHUNK,
            )
            return run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)

        assert run("serial", None).estimate == run("thread", 2).estimate

    def test_legacy_path_unchanged_by_default(self):
        """executor=None keeps the pre-subsystem single-stream behaviour."""
        config = QCoralConfig(samples_per_query=2_000, seed=13)
        first = run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)
        second = run_engine(parse_constraint_set(CONSTRAINTS), _profile(), config)
        assert first.estimate == second.estimate
        assert first.executor is None

    def test_executor_recorded_in_repr(self):
        config = QCoralConfig(samples_per_query=1_000, seed=1, executor="thread", workers=2, chunk_size=CHUNK)
        result = run_engine(parse_constraint_set("x >= 0"), UsageProfile.uniform({"x": (-1, 1)}), config)
        assert "exec=thread×2" in repr(result)

    def test_invalid_executor_config_rejected(self):
        with pytest.raises(ConfigurationError):
            QCoralConfig(executor="gpu")
        with pytest.raises(ConfigurationError):
            QCoralConfig(executor="thread", workers=0)
        with pytest.raises(ConfigurationError):
            QCoralConfig(chunk_size=0)
        with pytest.raises(ConfigurationError):
            # workers without a backend would be silently ignored otherwise.
            QCoralConfig(workers=2)

    def test_borrowed_executor_not_closed(self):
        backend = ThreadPoolExecutor(2)
        try:
            config = QCoralConfig(samples_per_query=1_000, seed=3, executor="thread", chunk_size=CHUNK)
            with QCoralAnalyzer(_profile(), config, executor=backend) as analyzer:
                analyzer.analyze(parse_constraint_set(CONSTRAINTS))
            # The borrowed pool must still be usable after analyzer close.
            assert backend.map(_double, [21]) == [42]
        finally:
            backend.close()


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
        config = QCoralConfig(samples_per_query=1_000, seed=2, executor="thread", workers=2, chunk_size=CHUNK)
        with QCoralAnalyzer(_profile(), config) as analyzer:
            result = analyzer.analyze(parse_constraint_set(CONSTRAINTS))
        assert 0.0 <= result.mean <= 1.0


class TestRunnerExecutor:
    def test_trial_seeds_prefix_stable(self):
        assert trial_seeds(3, base_seed=4) == trial_seeds(5, base_seed=4)[:3]

    def test_thread_executor_matches_serial(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            return float(rng.random()), 0.0

        serial = repeat_analysis(run, runs=6, base_seed=3)
        with ThreadPoolExecutor(3) as backend:
            threaded = repeat_analysis(run, runs=6, base_seed=3, executor=backend)
        assert [o.estimate for o in threaded.outcomes] == [o.estimate for o in serial.outcomes]

    def test_repeat_query_with_executor(self):
        with Session() as session:
            query = session.quantify("x * x + y * y <= 1", {"x": (-1, 1), "y": (-1, 1)}).with_budget(500)
            serial = repeat_query(query, runs=4, base_seed=1)
            with ThreadPoolExecutor(2) as backend:
                aggregated = repeat_query(query, runs=4, base_seed=1, executor=backend)
        assert aggregated.runs == 4
        assert [o.estimate for o in aggregated.outcomes] == [o.estimate for o in serial.outcomes]
        assert aggregated.mean_estimate == pytest.approx(np.pi / 4, abs=0.1)
        assert aggregated.mean_samples == 500


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
                "--executor",
                "thread",
                "--workers",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "executor:      thread×2" in captured.out

    def test_executor_flag_determinism_across_backends(self, capsys):
        outputs = []
        for kind in ("serial", "thread"):
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
                    "--executor",
                    kind,
                ]
            )
            out = capsys.readouterr().out
            outputs.append([line for line in out.splitlines() if line.startswith("probability:")])
        assert outputs[0] == outputs[1]
