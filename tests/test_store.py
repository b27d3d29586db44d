"""Tests of the persistent estimate store: keys, backends, and cross-run reuse."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import sqlite3
import threading

import pytest

from repro.api import Session
from repro.core.profiles import UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.lang.canonical import alpha_canonical, alpha_equivalent
from repro.lang.parser import parse_constraint_set, parse_path_condition
from repro.obs import Observability
from repro.store import (
    ESTIMATOR_VERSION,
    JsonlStore,
    MemoryStore,
    SqliteStore,
    StoreContext,
    StoreEntry,
    mc_method,
    open_store,
    stratified_method,
)
from repro.store.entry import StoreError
from repro.subjects import programs


def make_store(backend: str, tmp_path):
    if backend == "memory":
        return MemoryStore()
    if backend == "jsonl":
        return JsonlStore(str(tmp_path / "store.jsonl"))
    return SqliteStore(str(tmp_path / "store.db"))


BACKENDS = ("memory", "jsonl", "sqlite")

#: Entry payloads exactly as stores wrote them before entries dropped their
#: ``spawned`` seed-stream count.
LEGACY_PAYLOADS = {
    "legacy-mc": '{"hits": 7, "kind": "mc", "runs": 1, "samples": 100, "spawned": 2}',
    "legacy-s": (
        '{"kind": "stratified", "paving": "B[0.0,1.0]|B[1.0,2.0]", "runs": 2, '
        '"samples": 15, "spawned": 4, "strata": [[3, 10], [0, 5]]}'
    ),
}


def make_legacy_store(backend: str, tmp_path):
    """A store of ``backend`` holding :data:`LEGACY_PAYLOADS` as written."""
    if backend == "memory":
        store = MemoryStore()
        for key, text in LEGACY_PAYLOADS.items():
            store.merge(key, StoreEntry.from_dict(json.loads(text)))
        return store
    if backend == "jsonl":
        path = tmp_path / "store.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for key, text in LEGACY_PAYLOADS.items():
                handle.write(json.dumps({"key": key, **json.loads(text)}, sort_keys=True) + "\n")
        return JsonlStore(str(path))
    path = str(tmp_path / "store.db")
    SqliteStore(path).close()
    with sqlite3.connect(path) as connection:
        for key, text in LEGACY_PAYLOADS.items():
            payload = json.loads(text)
            connection.execute(
                "INSERT INTO estimates (key, kind, samples, runs, payload) VALUES (?, ?, ?, ?, ?)",
                (key, payload["kind"], payload["samples"], payload["runs"], text),
            )
    connection.close()
    return SqliteStore(path)


# --------------------------------------------------------------------------- #
# Canonicalisation and keys
# --------------------------------------------------------------------------- #
class TestAlphaCanonical:
    def test_renamed_factors_are_alpha_equivalent(self):
        first = parse_path_condition("x <= 0 - y && y <= x")
        second = parse_path_condition("b <= a && a <= 0 - b")
        assert alpha_equivalent(first, second)
        assert alpha_canonical(first).text == alpha_canonical(second).text

    def test_different_shapes_are_not_equivalent(self):
        first = parse_path_condition("x <= 0.5")
        second = parse_path_condition("x < 0.5")
        assert not alpha_equivalent(first, second)

    def test_different_constants_are_not_equivalent(self):
        first = parse_path_condition("x <= 0.5")
        second = parse_path_condition("x <= 0.25")
        assert not alpha_equivalent(first, second)

    def test_conjunct_order_is_irrelevant(self):
        first = parse_path_condition("x <= 0.5 && y >= 0.25")
        second = parse_path_condition("y >= 0.25 && x <= 0.5")
        assert alpha_canonical(first).text == alpha_canonical(second).text

    def test_variables_are_reported_in_canonical_order(self):
        canonical = alpha_canonical(parse_path_condition("q * w <= 1"))
        assert set(canonical.variables) == {"q", "w"}
        for index, name in enumerate(canonical.variables):
            assert f"$v{index}" in canonical.text or len(canonical.variables) <= index
            assert name in {"q", "w"}


class TestFactorKeys:
    PROFILE = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1), "a": (-1, 1), "b": (-1, 1)})

    def test_alpha_equivalent_factors_share_a_key(self):
        context = StoreContext(self.PROFILE, mc_method())
        first = context.key_for(parse_path_condition("x <= 0 - y && y <= x"))
        second = context.key_for(parse_path_condition("b <= a && a <= 0 - b"))
        assert first.digest == second.digest

    def test_profile_fingerprint_mismatch_changes_the_key(self):
        skewed = UsageProfile.uniform({"x": (-1, 1), "y": (-2, 1)})
        pc = parse_path_condition("x <= y")
        uniform_key = StoreContext(self.PROFILE, mc_method()).key_for(pc)
        skewed_key = StoreContext(skewed, mc_method()).key_for(pc)
        assert uniform_key.digest != skewed_key.digest

    def test_distribution_family_changes_the_key(self):
        from repro.core.profiles import TruncatedNormalDistribution, UniformDistribution

        pc = parse_path_condition("x <= 0.5")
        uniform = UsageProfile({"x": UniformDistribution(-1, 1)})
        normal = UsageProfile({"x": TruncatedNormalDistribution(0.0, 1.0, -1, 1)})
        assert (
            StoreContext(uniform, mc_method()).key_for(pc).digest
            != StoreContext(normal, mc_method()).key_for(pc).digest
        )

    def test_method_tag_changes_the_key(self):
        from repro.icp.config import PAPER_CONFIG

        pc = parse_path_condition("x <= 0.5")
        mc_key = StoreContext(self.PROFILE, mc_method()).key_for(pc)
        strat_key = StoreContext(self.PROFILE, stratified_method(PAPER_CONFIG)).key_for(pc)
        assert mc_key.digest != strat_key.digest

    def test_estimator_version_changes_the_key(self):
        pc = parse_path_condition("x <= 0.5")
        current = StoreContext(self.PROFILE, mc_method()).key_for(pc)
        future = StoreContext(self.PROFILE, mc_method(), version="qcoral-est-999").key_for(pc)
        assert ESTIMATOR_VERSION != "qcoral-est-999"
        assert current.digest != future.digest

    def test_symmetric_factor_keys_deterministically(self):
        # x and y can be swapped without changing the constraint text; the
        # fingerprint tie-break must still give one deterministic key.
        skewed = UsageProfile.uniform({"x": (-1, 1), "y": (-2, 1)})
        context = StoreContext(skewed, mc_method())
        first = context.key_for(parse_path_condition("x <= 0.5 && y <= 0.5"))
        second = context.key_for(parse_path_condition("y <= 0.5 && x <= 0.5"))
        assert first.digest == second.digest


# --------------------------------------------------------------------------- #
# Backends: round-trip, merge-on-write, concurrency
# --------------------------------------------------------------------------- #
class TestBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        entry = StoreEntry.from_mc(7, 100)
        store.merge("key-1", entry)
        loaded = store.get("key-1")
        assert (loaded.hits, loaded.samples) == (7, 100)
        assert loaded == store.get("key-1")
        assert store.get("missing") is None
        assert len(store) == 1
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stratified_round_trip(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        entry = StoreEntry.from_strata(((3, 10), (0, 5)), paving="B[0,1]|B[1,2]")
        store.merge("key-s", entry)
        loaded = store.get("key-s")
        assert loaded.strata == ((3, 10), (0, 5))
        assert loaded.samples == 15
        assert loaded.paving == "B[0,1]|B[1,2]"
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pre_change_payload_loads_and_merges(self, backend, tmp_path):
        store = make_legacy_store(backend, tmp_path)
        loaded = store.get("legacy-mc")
        assert (loaded.kind, loaded.hits, loaded.samples, loaded.runs) == ("mc", 7, 100, 1)
        assert "spawned" not in loaded.to_dict()
        merged = store.merge("legacy-mc", StoreEntry.from_mc(3, 50))
        assert (merged.hits, merged.samples, merged.runs) == (10, 150, 2)
        assert store.get("legacy-mc") == merged

        stratified = store.get("legacy-s")
        assert (stratified.strata, stratified.samples, stratified.runs) == (((3, 10), (0, 5)), 15, 2)
        merged = store.merge("legacy-s", StoreEntry.from_strata(((1, 5), (2, 5)), paving="B[0.0,1.0]|B[1.0,2.0]"))
        assert (merged.strata, merged.samples, merged.runs) == (((4, 15), (2, 10)), 25, 3)
        assert store.get("legacy-s") == merged
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merge_on_write_accumulates(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.merge("key", StoreEntry.from_mc(10, 100))
        merged = store.merge("key", StoreEntry.from_mc(5, 50))
        assert (merged.hits, merged.samples, merged.runs) == (15, 150, 2)
        assert store.get("key").samples == 150
        assert store.statistics.creates == 1
        assert store.statistics.merges == 1
        store.close()

    @pytest.mark.parametrize("backend", ("jsonl", "sqlite"))
    def test_persistence_across_handles(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        path = store._path
        store.merge("key", StoreEntry.from_mc(10, 100))
        store.close()
        reopened = open_store(path, backend)
        assert reopened.get("key").samples == 100
        reopened.merge("key", StoreEntry.from_mc(1, 10))
        assert reopened.get("key").samples == 110
        reopened.close()

    @pytest.mark.parametrize("backend", ("jsonl", "sqlite"))
    def test_readonly_skips_writes(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        path = store._path
        store.merge("key", StoreEntry.from_mc(10, 100))
        store.close()
        readonly = open_store(path, backend, readonly=True)
        would_be = readonly.merge("key", StoreEntry.from_mc(5, 50))
        assert would_be.samples == 150  # the caller sees the would-be total
        assert readonly.get("key").samples == 100  # ...but nothing was written
        assert readonly.statistics.readonly_skips == 1
        readonly.close()

    def test_open_store_infers_backend(self, tmp_path):
        assert open_store(None).backend == "memory"
        jsonl = open_store(str(tmp_path / "a.jsonl"))
        sqlite = open_store(str(tmp_path / "a.db"))
        assert (jsonl.backend, sqlite.backend) == ("jsonl", "sqlite")
        jsonl.close()
        sqlite.close()
        with pytest.raises(StoreError):
            open_store(str(tmp_path / "x"), backend="nope")

    def test_memory_backend_refuses_a_file_path(self, tmp_path):
        path = tmp_path / "runs.db"
        with pytest.raises(StoreError, match="takes no file path"):
            open_store(str(path), backend="memory")
        assert not path.exists()
        for in_memory in (None, ":memory:"):
            assert open_store(in_memory, backend="memory").backend == "memory"

    def test_file_backends_need_a_path(self):
        for backend in ("jsonl", "sqlite"):
            for in_memory in (None, ":memory:"):
                with pytest.raises(StoreError, match="needs a file path"):
                    open_store(in_memory, backend=backend)

    def test_jsonl_ignores_corrupt_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = JsonlStore(str(path))
        store.merge("key", StoreEntry.from_mc(10, 100))
        store.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"key": "key", "kind": "mc", "hits": 1, "samples": 10}) + "\n")
        reopened = JsonlStore(str(path))
        assert reopened.get("key").samples == 110
        reopened.close()

    def test_paving_mismatch_keeps_larger_pool(self):
        bigger = StoreEntry.from_strata(((10, 100),), paving="A")
        smaller = StoreEntry.from_strata(((1, 10), (2, 20)), paving="B")
        assert bigger.merge(smaller) is bigger
        assert smaller.merge(bigger) is bigger

    def test_exact_wins_any_kind_mismatch(self):
        # Exactness is machine-dependent (the ICP solver has a wall-clock
        # budget): the same key can legitimately receive a stratified delta
        # from one machine and an exact delta from another.  The proof wins.
        exact = StoreEntry.from_exact(0.25)
        sampled = StoreEntry.from_strata(((10, 100),), paving="A")
        for merged in (exact.merge(sampled), sampled.merge(exact)):
            assert merged.kind == "exact"
            assert merged.exact_mean == 0.25
            assert merged.runs == 2

    def test_time_budget_is_part_of_the_method_tag(self):
        from repro.icp.config import ICPConfig

        fast = stratified_method(ICPConfig(time_budget=2.0))
        slow = stratified_method(ICPConfig(time_budget=60.0))
        assert fast != slow

    def test_readonly_sqlite_on_missing_or_unwritable_path(self, tmp_path):
        # A readonly handle on a store nobody has written yet: empty, no file
        # silently created.
        missing = str(tmp_path / "nope.db")
        store = SqliteStore(missing, readonly=True)
        assert store.get("key") is None
        assert store.keys() == []
        store.close()
        assert not os.path.exists(missing)
        # A readonly handle on an unwritable store file still reads fine.
        path = str(tmp_path / "frozen.db")
        writer = SqliteStore(path)
        writer.merge("key", StoreEntry.from_mc(10, 100))
        writer.close()
        os.chmod(path, 0o444)
        try:
            readonly = SqliteStore(path, readonly=True)
            assert readonly.get("key").samples == 100
            readonly.close()
        finally:
            os.chmod(path, 0o644)

    def test_concurrent_thread_writers_sqlite(self, tmp_path):
        path = str(tmp_path / "store.db")
        store = SqliteStore(path)
        errors = []

        def writer(worker: int) -> None:
            try:
                for _ in range(25):
                    store.merge(f"key-{worker % 3}", StoreEntry.from_mc(1, 10))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = sum(store.get(key).samples for key in store.keys())
        assert total == 4 * 25 * 10
        store.close()

    def test_concurrent_process_writers_sqlite(self, tmp_path):
        path = str(tmp_path / "store.db")
        # Create the schema before the workers race on it.
        SqliteStore(path).close()
        context = multiprocessing.get_context("spawn")
        workers = [context.Process(target=_process_writer, args=(path, worker)) for worker in range(3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert all(worker.exitcode == 0 for worker in workers)
        store = SqliteStore(path)
        total = sum(store.get(key).samples for key in store.keys())
        assert total == 3 * 20 * 10
        store.close()


def _process_writer(path: str, worker: int) -> None:
    store = SqliteStore(path)
    for _ in range(20):
        store.merge(f"key-{worker % 2}", StoreEntry.from_mc(2, 10))
    store.close()


# --------------------------------------------------------------------------- #
# Cross-run reuse through the analyzer
# --------------------------------------------------------------------------- #
PROFILE_2D = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
CIRCLE = "x * x + y * y <= 1"


class TestAnalyzerReuse:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_rerun_samples_nothing(self, backend, tmp_path):
        path = None if backend == "memory" else str(tmp_path / f"store.{backend}")
        store = open_store(path, backend)
        config = QCoralConfig(samples_per_query=5000, seed=11)
        constraint_set = parse_constraint_set(CIRCLE)
        cold = QCoralAnalyzer(PROFILE_2D, config, store=store)
        first = cold.analyze(constraint_set)
        warm = QCoralAnalyzer(PROFILE_2D, config, store=store)
        second = warm.analyze(constraint_set)
        assert first.total_samples == 5000
        assert second.total_samples == 0
        assert second.mean == first.mean
        assert second.variance == first.variance
        assert second.cache_statistics.store_hits >= 1
        store.close()

    def test_renamed_subject_reuses_the_entry(self, tmp_path):
        store = open_store(str(tmp_path / "store.db"))
        config = QCoralConfig(samples_per_query=4000, seed=7)
        cold = QCoralAnalyzer(PROFILE_2D, config, store=store)
        cold.analyze(parse_constraint_set(CIRCLE))
        renamed_profile = UsageProfile.uniform({"u": (-1, 1), "v": (-1, 1)})
        warm = QCoralAnalyzer(renamed_profile, config, store=store)
        result = warm.analyze(parse_constraint_set("u * u + v * v <= 1"))
        assert result.total_samples == 0
        assert result.cache_statistics.store_hits == 1
        store.close()

    def test_profile_mismatch_misses(self, tmp_path):
        store = open_store(str(tmp_path / "store.db"))
        config = QCoralConfig(samples_per_query=2000, seed=7)
        cold = QCoralAnalyzer(PROFILE_2D, config, store=store)
        cold.analyze(parse_constraint_set(CIRCLE))
        wider = UsageProfile.uniform({"x": (-2, 2), "y": (-1, 1)})
        other = QCoralAnalyzer(wider, config, store=store)
        result = other.analyze(parse_constraint_set(CIRCLE))
        assert result.cache_statistics.store_hits == 0
        assert result.total_samples == 2000
        store.close()

    def test_estimator_config_mismatch_misses(self, tmp_path):
        store = open_store(str(tmp_path / "store.db"))
        constraint_set = parse_constraint_set(CIRCLE)
        strat = QCoralConfig(samples_per_query=2000, seed=7)
        plain_cached = QCoralConfig(samples_per_query=2000, stratified=False, partition_and_cache=True, seed=7)
        first = QCoralAnalyzer(PROFILE_2D, strat, store=store)
        first.analyze(constraint_set)
        second = QCoralAnalyzer(PROFILE_2D, plain_cached, store=store)
        result = second.analyze(constraint_set)
        assert result.cache_statistics.store_hits == 0
        assert result.total_samples == 2000
        store.close()

    def test_merge_on_write_pools_samples(self, tmp_path):
        store = open_store(str(tmp_path / "store.db"))
        constraint_set = parse_constraint_set(CIRCLE)
        a = QCoralAnalyzer(PROFILE_2D, QCoralConfig(samples_per_query=3000, seed=1), store=store)
        a.analyze(constraint_set)
        b = QCoralAnalyzer(PROFILE_2D, QCoralConfig(samples_per_query=8000, seed=2), store=store)
        topup = b.analyze(constraint_set)
        assert topup.total_samples == 5000  # only the shortfall is drawn
        (key,) = store.keys()
        entry = store.get(key)
        assert entry.samples == 8000
        assert entry.runs == 2
        assert topup.cache_statistics.warm_starts == 1
        assert topup.cache_statistics.store_merges == 1
        store.close()

    def test_same_seed_warm_rerun_is_deterministic(self, tmp_path):
        first_store = open_store(str(tmp_path / "a.db"))
        second_store = open_store(str(tmp_path / "b.db"))
        constraint_set = parse_constraint_set(CIRCLE)
        results = []
        for store in (first_store, second_store):
            cold = QCoralAnalyzer(PROFILE_2D, QCoralConfig(samples_per_query=2000, seed=3), store=store)
            cold.analyze(constraint_set)
            warm = QCoralAnalyzer(PROFILE_2D, QCoralConfig(samples_per_query=6000, seed=3), store=store)
            results.append(warm.analyze(constraint_set))
            store.close()
        assert results[0].mean == results[1].mean
        assert results[0].variance == results[1].variance

    def test_warm_start_bit_identical_to_one_long_run(self, tmp_path):
        """Chunk-aligned budgets: resume == one long run, at 1, 2 and 4 workers."""
        constraint_set = parse_constraint_set(CIRCLE)
        base = dict(stratified=False, seed=42, chunk_size=10_000)
        short = QCoralConfig(samples_per_query=20_000, **base)
        full = QCoralConfig(samples_per_query=50_000, **base)
        reference = QCoralAnalyzer(PROFILE_2D, full)
        long_run = reference.analyze(constraint_set)
        entries = []
        for workers in (1, 2, 4):
            store = open_store(str(tmp_path / f"store-{workers}.db"))
            with Session(workers=workers, store=store) as session:
                session.quantify(constraint_set, PROFILE_2D, config=short).run()
                resumed = session.quantify(constraint_set, PROFILE_2D, config=full).run()
            assert resumed.mean == long_run.mean
            assert resumed.variance == long_run.variance
            assert resumed.total_samples == 30_000  # only the continuation was drawn
            entries.append({key: store.get(key).to_dict() for key in store.keys()})
            store.close()
        assert entries[0] == entries[1] == entries[2]

    def test_same_seed_topup_draws_fresh_samples(self, tmp_path):
        """A same-seed continuation must not replay the prior's stream."""
        store = open_store(str(tmp_path / "store.db"))
        constraint_set = parse_constraint_set(CIRCLE)
        cold = QCoralAnalyzer(PROFILE_2D, QCoralConfig(samples_per_query=4000, seed=9), store=store)
        first = cold.analyze(constraint_set)
        warm = QCoralAnalyzer(PROFILE_2D, QCoralConfig(samples_per_query=8000, seed=9), store=store)
        second = warm.analyze(constraint_set)
        # Replaying the same 4000 samples would reproduce the mean exactly;
        # a decorrelated continuation virtually never does.
        assert second.mean != first.mean
        assert second.std < first.std
        store.close()

    def test_readonly_store_reuses_but_never_writes(self, tmp_path):
        path = str(tmp_path / "store.db")
        constraint_set = parse_constraint_set(CIRCLE)
        config = QCoralConfig(samples_per_query=2000, seed=5)
        with open_store(path) as store:
            QCoralAnalyzer(PROFILE_2D, config, store=store).analyze(constraint_set)
        snapshot = open_store(path)
        before = {key: snapshot.get(key).samples for key in snapshot.keys()}
        snapshot.close()
        bigger = QCoralConfig(samples_per_query=6000, seed=5)
        with open_store(path, readonly=True) as store:
            result = QCoralAnalyzer(PROFILE_2D, bigger, store=store).analyze(constraint_set)
        assert result.cache_statistics.store_hits == 1
        assert result.total_samples == 4000  # the shortfall is still drawn...
        snapshot = open_store(path)
        assert {key: snapshot.get(key).samples for key in snapshot.keys()} == before
        snapshot.close()

    def test_store_requires_partcache(self, tmp_path):
        config = QCoralConfig(samples_per_query=1000, partition_and_cache=False, seed=1)
        with open_store(str(tmp_path / "store.db")) as store:
            result = QCoralAnalyzer(PROFILE_2D, config, store=store).analyze(parse_constraint_set(CIRCLE))
        assert result.cache_statistics.store_lookups == 0


class TestConcurrentAnalyzers:
    """Whole analyses racing on one store from threads and from processes."""

    @pytest.mark.parametrize("executor_kind", ("thread", "process"))
    def test_concurrent_trials_pool_into_one_store(self, executor_kind, tmp_path):
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        from repro.analysis.runner import trial_seeds

        path = str(tmp_path / "store.db")
        SqliteStore(path).close()  # create the schema before workers race
        pool_type = ThreadPoolExecutor if executor_kind == "thread" else ProcessPoolExecutor
        with pool_type(2) as pool:
            store_hits = sum(pool.map(_StoreTrial(path), trial_seeds(4, base_seed=77)))
        store = SqliteStore(path)
        (key,) = store.keys()
        entry = store.get(key)
        # Each trial either published its own 1500-sample delta (merge-on-
        # write pooled them atomically) or found the entry already covering
        # its budget and reused it outright — never anything in between, and
        # never a corrupted count.
        assert entry.samples == entry.runs * 1500
        assert 1 <= entry.runs <= 4
        assert 0 <= entry.hits <= entry.samples
        assert entry.runs + store_hits == 4
        store.close()


class _StoreTrial:
    """Picklable trial callable (a process pool cannot ship lambdas)."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __call__(self, seed: int) -> int:
        """Run one trial on its own handle of the store and return its store-hit count."""
        config = QCoralConfig(samples_per_query=1500, stratified=False, seed=seed)
        with open_store(self.path) as store:
            analyzer = QCoralAnalyzer(PROFILE_2D, config, store=store)
            return analyzer.analyze(parse_constraint_set(CIRCLE)).cache_statistics.store_hits


# --------------------------------------------------------------------------- #
# Cross-run reuse through program analysis
# --------------------------------------------------------------------------- #
def _analyze_program(source, config, store):
    with Session(store=store) as session:
        return session.analyze(source, programs.SAFETY_MONITOR_EVENT, config=config).run()


class TestPipelineReuse:
    def test_warm_pipeline_rerun_resamples_zero_factors(self, tmp_path):
        config = QCoralConfig(samples_per_query=3000, seed=2)
        store = str(tmp_path / "p.db")
        cold = _analyze_program(programs.SAFETY_MONITOR, config, store)
        warm = _analyze_program(programs.SAFETY_MONITOR, config, store)
        assert cold.total_samples > 0
        assert warm.total_samples == 0
        assert warm.mean == cold.mean
        assert warm.cache_statistics.store_hits >= 1
        assert warm.store is not None

    def test_mutated_program_reuses_unaffected_factors(self, tmp_path):
        config = QCoralConfig(samples_per_query=3000, seed=2)
        store = str(tmp_path / "p.db")
        _analyze_program(programs.SAFETY_MONITOR, config, store)
        mutated = programs.SAFETY_MONITOR.replace("sin(headFlap * tailFlap) > 0.25", "sin(headFlap * tailFlap) > 0.3")
        report = _analyze_program(mutated, config, store)
        stats = report.cache_statistics
        # The altitude factors are untouched by the mutation and must be
        # served from the store; the flap-angle factor changed and must miss
        # (and be re-sampled from scratch).
        assert stats.store_hits >= 1
        assert stats.store_misses >= 1
        assert report.total_samples == 3000


# --------------------------------------------------------------------------- #
# Warm factors rebuild their strata from the stored paving
# --------------------------------------------------------------------------- #
FILE_BACKENDS = ("jsonl", "sqlite")
TWO_FACTORS = "x * x + y * y <= 1 && sin(z) <= 0.5"
PROFILE_3D = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1), "z": (0, 3)})


@pytest.fixture
def pave_calls(monkeypatch):
    """Counts ``ICPSolver.pave`` calls; read and reset ``counter["calls"]``."""
    from repro.icp.solver import ICPSolver

    counter = {"calls": 0}
    original = ICPSolver.pave

    def pave(solver, *args, **kwargs):
        counter["calls"] += 1
        return original(solver, *args, **kwargs)

    monkeypatch.setattr(ICPSolver, "pave", pave)
    return counter


def _force_icp(monkeypatch):
    """Make every stored paving undecodable, so warm factors re-pave with ICP."""
    import repro.core.qcoral as qcoral_module

    monkeypatch.setattr(qcoral_module, "decode_paving", lambda *args, **kwargs: None)


def _run(profile, text, config, store, observability=None):
    analyzer = QCoralAnalyzer(profile, config, store=store, observability=observability)
    return analyzer.analyze(parse_constraint_set(text))


def _entries(store):
    return {key: store.get(key).to_dict() for key in store.keys()}


def _normal_profile():
    from repro.core.profiles import TruncatedNormalDistribution

    return UsageProfile(
        {
            "x": TruncatedNormalDistribution(0.2, 0.4, -1.0, 1.0),
            "y": TruncatedNormalDistribution(-0.1, 0.5, -1.0, 1.0),
            "z": TruncatedNormalDistribution(1.0, 0.8, 0.0, 3.0),
        }
    )


class TestStoredPavingReuse:
    @pytest.mark.parametrize("backend", FILE_BACKENDS)
    def test_warm_rerun_makes_no_pave_calls(self, backend, tmp_path, pave_calls):
        store = make_store(backend, tmp_path)
        config = QCoralConfig(samples_per_query=4000, seed=5)
        cold = _run(PROFILE_3D, TWO_FACTORS, config, store)
        assert cold.total_samples > 0
        assert pave_calls["calls"] == 2
        pave_calls["calls"] = 0
        warm = _run(PROFILE_3D, TWO_FACTORS, config, store)
        assert warm.total_samples == 0
        assert (warm.mean, warm.variance) == (cold.mean, cold.variance)
        # A top-up warm-starts both factors from their stored pavings.
        hub = Observability()
        topup = _run(PROFILE_3D, TWO_FACTORS, QCoralConfig(samples_per_query=9000, seed=5), store, hub)
        assert topup.total_samples == 10_000
        assert topup.cache_statistics.warm_starts == 2
        assert hub.snapshot().counter("qcoral_store_paving_reuse_total") == 2
        assert pave_calls["calls"] == 0
        store.close()

    @pytest.mark.parametrize("backend", FILE_BACKENDS)
    @pytest.mark.parametrize("method", ("hit-or-miss", "importance"))
    def test_decoded_paving_matches_forced_icp(self, backend, method, tmp_path, pave_calls, monkeypatch):
        if method == "importance":
            profile = _normal_profile()
            cold_config = QCoralConfig(samples_per_query=3000, seed=21, mass_split_boxes=12, method="importance")
            warm_config = QCoralConfig(samples_per_query=7000, seed=21, mass_split_boxes=12, method="importance")
        else:
            profile = PROFILE_3D
            cold_config = QCoralConfig(samples_per_query=3000, seed=21)
            warm_config = QCoralConfig(samples_per_query=7000, seed=21)
        stores = []
        for name in ("decoded", "forced"):
            (tmp_path / name).mkdir()
            stores.append(make_store(backend, tmp_path / name))
            _run(profile, TWO_FACTORS, cold_config, stores[-1])
        decoded_store, forced_store = stores

        pave_calls["calls"] = 0
        decoded = _run(profile, TWO_FACTORS, warm_config, decoded_store)
        assert pave_calls["calls"] == 0
        _force_icp(monkeypatch)
        forced = _run(profile, TWO_FACTORS, warm_config, forced_store)
        assert pave_calls["calls"] == 2

        assert decoded.mean.hex() == forced.mean.hex()
        assert decoded.variance.hex() == forced.variance.hex()
        assert decoded.total_samples == forced.total_samples > 0
        assert decoded.cache_statistics.warm_starts == forced.cache_statistics.warm_starts == 2
        assert _entries(decoded_store) == _entries(forced_store)
        for store in stores:
            store.close()

    @pytest.mark.parametrize("backend", FILE_BACKENDS)
    @pytest.mark.parametrize("damage", ("garbage", "box_count", "arity", "outside_domain"))
    def test_malformed_paving_falls_back_to_icp(self, backend, damage, tmp_path, pave_calls):
        import re

        config = QCoralConfig(samples_per_query=3000, seed=4)
        source = MemoryStore()
        cold = _run(PROFILE_2D, CIRCLE, config, source)
        (key,) = source.keys()
        entry = source.get(key)
        boxes = entry.paving.split("|")
        assert len(boxes) > 1
        if damage == "garbage":
            paving = "not a paving"
        elif damage == "box_count":
            paving = "|".join(boxes[:-1])
        elif damage == "arity":
            paving = "|".join(re.sub(r"^([IB])\[[^\]]*\],", r"\1", box) for box in boxes)
        else:
            paving = "|".join([re.sub(r"^([IB])\[[^\]]*\]", r"\1[-1.0,5.0]", boxes[0])] + boxes[1:])
        assert paving != entry.paving
        store = make_store(backend, tmp_path)
        store.merge(key, dataclasses.replace(entry, paving=paving))

        pave_calls["calls"] = 0
        warm = _run(PROFILE_2D, CIRCLE, config, store)
        # ICP re-paved the factor; its paving differs from the damaged text,
        # so the counts are not reused and the run equals the cold one.
        assert pave_calls["calls"] == 1
        assert warm.cache_statistics.warm_starts == 0
        assert warm.total_samples == cold.total_samples
        assert (warm.mean, warm.variance) == (cold.mean, cold.variance)
        store.close()

    @pytest.mark.parametrize("backend", FILE_BACKENDS)
    def test_renamed_factor_maps_stored_boxes_to_its_names(self, backend, tmp_path, pave_calls, monkeypatch):
        # x and y are distributed differently; the renaming sends x -> b and
        # y -> a, so the sorted variable order flips against the canonical one.
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (0, 1.5)})
        renamed_profile = UsageProfile.uniform({"b": (-1, 1), "a": (0, 1.5)})
        text, renamed = "x * x + y <= 1.2", "b * b + a <= 1.2"
        config = QCoralConfig(samples_per_query=3000, seed=13)
        topup = QCoralConfig(samples_per_query=6000, seed=13)
        stores = []
        for name in ("decoded", "forced"):
            (tmp_path / name).mkdir()
            stores.append(make_store(backend, tmp_path / name))
        cold = _run(profile, text, config, stores[0])
        _run(profile, text, config, stores[1])

        pave_calls["calls"] = 0
        reused = _run(renamed_profile, renamed, config, stores[0])
        assert pave_calls["calls"] == 0
        assert reused.total_samples == 0
        assert (reused.mean, reused.variance) == (cold.mean, cold.variance)

        decoded = _run(renamed_profile, renamed, topup, stores[0])
        assert pave_calls["calls"] == 0
        _force_icp(monkeypatch)
        forced = _run(renamed_profile, renamed, topup, stores[1])
        assert pave_calls["calls"] == 1
        assert decoded.cache_statistics.warm_starts == forced.cache_statistics.warm_starts == 1
        assert (decoded.mean.hex(), decoded.variance.hex()) == (forced.mean.hex(), forced.variance.hex())
        assert decoded.total_samples == forced.total_samples == 3000
        for store in stores:
            store.close()


# --------------------------------------------------------------------------- #
# Runs sharing one store handle sample each factor once
# --------------------------------------------------------------------------- #
def _hold(config, store):
    """Start a run and stop after its first round: it holds its factors' claims."""
    stream = QCoralAnalyzer(PROFILE_3D, config, store=store).analyze_stream(parse_constraint_set(TWO_FACTORS))
    next(stream)
    return stream


def _finish(stream):
    try:
        while True:
            next(stream)
    except StopIteration as done:
        return done.value


def _in_thread(config, store, hub):
    results = {}
    thread = threading.Thread(target=lambda: results.update(report=_run(PROFILE_3D, TWO_FACTORS, config, store, hub)))
    thread.start()
    return thread, results


class TestClaimedFactors:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_second_run_waits_for_the_first_and_reuses_it(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        config = QCoralConfig(samples_per_query=4000, seed=5)
        stream = _hold(config, store)
        hub = Observability()
        thread, results = _in_thread(dataclasses.replace(config, seed=6), store, hub)
        thread.join(0.3)
        assert thread.is_alive()  # waiting for the first run to publish
        first = _finish(stream)
        thread.join(10)
        assert not thread.is_alive()
        assert first.total_samples == 8000
        assert results["report"].total_samples == 0
        assert (results["report"].mean, results["report"].variance) == (first.mean, first.variance)
        assert hub.snapshot().counter("store_claim_waits_total") == 1
        assert sorted(entry["samples"] for entry in _entries(store).values()) == [4000, 4000]
        store.close()

    def test_a_thread_never_waits_for_its_own_run(self, tmp_path):
        store = make_store("sqlite", tmp_path)
        config = QCoralConfig(samples_per_query=4000, seed=5)
        stream = _hold(config, store)
        # Same thread, same factors: waiting would deadlock, so it samples.
        second = _run(PROFILE_3D, TWO_FACTORS, dataclasses.replace(config, seed=6), store)
        assert second.total_samples == 8000
        _finish(stream)
        assert sorted(entry["samples"] for entry in _entries(store).values()) == [8000, 8000]
        store.close()

    def test_a_stalled_run_blocks_others_only_until_the_wait_limit(self, tmp_path, monkeypatch):
        import repro.core.cache as cache_module

        monkeypatch.setattr(cache_module, "CLAIM_WAIT_S", 0.2)
        store = make_store("sqlite", tmp_path)
        config = QCoralConfig(samples_per_query=4000, seed=5)
        stream = _hold(config, store)
        thread, results = _in_thread(dataclasses.replace(config, seed=6), store, Observability())
        thread.join(10)
        assert not thread.is_alive()
        assert results["report"].total_samples == 8000
        stream.close()
        store.close()

    def test_a_failed_run_releases_its_claims(self, tmp_path, monkeypatch):
        store = make_store("sqlite", tmp_path)
        config = QCoralConfig(samples_per_query=4000, seed=5)

        def fail(self, plan, states):
            raise RuntimeError("sampling failed")

        with monkeypatch.context() as patch:
            patch.setattr(QCoralAnalyzer, "_round_loop", fail)
            with pytest.raises(RuntimeError):
                _run(PROFILE_3D, TWO_FACTORS, config, store)
        hub = Observability()
        thread, results = _in_thread(config, store, hub)
        thread.join(10)
        assert not thread.is_alive()
        assert results["report"].total_samples == 8000
        assert hub.snapshot().counter("store_claim_waits_total") == 0
        store.close()
