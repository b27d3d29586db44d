"""Tests of the Session/Query/Report facade and its method and backend names."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.analysis.runner import repeat_analysis
from repro.api import Query, Report, Session
from repro.cli import main
from repro.core.methods import ESTIMATION_METHODS
from repro.core.profiles import UniformDistribution, UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.errors import AnalysisError, ConfigurationError, ReproError
from repro.lang.parser import parse_constraint_set
from repro.store.backends import STORE_BACKENDS, MemoryStore, open_store
from repro.subjects import programs
from repro.symexec.parser import parse_program
from repro.symexec.symbolic import execute_program

TRIANGLE = "x <= 0 - y && y <= x"
BOUNDS = {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}


def triangle_profile():
    return UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})


class TestQueryBuilder:
    def test_fluent_methods_return_new_queries(self):
        with Session() as session:
            base = session.quantify(TRIANGLE, BOUNDS)
            refined = base.with_budget(5000).seed(7).until(std=1e-3, rounds=4)
            assert refined is not base
            assert base.compile().samples_per_query == QCoralConfig().samples_per_query
            config = refined.compile()
            assert config.samples_per_query == 5000
            assert config.seed == 7
            assert config.target_std == 1e-3
            assert config.max_rounds == 4

    def test_compile_applies_engine_invariants(self):
        with Session() as session:
            config = session.quantify(TRIANGLE, BOUNDS).method("importance").compile()
            # The engine's auto-upgrades run through the facade unchanged.
            assert config.allocation == "neyman"
            assert config.max_rounds > 1

    def test_configure_rejects_unknown_fields(self):
        with Session() as session:
            with pytest.raises(ConfigurationError):
                session.quantify(TRIANGLE, BOUNDS).configure(no_such_knob=1)

    @pytest.mark.parametrize("field", ["store_path", "store_backend", "store_readonly"])
    def test_configure_rejects_resource_fields(self, field):
        # Stores belong to the session; a query cannot name its own.
        with Session() as session:
            with pytest.raises(ConfigurationError, match="unknown configuration fields"):
                session.quantify(TRIANGLE, BOUNDS).configure(**{field: None})

    def test_until_needs_an_argument(self):
        with Session() as session:
            with pytest.raises(ConfigurationError):
                session.quantify(TRIANGLE, BOUNDS).until()

    def test_profile_coercion(self):
        with Session() as session:
            query = session.quantify(
                "x >= 0 && n <= 3 && z <= 0.5",
                {"x": (-1.0, 1.0), "n": "int:0:10", "z": UniformDistribution(0, 1)},
            )
            report = query.with_budget(2000).seed(1).run()
            assert 0.0 <= report.mean <= 1.0

    def test_quantify_without_profile_fails_at_run(self):
        with Session() as session:
            query = session.quantify(TRIANGLE)
            with pytest.raises(ConfigurationError):
                query.run()

    def test_features_toggle(self):
        with Session() as session:
            config = session.quantify(TRIANGLE, BOUNDS).features(stratified=False, partition_and_cache=False).compile()
            assert not config.stratified and not config.partition_and_cache
            with pytest.raises(ConfigurationError):
                session.quantify(TRIANGLE, BOUNDS).features()


class TestRunAndStream:
    def test_run_matches_engine_bit_for_bit(self):
        config = QCoralConfig(samples_per_query=4000, seed=11)
        engine = QCoralAnalyzer(triangle_profile(), config).analyze(parse_constraint_set(TRIANGLE))
        with Session() as session:
            report = session.quantify(TRIANGLE, BOUNDS, config=config).run()
        assert report.mean == engine.mean
        assert report.std == engine.std
        assert report.total_samples == engine.total_samples

    def test_stream_yields_the_same_rounds_as_run(self):
        with Session() as session:
            query = session.quantify(TRIANGLE, BOUNDS).with_budget(4000).seed(2).until(std=1e-4, rounds=5)
            streamed = [(r.round_index, r.mean, r.std) for r in query.stream()]
            report = query.run()
        assert streamed == [(r.round_index, r.mean, r.std) for r in report.round_reports]
        assert len(streamed) > 1

    def test_stream_early_stop(self):
        with Session() as session:
            query = session.quantify(TRIANGLE, BOUNDS).with_budget(4000).seed(2).until(rounds=5)
            stream = query.stream()
            first = next(stream)
            assert first.round_index == 1
            stream.stop()
            report = stream.report
        # Stopping after the first yield finalises with the rounds drawn so far.
        assert report.rounds == 1
        assert report.round_reports[0].mean == first.mean
        assert report.total_samples == first.total_samples

    def test_stream_report_without_stop_finalises_early(self):
        with Session() as session:
            query = session.quantify(TRIANGLE, BOUNDS).with_budget(4000).seed(2).until(rounds=5)
            stream = query.stream()
            next(stream)
            next(stream)
            report = stream.report  # implicit early stop
        assert report.rounds == 2

    def test_abandoned_stream_still_flushes_the_store(self):
        # Breaking out and closing the stream (no .report) must still publish
        # the drawn samples: the engine finalises on GeneratorExit.
        store = MemoryStore()
        with Session(store=store) as session:
            query = session.quantify(TRIANGLE, BOUNDS).with_budget(4000).seed(2).until(rounds=5)
            stream = query.stream()
            next(stream)
            stream.close()
            assert len(store) > 0
            assert store.statistics.writes > 0

    def test_closed_stream_stops_iterating(self):
        with Session() as session:
            stream = session.quantify(TRIANGLE, BOUNDS).with_budget(2000).seed(1).stream()
            stream.close()
            assert list(stream) == []
            with pytest.raises(AnalysisError):
                stream.report

    def test_program_query_matches_hand_built_engine_run(self):
        # Figure 1 by hand: symbolic execution, then the engine on the
        # event's constraint set under the program's uniform profile.
        config = QCoralConfig(samples_per_query=3000, seed=5)
        program = parse_program(programs.SAFETY_MONITOR)
        symbolic = execute_program(program)
        profile = UsageProfile.uniform(program.input_bounds())
        engine = QCoralAnalyzer(profile, config).analyze(symbolic.constraint_set_for(programs.SAFETY_MONITOR_EVENT))
        with Session() as session:
            report = session.analyze(programs.SAFETY_MONITOR, programs.SAFETY_MONITOR_EVENT, config=config).run()
        assert report.kind == "program"
        assert report.event == programs.SAFETY_MONITOR_EVENT
        assert report.mean == engine.mean
        assert report.std == engine.std
        assert not symbolic.bounded_constraint_set().path_conditions
        assert report.bounded.mean == 0.0

    def test_stopped_program_stream_skips_the_bounded_analysis(self):
        source = """
        input x in [0.01, 1];
        total = 0;
        while (total <= 3) { total = total + x; }
        observe(done);
        """
        with Session() as session:
            query = session.analyze(source, "done", max_depth=8).with_budget(4000).seed(4).until(rounds=4)
            # Full run: the bound-hitting mass is quantified (it is positive here).
            full = query.run()
            assert full.bounded is not None and full.bounded.mean > 0.0
            # Cancelled run: the bounded analysis must not run to full budget
            # behind the caller's back; the unknown mass is reported as None.
            stream = query.stream()
            next(stream)
            stream.stop()
            partial = stream.report
        assert partial.rounds == 1
        assert partial.bounded is None
        assert partial.confidence_note == ""

    def test_program_query_unknown_event(self):
        with Session() as session:
            plain = QCoralConfig(samples_per_query=100, stratified=False, partition_and_cache=False)
            query = session.analyze(programs.SAFETY_MONITOR, "noSuchEvent", config=plain)
            with pytest.raises(AnalysisError):
                query.run()

    def test_repeat_matches_hand_rolled_trials(self):
        config = QCoralConfig(samples_per_query=1500)
        constraint_set = parse_constraint_set(TRIANGLE)

        def trial(seed):
            result = QCoralAnalyzer(triangle_profile(), replace(config, seed=seed)).analyze(constraint_set)
            return result.mean, result.std

        hand_rolled = repeat_analysis(trial, runs=3, base_seed=9)
        with Session() as session:
            report = session.quantify(TRIANGLE, BOUNDS, config=config).repeat(runs=3, base_seed=9)
        assert report.kind == "repeated"
        assert report.mean == hand_rolled.mean_estimate
        assert report.std == pytest.approx(hand_rolled.empirical_std)
        assert [t.estimate for t in report.trials] == [t.estimate for t in hand_rolled.outcomes]
        # The repeated report keeps the trials' shared configuration metadata.
        assert report.method == "hit-or-miss"
        assert report.feature_label == "qCORAL{STRAT,PARTCACHE}"

    def test_report_drilldown_fields(self):
        with Session() as session:
            report = session.quantify(TRIANGLE, BOUNDS).with_budget(2000).seed(1).run()
        assert report.paths == len(report.path_reports) == 1
        assert report.feature_label == "qCORAL{STRAT,PARTCACHE}"
        assert report.cache_statistics is not None


class CountingStore(MemoryStore):
    def __init__(self):
        super().__init__()
        self.closes = 0

    def close(self):
        self.closes += 1
        super().close()


class TestLifecycles:
    def test_session_owns_named_executor(self):
        session = Session(workers=2)
        first = session.pool
        assert first is session.pool  # lazily built once
        session.close()
        session.close()  # idempotent
        assert session.closed
        with pytest.raises(RuntimeError):
            first.submit(int)  # shut down with the session
        with pytest.raises(ConfigurationError):
            session.quantify(TRIANGLE, BOUNDS)

    def test_failed_stream_report_names_the_real_cause(self):
        with Session() as session:
            # Profile misses 'y': the engine fails on the first round.
            stream = session.quantify(TRIANGLE, {"x": (-1.0, 1.0)}).with_budget(500).stream()
            with pytest.raises(Exception):
                next(stream)
            with pytest.raises(AnalysisError, match="already failed"):
                stream.report

    def test_session_borrows_store_instances(self):
        store = CountingStore()
        with Session(store=store) as session:
            report = session.quantify(TRIANGLE, BOUNDS).with_budget(1000).seed(1).run()
            assert report.store == "memory"
        assert store.closes == 0
        assert len(store) > 0  # the query actually published through it

    def test_session_shares_store_across_queries(self):
        store = MemoryStore()
        with Session(store=store) as session:
            cold = session.quantify(TRIANGLE, BOUNDS).with_budget(2000).seed(3).run()
            warm = session.quantify(TRIANGLE, BOUNDS).with_budget(2000).seed(3).run()
        assert cold.cache_statistics.warm_starts == 0
        # The second query reuses the first one's published counts outright.
        assert warm.total_samples == 0
        assert warm.cache_statistics.store_hits > 0

    def test_lazy_resources_are_created_once_under_concurrency(self):
        # Regression: two threads racing session.pool/.store must share
        # one instance (the loser of an unsynchronized race leaked a pool).
        import threading

        session = Session(workers=2, store_backend="memory")
        seen = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            seen.append((session.pool, session.store))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(pool) for pool, _ in seen}) == 1
        assert len({id(store) for _, store in seen}) == 1
        session.close()

    def test_lazy_ledger_is_created_once_under_concurrency(self):
        # Regression: concurrent first-touch of session.ledger (e.g. two
        # server requests finishing at once) must share one ledger instance,
        # exactly like the pool/store lazy creation above.
        import threading

        session = Session(ledger_backend="memory")
        seen = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            seen.append(session.ledger)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(ledger) for ledger in seen}) == 1
        session.close()

    def test_profile_accepts_list_bounds_and_wraps_bad_specs(self):
        # JSON-shaped profiles arrive with lists, not tuples.
        with Session() as session:
            report = session.quantify(TRIANGLE, {"x": [-1, 1], "y": [-1.0, 1.0]}).with_budget(500).seed(1).run()
            assert 0.0 <= report.mean <= 1.0
            # Malformed spec strings surface as ConfigurationError naming the
            # variable — a clean 400 for the server, never a traceback.
            with pytest.raises(ConfigurationError, match="binomial:n:p"):
                session.quantify(TRIANGLE, {"x": "binomial:n:p", "y": (-1, 1)})

    def test_session_validation(self):
        with pytest.raises(ConfigurationError):
            Session(workers=0)
        with pytest.raises(ConfigurationError):
            Session(store_readonly=True)  # readonly without a store
        with pytest.raises(ConfigurationError):
            Session(store=MemoryStore(), store_backend="sqlite")
        # Typo'd backend names fail at the construction site, not first use.
        with pytest.raises(ConfigurationError):
            Session(store="x.db", store_backend="sqllite")

    def test_profile_coercion_rejects_non_numeric_pairs(self):
        with Session() as session:
            with pytest.raises(ConfigurationError):
                session.quantify(TRIANGLE, {"x": (0, "wide")})

    def test_analyzer_borrows_pool_and_store(self):
        store = CountingStore()
        config = QCoralConfig(samples_per_query=1000, seed=1)
        with ThreadPoolExecutor(2) as pool:
            analyzer = QCoralAnalyzer(triangle_profile(), config, pool=pool, store=store)
            result = analyzer.analyze(parse_constraint_set(TRIANGLE))
            assert pool.submit(int, "7").result() == 7  # borrowed, still open
        assert result.store == "memory"
        assert store.closes == 0  # borrowed
        assert len(store) > 0  # the run published through it


class TestRegistries:
    """The closed method and store-backend name sets."""

    def test_builtin_registries_contents(self):
        assert STORE_BACKENDS == ("memory", "jsonl", "sqlite")
        assert ESTIMATION_METHODS == ("hit-or-miss", "importance")


METHOD_MESSAGE = "unknown estimation method 'nope'; expected one of ('hit-or-miss', 'importance')"
BACKEND_MESSAGE = "unknown store backend 'nope'; expected one of ('memory', 'jsonl', 'sqlite')"


def _served_method_error():
    from repro.serve import ServeClient, ServeClientError, serve_in_thread

    with serve_in_thread() as handle:
        with pytest.raises(ServeClientError) as excinfo:
            ServeClient(handle.url).quantify(TRIANGLE, {"x": "-1:1", "y": "-1:1"}, method="nope")
    assert excinfo.value.status == 400
    return excinfo.value.payload["error"]["message"]


def _raised_message(make):
    with pytest.raises(ReproError) as excinfo:
        make()
    return str(excinfo.value)


@pytest.mark.parametrize(
    "surface,message",
    [
        ("config-method", METHOD_MESSAGE),
        ("session-method", METHOD_MESSAGE),
        ("session-backend", BACKEND_MESSAGE),
        ("open-store", BACKEND_MESSAGE),
        ("served-method", METHOD_MESSAGE),
    ],
)
def test_unknown_name_message_text(surface, message):
    def session_method():
        with Session() as session:
            session.quantify(TRIANGLE, BOUNDS).method("nope").run()

    raisers = {
        "config-method": lambda: QCoralConfig(method="nope"),
        "session-method": session_method,
        "session-backend": lambda: Session(store_backend="nope"),
        "open-store": lambda: open_store(None, "nope"),
    }
    if surface == "served-method":
        assert _served_method_error() == message
    else:
        assert _raised_message(raisers[surface]) == message


class TestCliFacade:
    def test_ledger_backend_without_path_fails_before_sampling(self, capsys):
        argv = ["quantify", TRIANGLE, "--domain", "x=-1:1", "--domain", "y=-1:1", "--ledger-backend", "sqlite"]
        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.out == ""
        assert captured.err == "error: ledger backend 'sqlite' requires a path\n"

    def test_memory_store_backend_refuses_a_path(self, tmp_path, capsys):
        path = tmp_path / "runs.db"
        argv = ["quantify", TRIANGLE, "--domain", "x=-1:1", "--domain", "y=-1:1"]
        exit_code = main(argv + ["--store", str(path), "--store-backend", "memory"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: the memory backend persists nothing")
        assert captured.err.count("\n") == 1
        assert not path.exists()

    def test_json_output_matches_report_schema(self, capsys):
        exit_code = main(
            [
                "quantify",
                TRIANGLE,
                "--domain",
                "x=-1:1",
                "--domain",
                "y=-1:1",
                "--samples",
                "2000",
                "--seed",
                "1",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        import json

        payload = json.loads(captured.out)
        with Session() as session:
            report = session.quantify(TRIANGLE, BOUNDS, config=QCoralConfig(samples_per_query=2000, seed=1)).run()
        expected = report.to_dict()
        payload["time"] = expected["time"] = 0.0
        assert payload == expected

    def test_analyze_json_output(self, tmp_path, capsys):
        program_file = tmp_path / "monitor.prog"
        program_file.write_text(programs.SAFETY_MONITOR)
        exit_code = main(
            [
                "analyze",
                str(program_file),
                programs.SAFETY_MONITOR_EVENT,
                "--samples",
                "1000",
                "--seed",
                "2",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        import json

        payload = json.loads(captured.out)
        assert payload["kind"] == "program"
        assert payload["event"] == programs.SAFETY_MONITOR_EVENT
        assert payload["bounded"] is not None


class TestQueryRepr:
    def test_query_is_a_frozen_dataclass(self):
        with Session() as session:
            query = session.quantify(TRIANGLE, BOUNDS)
            assert isinstance(query, Query)
            with pytest.raises(AttributeError):
                query._settings = ()

    def test_report_repr_mentions_kind(self):
        with Session() as session:
            report = session.quantify(TRIANGLE, BOUNDS).with_budget(500).seed(1).run()
        assert isinstance(report, Report)
        assert "kind='quantification'" in repr(report)
