"""Tests for the end-to-end pipeline, the experiment runner, and the CLI."""

import statistics

import pytest

from repro.analysis.results import Table, format_interval
from repro.analysis.runner import repeat_analysis, trial_seeds
from repro.api import Session
from repro.cli import main
from repro.core.qcoral import QCoralConfig
from repro.errors import AnalysisError
from repro.subjects import programs
from repro.subjects.volcomp_suite import TARGET_EVENT, subject_by_name


#: qCORAL{} (neither STRAT nor PARTCACHE) at a token budget.
PLAIN_100 = QCoralConfig(samples_per_query=100, stratified=False, partition_and_cache=False)


def analyze(source, event, config, profile=None, max_depth=50):
    with Session() as session:
        return session.analyze(source, event, profile=profile, max_depth=max_depth, config=config).run()


class TestPipeline:
    def test_safety_monitor_end_to_end(self):
        report = analyze(
            programs.SAFETY_MONITOR,
            programs.SAFETY_MONITOR_EVENT,
            QCoralConfig(samples_per_query=20_000, seed=1),
        )
        assert report.mean == pytest.approx(programs.SAFETY_MONITOR_EXACT, abs=0.02)
        assert report.bounded.mean == 0.0

    def test_unknown_event_rejected(self):
        with pytest.raises(AnalysisError):
            analyze(programs.SAFETY_MONITOR, "noSuchEvent", PLAIN_100)

    def test_unknown_event_message_lists_the_declared_events(self):
        with pytest.raises(AnalysisError, match="declared events: \\['callSupervisor'\\]"):
            analyze(programs.SAFETY_MONITOR, "noSuchEvent", PLAIN_100)

    @pytest.mark.parametrize("name,label", [("ATRIAL", "points - pointsErr >= 5"), ("PACK", "count >= 10")])
    def test_declared_event_on_no_feasible_path_answers_zero(self, name, label):
        subject = subject_by_name(name)
        source = subject.program_source(subject.assertion(label))
        config = QCoralConfig(samples_per_query=1000, seed=2)
        report = analyze(source, TARGET_EVENT, config, max_depth=subject.max_depth)
        assert report.mean == 0.0 and report.std == 0.0
        assert report.paths == 0 and report.path_reports == ()
        assert report.bounded.mean == 0.0

    def test_custom_profile_overrides_bounds(self):
        from repro.core.profiles import UsageProfile

        profile = UsageProfile.uniform({"altitude": (9500, 20000), "headFlap": (-10, 10), "tailFlap": (-10, 10)})
        report = analyze(
            programs.SAFETY_MONITOR,
            programs.SAFETY_MONITOR_EVENT,
            QCoralConfig(samples_per_query=2000, seed=3),
            profile=profile,
        )
        # With altitude always above 9000 the supervisor is always called.
        assert report.mean == pytest.approx(1.0, abs=1e-6)

    def test_bounded_paths_probability_reported(self):
        source = """
        input x in [0.01, 1];
        total = 0;
        while (total <= 3) { total = total + x; }
        observe(done);
        """
        report = analyze(source, "done", QCoralConfig(samples_per_query=1000, seed=4), max_depth=8)
        assert report.bounded.mean > 0.0

    def test_assert_violation_analysis(self):
        report = analyze(
            programs.SCORING_WITH_ASSERT,
            "assert.violation",
            QCoralConfig(samples_per_query=5000, seed=5),
        )
        # P(score + bonus > 110) over [0,100]x[0,20] = 50/2000 = 0.025.
        assert report.mean == pytest.approx(0.025, abs=0.01)


class TestRunner:
    def test_aggregates_trials(self):
        seen = []

        def run(seed):
            seen.append(seed)
            return (0.5 + (seed % 7) * 0.01, 0.1)

        outcomes = repeat_analysis(run, runs=5)
        assert outcomes.runs == 5
        # Trial seeds are spawned from one SeedSequence: distinct and
        # reproducible for a fixed base seed.
        assert len(set(seen)) == 5
        assert seen == trial_seeds(5, base_seed=0)
        assert outcomes.mean_estimate == pytest.approx(statistics.fmean(0.5 + (seed % 7) * 0.01 for seed in seen))
        assert outcomes.mean_reported_std == pytest.approx(0.1)

    def test_single_run_has_zero_empirical_std(self):
        outcomes = repeat_analysis(lambda seed: (0.3, 0.05), runs=1)
        assert outcomes.empirical_std == 0.0

    def test_invalid_run_count(self):
        with pytest.raises(ValueError):
            repeat_analysis(lambda seed: (0.5, 0.1), runs=0)

    def test_nan_results_rejected(self):
        with pytest.raises(ValueError):
            repeat_analysis(lambda seed: (float("nan"), 0.0), runs=1)

    def test_summary_contains_fields(self):
        outcomes = repeat_analysis(lambda seed: (0.5, 0.1), runs=2)
        summary = outcomes.summary()
        assert "estimate=" in summary and "time=" in summary


class TestResultsFormatting:
    def test_table_rendering(self):
        table = Table("Demo", ("estimate", "std"))
        table.add_row("subject-a", 0.5, 1e-6)
        table.add_row("subject-b", 123456.0, 0.25)
        rendered = table.render()
        assert "Demo" in rendered
        assert "subject-a" in rendered
        assert "1.00e-06" in rendered

    def test_format_interval(self):
        assert format_interval(0.1, 0.25) == "[0.1000, 0.2500]"


class TestCli:
    def test_quantify_command(self, capsys):
        exit_code = main(
            [
                "quantify",
                "x <= 0 - y && y <= x",
                "--domain",
                "x=-1:1",
                "--domain",
                "y=-1:1",
                "--samples",
                "2000",
                "--seed",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "probability:" in captured.out
        assert "qCORAL{STRAT,PARTCACHE}" in captured.out

    def test_quantify_with_disabled_features(self, capsys):
        exit_code = main(
            [
                "quantify",
                "x >= 0",
                "--domain",
                "x=-1:1",
                "--samples",
                "500",
                "--no-strat",
                "--no-partcache",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "qCORAL{}" in captured.out

    def test_quantify_missing_constraints_errors(self, capsys):
        exit_code = main(["quantify", "", "--domain", "x=0:1"])
        assert exit_code == 2

    def test_quantify_bad_domain_spec(self, capsys):
        exit_code = main(["quantify", "x >= 0", "--domain", "x=oops"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in captured.err

    def test_analyze_command(self, tmp_path, capsys):
        program_file = tmp_path / "monitor.prog"
        program_file.write_text(programs.SAFETY_MONITOR)
        exit_code = main(
            [
                "analyze",
                str(program_file),
                programs.SAFETY_MONITOR_EVENT,
                "--samples",
                "2000",
                "--seed",
                "9",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "probability:" in captured.out
        assert "paths:" in captured.out
