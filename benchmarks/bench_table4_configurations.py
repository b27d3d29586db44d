"""Table 4 (RQ3): feature ablation on the aerospace subjects.

The paper compares four estimators — a Mathematica Monte Carlo baseline,
qCORAL{}, qCORAL{STRAT} and qCORAL{STRAT,PARTCACHE} — on Apollo and the two
TSAFE modules at 1K, 10K and 100K samples, reporting estimate, σ and time.
This benchmark regenerates those rows on the re-modelled subjects (see
DESIGN.md for the substitution); the expected qualitative shape is

* STRAT reduces σ relative to plain per-path sampling,
* PARTCACHE reduces analysis time (and samples drawn) on subjects whose paths
  share independent factors,
* σ shrinks roughly as 1/sqrt(samples) across the sample sweep.
"""

from __future__ import annotations

import pytest

try:
    from benchmarks.conftest import FULL_SCALE, repetitions, sample_counts
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import FULL_SCALE, repetitions, sample_counts
from repro.analysis.results import Table
from repro.analysis.runner import repeat_analysis
from repro.baselines.plain_mc import plain_monte_carlo
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.subjects.aerospace import all_subjects, subject_by_name

#: Depth scale for the synthetic PC families (1.0 → laptop-size subjects).
SCALE = 1.0 if FULL_SCALE else 0.75

#: Sample budgets: the paper sweeps 1K / 10K / 100K.
BUDGETS = sample_counts(default=(1_000,), full=(1_000, 10_000, 100_000))

#: The paper's STRAT and PARTCACHE flags of each qCORAL configuration.
PLAIN = {"stratified": False, "partition_and_cache": False}
STRAT = {"stratified": True, "partition_and_cache": False}
STRAT_PARTCACHE = {"stratified": True, "partition_and_cache": True}

#: Each configuration's flags; None is the global Monte Carlo baseline.
CONFIGURATIONS = (
    ("Monte Carlo (global)", None),
    ("qCORAL{}", PLAIN),
    ("qCORAL{STRAT}", STRAT),
    ("qCORAL{STRAT,PARTCACHE}", STRAT_PARTCACHE),
)


def run_configuration(subject, label, features, samples: int, seed: int):
    if features is None:
        result = plain_monte_carlo(subject.constraint_set, subject.profile(), samples, seed=seed)
        return result.mean, result.std
    analyzer = QCoralAnalyzer(subject.profile(), QCoralConfig(samples_per_query=samples, seed=seed, **features))
    result = analyzer.analyze(subject.constraint_set)
    return result.mean, result.std


def generate_table() -> Table:
    table = Table(
        "Table 4 — estimator configurations on the aerospace subjects",
        ("samples", "estimate", "σ", "time (s)"),
    )
    for subject in all_subjects(scale=SCALE):
        for samples in BUDGETS:
            for label, features in CONFIGURATIONS:
                aggregated = repeat_analysis(
                    lambda seed: run_configuration(subject, label, features, samples, seed),
                    runs=repetitions(default=2),
                    base_seed=31,
                )
                table.add_row(
                    f"{subject.name} / {label}",
                    samples,
                    aggregated.mean_estimate,
                    aggregated.mean_reported_std,
                    aggregated.mean_time,
                )
    return table


class TestTable4Benchmarks:
    @pytest.mark.parametrize("name", ["Conflict", "Turn Logic"])
    def test_full_configuration(self, benchmark, name):
        subject = subject_by_name(name, scale=SCALE)
        mean, _ = benchmark(lambda: run_configuration(subject, "full", STRAT_PARTCACHE, 1_000, seed=2))
        assert 0.0 <= mean <= 1.05

    def test_monte_carlo_baseline(self, benchmark):
        subject = subject_by_name("Conflict", scale=SCALE)
        mean, _ = benchmark(lambda: run_configuration(subject, "mc", None, 1_000, seed=2))
        assert 0.0 <= mean <= 1.0

    def test_stratification_reduces_sigma_on_conflict(self):
        subject = subject_by_name("Conflict", scale=SCALE)
        _, plain_sigma = run_configuration(subject, "plain", PLAIN, 2_000, seed=9)
        _, strat_sigma = run_configuration(subject, "strat", STRAT, 2_000, seed=9)
        assert strat_sigma <= plain_sigma * 1.5

    def test_partcache_reduces_time_on_apollo(self):
        import time

        subject = subject_by_name("Apollo", scale=0.75)

        def timed(features):
            started = time.perf_counter()
            run_configuration(subject, "x", features, 1_000, seed=4)
            return time.perf_counter() - started

        without_cache = timed(STRAT)
        with_cache = timed(STRAT_PARTCACHE)
        assert with_cache <= without_cache * 1.2

    def test_configurations_agree_on_the_estimate(self):
        subject = subject_by_name("Turn Logic", scale=0.75)
        means = [run_configuration(subject, label, features, 4_000, seed=8)[0] for label, features in CONFIGURATIONS]
        assert max(means) - min(means) < 0.1


if __name__ == "__main__":
    print(generate_table().render())
    if not FULL_SCALE:
        print("\n(reduced mode: set QCORAL_BENCH_FULL=1 for the full 1K/10K/100K sweep)")
