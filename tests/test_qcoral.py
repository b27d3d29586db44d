"""Unit and integration tests for the qCORAL analyzer (Algorithms 1 and 2)."""

from dataclasses import replace

import pytest

from repro.core.profiles import UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.errors import ConfigurationError, DomainError
from repro.lang.parser import parse_constraint_set


def run_engine(constraint_set, profile, config):
    """One engine run of ``constraint_set``."""
    return QCoralAnalyzer(profile, config).analyze(constraint_set)


@pytest.fixture
def square_profile():
    return UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})


class TestConfig:
    def test_presets(self):
        assert QCoralConfig(stratified=False, partition_and_cache=False).feature_label() == "qCORAL{}"
        assert QCoralConfig(partition_and_cache=False).feature_label() == "qCORAL{STRAT}"
        assert QCoralConfig().feature_label() == "qCORAL{STRAT,PARTCACHE}"

    def test_invalid_samples(self):
        with pytest.raises(ConfigurationError):
            QCoralConfig(samples_per_query=0)

    def test_with_samples_and_seed(self):
        plain = QCoralConfig(samples_per_query=1000, stratified=False, partition_and_cache=False)
        config = replace(plain, samples_per_query=5000, seed=3)
        assert config.samples_per_query == 5000
        assert config.seed == 3
        assert not config.stratified


class TestAnalyzer:
    def test_triangle_all_configurations(self, square_profile):
        cs = parse_constraint_set("x <= 0 - y && y <= x")
        for config in (
            QCoralConfig(samples_per_query=10_000, stratified=False, partition_and_cache=False, seed=1),
            QCoralConfig(samples_per_query=10_000, partition_and_cache=False, seed=1),
            QCoralConfig(samples_per_query=10_000, seed=1),
        ):
            result = run_engine(cs, square_profile, config)
            assert result.mean == pytest.approx(0.25, abs=0.03)

    def test_disjoint_paths_sum(self, square_profile):
        cs = parse_constraint_set("x > 0.5 || x <= 0 - 0.5")
        result = run_engine(cs, square_profile, QCoralConfig(samples_per_query=5000, seed=2))
        assert result.mean == pytest.approx(0.5, abs=0.03)
        assert len(result.path_reports) == 2

    def test_independent_factors_multiply(self, square_profile):
        cs = parse_constraint_set("x >= 0 && y >= 0")
        result = run_engine(cs, square_profile, QCoralConfig(samples_per_query=5000, seed=3))
        assert result.mean == pytest.approx(0.25, abs=1e-6)
        report = result.path_reports[0]
        assert report.factor_count == 2

    def test_partcache_reuses_shared_factors(self, square_profile):
        cs = parse_constraint_set("x >= 0 && y >= 0 || x >= 0 && y < 0")
        analyzer = QCoralAnalyzer(square_profile, QCoralConfig(samples_per_query=2000, seed=4))
        result = analyzer.analyze(cs)
        assert result.cache_statistics.hits >= 1
        cached_factors = [factor for report in result.path_reports for factor in report.factors if factor.from_cache]
        assert cached_factors

    def test_no_partcache_treats_pc_as_single_factor(self, square_profile):
        cs = parse_constraint_set("x >= 0 && y >= 0")
        result = run_engine(cs, square_profile, QCoralConfig(samples_per_query=2000, partition_and_cache=False, seed=5))
        assert result.path_reports[0].factor_count == 1
        assert result.cache_statistics.lookups == 0

    def test_exact_probability_one(self, square_profile):
        cs = parse_constraint_set("x <= 2")
        result = run_engine(cs, square_profile, QCoralConfig(samples_per_query=1000, seed=6))
        assert result.mean == pytest.approx(1.0, abs=1e-9)
        assert result.variance == pytest.approx(0.0, abs=1e-12)

    def test_exact_probability_zero(self, square_profile):
        cs = parse_constraint_set("x > 2")
        result = run_engine(cs, square_profile, QCoralConfig(samples_per_query=1000, seed=7))
        assert result.mean == 0.0

    def test_empty_path_condition_counts_whole_domain(self, square_profile):
        from repro.lang.ast import ConstraintSet, PathCondition

        cs = ConstraintSet.of([PathCondition.of([])])
        result = run_engine(cs, square_profile, QCoralConfig(samples_per_query=100, seed=8))
        assert result.mean == 1.0

    def test_missing_profile_variable_rejected(self, square_profile):
        cs = parse_constraint_set("z >= 0")
        plain = QCoralConfig(samples_per_query=100, stratified=False, partition_and_cache=False)
        with pytest.raises(DomainError):
            run_engine(cs, square_profile, plain)

    def test_seeded_runs_are_reproducible(self, square_profile):
        cs = parse_constraint_set("x * x + y * y <= 1")
        config = QCoralConfig(samples_per_query=3000, seed=99)
        first = run_engine(cs, square_profile, config)
        second = run_engine(cs, square_profile, config)
        assert first.mean == second.mean
        assert first.variance == second.variance

    def test_total_samples_reported(self, square_profile):
        cs = parse_constraint_set("x * x + y * y <= 1")
        config = QCoralConfig(samples_per_query=2000, partition_and_cache=False, seed=11)
        result = run_engine(cs, square_profile, config)
        assert result.total_samples > 0
        assert result.analysis_time >= 0.0


class TestPaperExamples:
    def test_section_44_safety_monitor(self):
        """The paper's running example: P(callSupervisor) ≈ 0.737848."""
        profile = UsageProfile.uniform({"altitude": (0, 20000), "headFlap": (-10, 10), "tailFlap": (-10, 10)})
        cs = parse_constraint_set("altitude > 9000 || altitude <= 9000 && sin(headFlap * tailFlap) > 0.25")
        result = run_engine(cs, profile, QCoralConfig(samples_per_query=30_000, seed=12))
        assert result.mean == pytest.approx(0.737848, abs=0.01)
        # altitude-only PCs are resolved exactly by ICP, so the variance comes
        # only from the sin factor and stays small.
        assert result.std < 0.01

    def test_altitude_factor_exact(self):
        """ICP resolves the box constraint `altitude > 9000` with zero variance."""
        profile = UsageProfile.uniform({"altitude": (0, 20000)})
        cs = parse_constraint_set("altitude > 9000")
        result = run_engine(cs, profile, QCoralConfig(samples_per_query=1000, seed=13))
        assert result.mean == pytest.approx(0.55, abs=1e-6)
        assert result.variance == pytest.approx(0.0, abs=1e-12)

    def test_variance_upper_bound_of_disjunction(self):
        """Theorem 1: reported variance bounds the empirical variance of repeats."""
        import numpy as np

        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        cs = parse_constraint_set("x > 0.3 || x <= 0.3 && y > 0.2")
        estimates = []
        reported_variances = []
        for seed in range(15):
            result = run_engine(cs, profile, QCoralConfig(samples_per_query=2000, seed=seed))
            estimates.append(result.mean)
            reported_variances.append(result.variance)
        empirical_variance = float(np.var(estimates, ddof=1))
        # The reported value is an upper bound in expectation; allow generous
        # statistical slack since both sides are noisy.
        assert empirical_variance <= 10 * max(reported_variances) + 1e-6
