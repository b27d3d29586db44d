"""Cross-module integration tests: qCORAL vs baselines vs ground truth."""

import math

import numpy as np
import pytest

from repro.baselines.numint import NumIntConfig, integrate_indicator
from repro.baselines.plain_mc import plain_monte_carlo
from repro.baselines.volcomp import VolCompConfig, bound_probability
from repro.core.profiles import TruncatedNormalDistribution, UniformDistribution, UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.lang.evaluator import holds_any
from repro.lang.parser import parse_constraint_set
from repro.subjects import programs
from repro.subjects.volcomp_suite import TARGET_EVENT, all_assertion_cases
from repro.symexec import execute_program, parse_program
from symexec_reference import DomainOnlyExecutor


def run_engine(constraint_set, profile, config):
    """One engine run of ``constraint_set``."""
    return QCoralAnalyzer(profile, config).analyze(constraint_set)


class TestCrossValidationAgainstGroundTruth:
    """The three techniques must agree with each other and with brute force."""

    def _brute_force(self, constraint_set, profile, samples=200_000, seed=0):
        rng = np.random.default_rng(seed)
        batch = profile.sample(rng, samples)
        hits = 0
        names = list(batch)
        for index in range(samples):
            point = {name: float(batch[name][index]) for name in names}
            if holds_any(constraint_set, point):
                hits += 1
        return hits / samples

    @pytest.mark.parametrize(
        "text,exact",
        [
            ("x * x + y * y <= 1", math.pi / 4),
            ("x <= 0 - y && y <= x", 0.25),
            ("x > 0.5 || x < 0 - 0.5 && y > 0", 0.25 + 0.125),
        ],
    )
    def test_qcoral_matches_exact_values(self, text, exact):
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        cs = parse_constraint_set(text)
        result = run_engine(cs, profile, QCoralConfig(samples_per_query=20_000, seed=3))
        assert result.mean == pytest.approx(exact, abs=0.02)

    def test_all_techniques_agree_on_nonlinear_subject(self):
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        domain = profile.domain()
        cs = parse_constraint_set("sin(3 * x) * y <= 0.2 && x * x + y * y <= 0.9")

        qcoral = run_engine(cs, profile, QCoralConfig(samples_per_query=20_000, seed=5))
        mc = plain_monte_carlo(cs, profile, 20_000, seed=5)
        numint = integrate_indicator(cs, domain, NumIntConfig(accuracy_goal=5e-3))
        bounds = bound_probability(cs, profile, VolCompConfig(max_boxes=3000))

        assert qcoral.mean == pytest.approx(mc.mean, abs=0.03)
        assert qcoral.mean == pytest.approx(numint.probability, abs=0.03)
        assert bounds.lower - 0.02 <= qcoral.mean <= bounds.upper + 0.02

    def test_qcoral_estimate_falls_inside_volcomp_bounds(self):
        """Table 3 consistency property: estimates fall within the bounding intervals."""
        profile = UsageProfile.uniform({"x": (0, 10), "y": (0, 10)})
        cs = parse_constraint_set("x + y <= 12 && x - y <= 4 || x + y > 18")
        result = run_engine(cs, profile, QCoralConfig(samples_per_query=10_000, seed=6))
        bounds = bound_probability(cs, profile, VolCompConfig(max_boxes=4000))
        assert bounds.lower - 0.02 <= result.mean <= bounds.upper + 0.02

    def test_pipeline_matches_brute_force_for_safety_monitor(self):
        program = parse_program(programs.SAFETY_MONITOR)
        symbolic = execute_program(program)
        cs = symbolic.constraint_set_for(programs.SAFETY_MONITOR_EVENT)
        profile = UsageProfile.uniform(program.input_bounds())
        brute = self._brute_force(cs, profile, samples=50_000, seed=4)
        result = run_engine(cs, profile, QCoralConfig(samples_per_query=20_000, seed=4))
        assert result.mean == pytest.approx(brute, abs=0.02)
        assert result.mean == pytest.approx(programs.SAFETY_MONITOR_EXACT, abs=0.02)


class TestPrunedPathsCarryNoProbability:
    """Paths dropped by path-sensitive pruning have probability exactly 0."""

    @pytest.mark.parametrize(
        "subject,assertion",
        [
            pytest.param(subject, assertion, id=f"{subject.name}:{assertion.label}")
            for subject, assertion in all_assertion_cases()
        ],
    )
    def test_fixed_seed_answers_equal_the_domain_only_reference(self, subject, assertion):
        reference = DomainOnlyExecutor(subject.program(assertion), max_depth=subject.max_depth).execute()
        config = QCoralConfig(samples_per_query=3000, seed=11, max_rounds=3, allocation="neyman")
        answers = [
            run_engine(constraint_set, subject.profile(), config)
            for constraint_set in (subject.constraint_set(assertion), reference.constraint_set_for(TARGET_EVENT))
        ]
        pruned, unpruned = ((result.mean.hex(), result.std.hex(), result.total_samples) for result in answers)
        assert pruned == unpruned


class TestNonUniformProfiles:
    def test_truncated_normal_profile_shifts_probability(self):
        """The future-work extension: the same event under two profiles."""
        cs = parse_constraint_set("x >= 0.5")
        uniform = UsageProfile.uniform({"x": (0, 1)})
        skewed = UsageProfile({"x": TruncatedNormalDistribution(0.8, 0.15, 0.0, 1.0)})
        uniform_result = run_engine(cs, uniform, QCoralConfig(samples_per_query=20_000, seed=8))
        skewed_result = run_engine(cs, skewed, QCoralConfig(samples_per_query=20_000, seed=8))
        assert uniform_result.mean == pytest.approx(0.5, abs=0.02)
        assert skewed_result.mean > uniform_result.mean + 0.2

    def test_mixed_profile_composition(self):
        profile = UsageProfile({"x": UniformDistribution(0, 1), "y": TruncatedNormalDistribution(0.5, 0.2, 0.0, 1.0)})
        cs = parse_constraint_set("x <= 0.5 && y <= 0.5")
        result = run_engine(cs, profile, QCoralConfig(samples_per_query=30_000, seed=9))
        # Independence: P = 0.5 * P(y <= 0.5) = 0.5 * 0.5 (the normal is symmetric).
        assert result.mean == pytest.approx(0.25, abs=0.03)


class TestFeatureAblationTrends:
    """Table 4 qualitative trends on a complex-constraint subject."""

    def test_stratification_reduces_variance_on_box_friendly_subject(self):
        profile = UsageProfile.uniform({"x": (-5, 5), "y": (-5, 5)})
        cs = parse_constraint_set("x * x + y * y <= 1")
        plain_config = QCoralConfig(samples_per_query=5000, stratified=False, partition_and_cache=False, seed=10)
        plain = run_engine(cs, profile, plain_config)
        strat = run_engine(cs, profile, QCoralConfig(samples_per_query=5000, partition_and_cache=False, seed=10))
        assert strat.variance < plain.variance

    def test_partcache_reduces_sampling_work_on_shared_factors(self):
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)})
        text = " || ".join(f"sin(x * y) > 0.25 && z > {threshold}" for threshold in (-0.5, 0.0, 0.5))
        cs = parse_constraint_set(text)
        no_cache = run_engine(cs, profile, QCoralConfig(samples_per_query=3000, partition_and_cache=False, seed=11))
        cached = run_engine(cs, profile, QCoralConfig(samples_per_query=3000, seed=11))
        assert cached.total_samples < no_cache.total_samples
        assert cached.mean == pytest.approx(no_cache.mean, abs=0.05)

    def test_accuracy_improves_with_samples(self):
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        cs = parse_constraint_set("sin(x * y * 4) > 0.25")
        errors = []
        reference = run_engine(cs, profile, QCoralConfig(samples_per_query=100_000, seed=12)).mean
        for samples in (500, 50_000):
            estimates = [
                run_engine(cs, profile, QCoralConfig(samples_per_query=samples, seed=seed)).mean
                for seed in range(5)
            ]
            errors.append(float(np.std(estimates)))
        assert errors[1] < errors[0]
        assert abs(reference - np.mean(estimates)) < 0.05
