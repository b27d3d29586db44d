"""Tests for the incremental/adaptive estimation engine.

Covers the tentpole invariants of the iterative refactor:

* :class:`RunningEstimate` is a faithful, mergeable accumulator;
* the samplers are resumable (extending a prior equals one longer run);
* budget allocation conserves every sample (no leak on inner/empty strata);
* the adaptive loop respects ``target_std``, never exceeds the budget, and
  reproduces the fixed-budget mean;
* the pipeline shares one analyzer (and hence one factor cache) between the
  event and bounded-path analyses.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimate import Estimate, RunningEstimate
from repro.core.montecarlo import hit_or_miss
from repro.core.profiles import UsageProfile
from repro.core.qcoral import DEFAULT_ADAPTIVE_ROUNDS, QCoralAnalyzer, QCoralConfig
from repro.core.stratified import (
    StratifiedSampler,
    allocate_budget,
    allocation_priorities,
    stratified_sampling,
)
from repro.errors import ConfigurationError
from repro.icp.config import ICPConfig
from repro.lang.parser import parse_constraint_set, parse_path_condition


def run_engine(constraint_set, profile, config):
    """One engine run of ``constraint_set``."""
    return QCoralAnalyzer(profile, config).analyze(constraint_set)


@pytest.fixture
def square_profile():
    return UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})


# --------------------------------------------------------------------------- #
# RunningEstimate
# --------------------------------------------------------------------------- #
class TestRunningEstimate:
    def test_matches_from_hits(self):
        accumulator = RunningEstimate.from_counts(30, 100)
        reference = Estimate.from_hits(30, 100)
        assert accumulator.to_estimate().mean == pytest.approx(reference.mean)
        assert accumulator.to_estimate().variance == pytest.approx(reference.variance)

    def test_incremental_equals_one_shot(self):
        incremental = RunningEstimate()
        incremental.absorb_counts(10, 40)
        incremental.absorb_counts(25, 60)
        one_shot = RunningEstimate.from_counts(35, 100)
        assert incremental.samples == 100
        assert incremental.mean == pytest.approx(one_shot.mean)
        assert incremental.m2 == pytest.approx(one_shot.m2)

    def test_merge_is_commutative(self):
        a = RunningEstimate.from_counts(3, 10)
        b = RunningEstimate.from_counts(45, 90)
        ab = a.merged(b)
        ba = b.merged(a)
        assert ab.samples == ba.samples == 100
        assert ab.mean == pytest.approx(ba.mean)
        assert ab.m2 == pytest.approx(ba.m2)

    def test_empty_accumulator_is_maximally_uncertain(self):
        estimate = RunningEstimate().to_estimate()
        assert estimate.mean == 0.5
        assert estimate.variance == 0.25

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=500), st.floats(0.0, 1.0)), min_size=1, max_size=8))
    def test_batched_absorption_matches_totals(self, batches):
        accumulator = RunningEstimate()
        total_hits = 0
        total_samples = 0
        for samples, rate in batches:
            hits = int(rate * samples)
            accumulator.absorb_counts(hits, samples)
            total_hits += hits
            total_samples += samples
        reference = Estimate.from_hits(total_hits, total_samples)
        assert accumulator.samples == total_samples
        assert accumulator.mean == pytest.approx(reference.mean, abs=1e-12)
        assert accumulator.variance_of_mean() == pytest.approx(reference.variance, abs=1e-12)

    def test_invalid_counts_rejected(self):
        accumulator = RunningEstimate()
        with pytest.raises(ValueError):
            accumulator.absorb_counts(5, 3)
        with pytest.raises(ValueError):
            accumulator.absorb_counts(-1, 3)


# --------------------------------------------------------------------------- #
# Resumable samplers
# --------------------------------------------------------------------------- #
class TestResumableSampling:
    def test_prior_extends_counts(self, square_profile):
        pc = parse_path_condition("x >= 0")
        rng = np.random.default_rng(1)
        first = hit_or_miss(pc, square_profile, 1000, rng)
        second = hit_or_miss(pc, square_profile, 2000, rng, prior=first)
        assert second.samples == 3000
        assert second.hits >= first.hits
        assert second.estimate.mean == pytest.approx(second.hits / 3000)

    def test_resumed_run_equals_merged_runs(self, square_profile):
        pc = parse_path_condition("x * x + y * y <= 1")
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        merged = hit_or_miss(pc, square_profile, 500, rng_a).merge(hit_or_miss(pc, square_profile, 700, rng_a))
        resumed = hit_or_miss(
            pc,
            square_profile,
            700,
            rng_b,
            prior=hit_or_miss(pc, square_profile, 500, rng_b),
        )
        assert resumed.hits == merged.hits
        assert resumed.samples == merged.samples

    def test_sampler_extension_accumulates(self, square_profile):
        pc = parse_path_condition("x * x + y * y <= 1")
        sampler = StratifiedSampler(pc, square_profile, 4)
        assert sampler.extend(1000) == 1000
        first = sampler.estimate()
        assert sampler.extend(4000) == 4000
        second = sampler.estimate()
        assert sampler.total_samples == 5000
        assert second.variance < first.variance
        assert second.mean == pytest.approx(np.pi / 4, abs=0.03)


# --------------------------------------------------------------------------- #
# Budget conservation and allocation
# --------------------------------------------------------------------------- #
class TestBudgetAllocation:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=100_000),
    )
    def test_allocation_conserves_budget(self, priorities, budget):
        shares = allocate_budget(priorities, budget)
        assert sum(shares) == budget
        assert all(share >= 0 for share in shares)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=100_000),
    )
    def test_active_entries_get_minimum_one(self, priorities, budget):
        shares = allocate_budget(priorities, budget)
        if budget >= len(priorities):
            assert all(share >= 1 for share in shares)

    def test_zero_priority_entries_get_nothing(self):
        shares = allocate_budget([0.0, 5.0, 0.0, 5.0], 1000)
        assert shares[0] == 0 and shares[2] == 0
        assert shares[1] + shares[3] == 1000

    def test_all_zero_priorities_split_evenly(self):
        assert allocate_budget([0.0, 0.0], 10) == [5, 5]

    def test_negative_priorities_rejected(self):
        with pytest.raises(ConfigurationError):
            allocate_budget([-1.0], 10)

    def test_stratified_budget_fully_spent(self, square_profile):
        """The seed's leak: inner boxes must not silently eat budget shares."""
        profile = UsageProfile.uniform({"x": (-2, 2)})
        pc = parse_path_condition("x * x <= 1")
        for budget in (100, 999, 5000):
            result = stratified_sampling(pc, profile, budget, 9)
            sampleable = [r for r in result.strata if not r.inner and r.weight > 0]
            if sampleable:
                assert result.total_samples == budget
            inner = [r for r in result.strata if r.inner]
            assert all(r.samples == 0 for r in inner)

    def test_circle_budget_conserved_with_inner_boxes(self, square_profile):
        pc = parse_path_condition("x * x + y * y <= 1")
        result = stratified_sampling(
            pc, square_profile, 7531, 11, icp_config=ICPConfig(max_boxes=16)
        )
        assert any(r.inner for r in result.strata)
        assert result.total_samples == 7531

    def test_neyman_priorities_weighted_by_sigma(self, square_profile):
        pc = parse_path_condition("x * x + y * y <= 1")
        sampler = StratifiedSampler(pc, square_profile, 12)
        sampler.extend(2000, allocation="even")
        priorities = allocation_priorities(sampler.strata, "neyman")
        for stratum, priority in zip(sampler.strata, priorities):
            if stratum.sampleable:
                assert priority == pytest.approx(stratum.weight * stratum.sigma())
            else:
                assert priority == 0.0

    def test_all_miss_pilot_does_not_starve_a_stratum(self):
        from repro.core.stratified import Stratum, laplace_sigma_floor
        from repro.intervals.box import Box
        from repro.intervals.interval import Interval

        stratum = Stratum(Box({"x": Interval.make(0.0, 1.0)}), weight=0.5, inner=False)
        stratum.absorb(0, 100)  # pilot saw no hits: observed σ̂ is exactly 0
        assert stratum.sigma() == pytest.approx(laplace_sigma_floor(0, 100))
        assert stratum.sigma() > 0.0
        assert allocation_priorities([stratum], "neyman")[0] > 0.0
        # All-hit pilots are floored symmetrically.
        saturated = Stratum(Box({"x": Interval.make(0.0, 1.0)}), weight=0.5, inner=False)
        saturated.absorb(50, 50)
        assert saturated.sigma() == pytest.approx(laplace_sigma_floor(50, 50))

    def test_sigma_floor_decays_with_evidence(self):
        from repro.core.stratified import laplace_sigma_floor

        floors = [laplace_sigma_floor(0, n) for n in (10, 100, 1000, 10_000)]
        assert floors == sorted(floors, reverse=True)
        assert floors[-1] < 0.02

    def test_zero_variance_factor_keeps_priority(self, square_profile):
        # A factor whose pilot samples all missed must still receive budget
        # in later Neyman rounds (the Laplace floor in _factor_priorities);
        # a hard-zero priority would freeze it at its pilot share forever.
        config = QCoralConfig(
            samples_per_query=2000,
            stratified=False,
            partition_and_cache=True,
            seed=21,
            allocation="neyman",
            max_rounds=3,
        )
        analyzer = QCoralAnalyzer(square_profile, config)
        # P(x >= 0.99999) = 5e-6: the rare factor's pilot sees 0 hits.
        result = analyzer.analyze(parse_constraint_set("x >= 0.99999 || y <= 0"))
        rare = next(
            factor
            for report in result.path_reports
            for factor in report.factors
            if factor.variables == frozenset({"x"})
        )
        assert rare.estimate.mean == 0.0  # the pilot indeed saw no hits
        # Pilot share: 25% of the 4000-sample pool, split evenly => 500.
        assert rare.samples > 500


# --------------------------------------------------------------------------- #
# Adaptive configuration
# --------------------------------------------------------------------------- #
class TestAdaptiveConfig:
    def test_target_std_activates_rounds(self):
        config = QCoralConfig(target_std=1e-3)
        assert config.is_adaptive
        assert config.max_rounds == DEFAULT_ADAPTIVE_ROUNDS

    def test_neyman_activates_rounds(self):
        config = QCoralConfig(allocation="neyman")
        assert config.is_adaptive

    def test_adaptive_preset_label(self):
        assert QCoralConfig(allocation="neyman").feature_label() == "qCORAL{STRAT,PARTCACHE,ADAPT}"

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            QCoralConfig(target_std=0.0)
        with pytest.raises(ConfigurationError):
            QCoralConfig(max_rounds=0)
        with pytest.raises(ConfigurationError):
            QCoralConfig(initial_fraction=0.0)
        with pytest.raises(ConfigurationError):
            QCoralConfig(allocation="magic")


# --------------------------------------------------------------------------- #
# The adaptive loop
# --------------------------------------------------------------------------- #
class TestAdaptiveLoop:
    def test_stops_once_target_met(self, square_profile):
        cs = parse_constraint_set("x * x + y * y <= 1")
        config = QCoralConfig(samples_per_query=100_000, target_std=5e-3, seed=21, allocation="neyman")
        result = run_engine(cs, square_profile, config)
        assert result.met_target
        assert result.std <= 5e-3
        assert result.rounds < config.max_rounds
        assert result.total_samples < 100_000

    def test_never_exceeds_budget(self, square_profile):
        cs = parse_constraint_set("x * x + y * y <= 1 || x > 0.5 && sin(y) > 0.3")
        config = QCoralConfig(samples_per_query=5000, target_std=1e-12, seed=22, allocation="neyman")
        result = run_engine(cs, square_profile, config)
        sampled_factors = sum(1 for report in result.path_reports for factor in report.factors if factor.samples > 0)
        assert not result.met_target
        assert result.total_samples <= 5000 * sampled_factors
        assert result.rounds == config.max_rounds

    def test_round_reports_are_monotone(self, square_profile):
        cs = parse_constraint_set("x * x + y * y <= 1")
        config = QCoralConfig(samples_per_query=20_000, seed=23, allocation="neyman", max_rounds=5)
        result = run_engine(cs, square_profile, config)
        assert result.rounds == 5
        cumulative = [report.total_samples for report in result.round_reports]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == result.total_samples == 20_000
        assert result.round_reports[-1].std <= result.round_reports[0].std

    def test_adaptive_reproduces_fixed_budget_mean(self, square_profile):
        cs = parse_constraint_set("x * x + y * y <= 1")
        fixed = run_engine(cs, square_profile, QCoralConfig(samples_per_query=20_000, seed=24))
        adaptive = run_engine(cs, square_profile, QCoralConfig(samples_per_query=20_000, seed=24, allocation="neyman"))
        assert adaptive.total_samples == fixed.total_samples
        assert adaptive.mean == pytest.approx(fixed.mean, abs=0.02)
        assert adaptive.mean == pytest.approx(np.pi / 4, abs=0.02)

    def test_single_round_has_one_report(self, square_profile):
        cs = parse_constraint_set("x * x + y * y <= 1")
        result = run_engine(cs, square_profile, QCoralConfig(samples_per_query=2000, seed=25))
        assert result.rounds == 1
        assert result.round_reports[0].total_samples == result.total_samples

    def test_exact_queries_have_no_rounds(self, square_profile):
        cs = parse_constraint_set("x <= 2")
        result = run_engine(cs, square_profile, QCoralConfig(samples_per_query=1000, seed=26, allocation="neyman"))
        assert result.rounds == 0
        assert result.total_samples == 0
        assert result.mean == pytest.approx(1.0, abs=1e-9)

    def test_plain_mc_adaptive(self, square_profile):
        cs = parse_constraint_set("x * x + y * y <= 1")
        config = QCoralConfig(
            samples_per_query=10_000,
            stratified=False,
            partition_and_cache=False,
            seed=27,
            allocation="neyman",
        )
        result = run_engine(cs, square_profile, config)
        assert result.total_samples == 10_000
        assert result.mean == pytest.approx(np.pi / 4, abs=0.03)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=200, max_value=5000), st.integers(min_value=0, max_value=50))
    def test_budget_conservation_property(self, budget, seed):
        """Non-exact single-factor queries spend exactly their budget."""
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        cs = parse_constraint_set("x * x + y * y <= 1")
        result = run_engine(cs, profile, QCoralConfig(samples_per_query=budget, seed=seed, allocation="neyman"))
        assert result.total_samples == budget
