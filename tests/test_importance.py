"""Tests of the distribution-aware importance-sampling estimation layer."""

import os
import tempfile

import pytest

from repro.api import Session
from repro.cli import main
from repro.core.importance import ImportanceSampler, importance_sampling
from repro.core.methods import ESTIMATION_METHODS
from repro.core.profiles import (
    BinomialDistribution,
    CategoricalDistribution,
    TruncatedNormalDistribution,
    UsageProfile,
)
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.core.stratified import stratified_sampling
from repro.errors import ConfigurationError
from repro.icp.config import ICPConfig
from repro.lang.parser import parse_path_condition
from repro.store import open_store
from repro.subjects.discrete import all_discrete_subjects, discrete_subject_by_name


def peaked_profile():
    return UsageProfile({"x": BinomialDistribution(20, 0.5), "y": TruncatedNormalDistribution(0.0, 0.4, -1.0, 1.0)})


PEAKED_PC = "sin(x * 0.55) + y * y <= 0.3"


class TestImportanceSampler:
    def test_refinement_respects_box_cap(self):
        pc = parse_path_condition(PEAKED_PC)
        for cap in (10, 32, 64):
            sampler = ImportanceSampler(pc, peaked_profile(), 0, max_boxes=cap)
            assert len(sampler.strata) <= cap

    def test_refined_strata_masses_stay_a_partition(self):
        pc = parse_path_condition(PEAKED_PC)
        sampler = ImportanceSampler(pc, peaked_profile(), 0)
        covered = sum(stratum.weight for stratum in sampler.strata)
        assert 0.0 < covered <= 1.0 + 1e-9

    def test_self_normalised_estimate_matches_stratified_combination(self):
        """With exact masses the SN estimator equals Σ w_i p̂_i (module doc)."""
        pc = parse_path_condition(PEAKED_PC)
        sampler = ImportanceSampler(pc, peaked_profile(), 1)
        sampler.extend(5_000, allocation="neyman")
        expected = super(ImportanceSampler, sampler).estimate()
        actual = sampler.estimate()
        assert actual.mean == pytest.approx(expected.mean, rel=1e-12)
        assert actual.variance == pytest.approx(expected.variance, rel=1e-12)

    def test_lower_sigma_than_hit_or_miss_at_equal_budget(self):
        pc = parse_path_condition(PEAKED_PC)
        base = stratified_sampling(pc, peaked_profile(), 20_000, 7)
        imp = importance_sampling(pc, peaked_profile(), 20_000, 7)
        assert imp.total_samples == base.total_samples == 20_000
        assert imp.estimate.std < base.estimate.std
        assert imp.estimate.mean == pytest.approx(base.estimate.mean, abs=0.02)

    def test_mass_allocation_policy_follows_masses(self):
        pc = parse_path_condition(PEAKED_PC)
        sampler = ImportanceSampler(pc, peaked_profile(), 2)
        sampler.extend(10_000, allocation="mass")
        sampled = [s for s in sampler.strata if s.sampleable and s.samples > 0]
        heavy = max(sampled, key=lambda s: s.weight)
        light = min(sampled, key=lambda s: s.weight)
        if heavy.weight > 10 * light.weight:
            assert heavy.samples > light.samples

    def test_invalid_knobs_rejected(self):
        pc = parse_path_condition(PEAKED_PC)
        with pytest.raises(ConfigurationError):
            ImportanceSampler(pc, peaked_profile(), 0, max_boxes=0)
        with pytest.raises(ConfigurationError):
            ImportanceSampler(pc, peaked_profile(), 0, adaptive_splits=-1)

    def test_adaptive_splits_account_for_discarded_budget(self):
        pc = parse_path_condition(PEAKED_PC)
        sampler = ImportanceSampler(pc, peaked_profile(), 3, max_boxes=16, adaptive_splits=3)
        used = 0
        for _ in range(4):
            used += sampler.extend(2_000, allocation="neyman")
        # Every drawn sample is accounted for: live strata plus write-offs.
        assert sampler.total_samples == used
        assert sampler.discarded_samples > 0
        assert sum(s.samples for s in sampler.strata) == used - sampler.discarded_samples

    def test_adaptive_split_resolving_last_stratum_freezes_exact(self):
        """When splits prove every stratum inner, sampling stops for good.

        ``sin(x) - sin(x) >= -0.6`` holds everywhere, but the interval
        evaluator cannot certify it over a wide box (the classic dependency
        problem: both ``sin(x)`` occurrences range over [-1, 1] independently,
        so the difference encloses [-2, 2]); narrow single-atom boxes do
        certify.  Adaptive splits must therefore eventually prove the whole
        domain inner, freeze the exact estimate, and refuse further budget —
        instead of dumping it into inner boxes via the all-zero-priority
        allocation fallback.
        """
        profile = UsageProfile({"x": CategoricalDistribution.uniform_integers(0, 3)})
        pc = parse_path_condition("sin(x) - sin(x) >= 0.0 - 0.6")
        sampler = ImportanceSampler(
            pc,
            profile,
            1,
            # A one-box ICP paving and no upfront refinement leave a single
            # uncertifiable stratum, so only adaptive splits can resolve it.
            icp_config=ICPConfig(max_boxes=1),
            max_boxes=1,
            adaptive_splits=5,
        )
        assert not sampler.is_exact
        used = []
        for _ in range(6):
            used.append(sampler.extend(100, allocation="neyman"))
        assert sampler.is_exact
        assert used[-1] == 0
        assert sampler.estimate().mean == pytest.approx(1.0)
        assert sampler.estimate().variance == 0.0
        # Every drawn sample is still accounted for after the write-offs.
        assert sampler.total_samples == sum(used)
        assert sampler.discarded_samples > 0

    def test_fingerprint_carries_refinement_prefix(self):
        pc = parse_path_condition(PEAKED_PC)
        sampler = ImportanceSampler(pc, peaked_profile(), 0)
        fingerprint = sampler.paving_fingerprint(("x", "y"))
        assert fingerprint.startswith("imp64|")


class TestImportanceConfig:
    def test_method_validation(self):
        with pytest.raises(ConfigurationError):
            QCoralConfig(method="nope")
        with pytest.raises(ConfigurationError):
            QCoralConfig(method="importance", stratified=False)
        with pytest.raises(ConfigurationError):
            QCoralConfig(mass_split_boxes=0)
        with pytest.raises(ConfigurationError):
            QCoralConfig(mass_split_adaptive=-1)
        assert "hit-or-miss" in ESTIMATION_METHODS and "importance" in ESTIMATION_METHODS

    def test_importance_upgrades_allocation_and_rounds(self):
        config = QCoralConfig(method="importance")
        assert config.allocation == "neyman"
        assert config.is_adaptive

    def test_mass_allocation_is_preserved(self):
        config = QCoralConfig(method="importance", allocation="mass")
        assert config.allocation == "mass"

    def test_preset_and_label(self):
        config = QCoralConfig(samples_per_query=5_000, seed=1, mass_split_boxes=32, method="importance")
        assert config.method == "importance"
        assert config.mass_split_boxes == 32
        assert config.feature_label() == "qCORAL{STRAT,PARTCACHE,ADAPT,IMP}"


class TestImportanceAnalyzer:
    def test_equal_budget_lower_sigma_on_peaked_subjects(self):
        improved = 0
        for name in ("LoadSpike", "BurstySensor"):
            subject = discrete_subject_by_name(name)
            base = QCoralAnalyzer(
                subject.profile, QCoralConfig(samples_per_query=15_000, seed=11)
            ).analyze(subject.constraint_set())
            imp = QCoralAnalyzer(
                subject.profile, QCoralConfig(samples_per_query=15_000, seed=11, method="importance")
            ).analyze(subject.constraint_set())
            assert imp.total_samples == base.total_samples
            if imp.std < base.std:
                improved += 1
        assert improved == 2

    def test_discrete_subjects_are_resolved_to_ground_truth(self):
        """Per-atom refinement makes all-discrete subjects effectively exact."""
        for subject in all_discrete_subjects():
            if subject.group != "discrete":
                continue
            config = QCoralConfig(samples_per_query=5_000, seed=2, mass_split_boxes=256, method="importance")
            result = QCoralAnalyzer(subject.profile, config).analyze(subject.constraint_set())
            assert result.mean == pytest.approx(subject.exact_probability(), abs=1e-9)

    def test_bit_identical_across_executors(self):
        subject = discrete_subject_by_name("BurstySensor")
        outcomes = set()
        config = QCoralConfig(samples_per_query=8_000, seed=5, mass_split_adaptive=2, method="importance")
        for workers in (1, 2, 3):
            with Session(workers=workers) as session:
                result = session.quantify(subject.constraint_set(), subject.profile, config=config).run()
            outcomes.add((result.mean, result.variance, result.total_samples))
        assert len(outcomes) == 1

    def test_serial_path_matches_itself_across_runs(self):
        subject = discrete_subject_by_name("LoadSpike")
        config = QCoralConfig(samples_per_query=6_000, seed=9, method="importance")
        first = QCoralAnalyzer(subject.profile, config).analyze(subject.constraint_set())
        second = QCoralAnalyzer(subject.profile, config).analyze(subject.constraint_set())
        assert first.mean == second.mean and first.variance == second.variance


class TestImportanceStore:
    def _store_path(self):
        handle, path = tempfile.mkstemp(suffix=".db")
        os.close(handle)
        os.remove(path)
        return path

    def _run(self, subject, config, path):
        """One analysis on a fresh handle of the store at ``path``."""
        with open_store(path) as store:
            return QCoralAnalyzer(subject.profile, config, store=store).analyze(subject.constraint_set())

    def test_method_tags_never_pool_across_methods(self):
        subject = discrete_subject_by_name("BurstySensor")
        path = self._store_path()
        try:
            self._run(subject, QCoralConfig(samples_per_query=5_000, seed=5, method="importance"), path)
            result = self._run(subject, QCoralConfig(samples_per_query=5_000, seed=5), path)
            # The hit-or-miss run sees a store with only importance entries:
            # every lookup must miss and its own counts publish separately.
            assert result.cache_statistics.store_hits == 0
            assert result.cache_statistics.store_publishes > 0
        finally:
            os.remove(path)

    def test_warm_importance_rerun_reuses_outright(self):
        subject = discrete_subject_by_name("BurstySensor")
        path = self._store_path()
        try:
            config = QCoralConfig(samples_per_query=5_000, seed=5, method="importance")
            cold = self._run(subject, config, path)
            warm = self._run(subject, config, path)
            assert warm.total_samples == 0
            assert warm.cache_statistics.store_hits > 0
            assert warm.mean == cold.mean
        finally:
            os.remove(path)

    def test_stratified_entries_reject_invalid_stratum_counts(self):
        """Per-stratum counts must be valid Bernoulli pools — the store's last
        line of defence against a corrupted delta."""
        from repro.store.entry import StoreEntry, StoreError

        with pytest.raises(StoreError):
            StoreEntry.from_strata(((5, 3),), paving="imp64|Bx")
        with pytest.raises(StoreError):
            StoreEntry.from_strata(((-1, 3),), paving="imp64|Bx")
        entry = StoreEntry.from_strata(((2, 3), (0, 4)), paving="imp64|Bx")
        assert entry.samples == 7

    def test_adaptive_split_warm_run_skips_publish(self):
        """A warm run whose paving drifted via adaptive splits publishes nothing."""
        subject = discrete_subject_by_name("BurstySensor")
        path = self._store_path()
        try:
            self._run(subject, QCoralConfig(samples_per_query=4_000, seed=5, method="importance"), path)
            warm_config = QCoralConfig(samples_per_query=8_000, seed=6, mass_split_adaptive=4, method="importance")
            warm = self._run(subject, warm_config, path)
            stats = warm.cache_statistics
            if stats.warm_starts > 0 and warm.total_samples > 0:
                # Either the paving survived (publish merges) or it drifted
                # (publish skipped); both keep the store consistent.
                assert stats.store_publishes in (0, stats.warm_starts)
        finally:
            os.remove(path)


class TestImportanceCli:
    def test_quantify_with_discrete_domain_and_method(self, capsys):
        code = main(
            [
                "quantify",
                PEAKED_PC,
                "--domain",
                "x=binomial:20:0.5",
                "--domain",
                "y=normal:0:0.4:-1:1",
                "--samples",
                "5000",
                "--seed",
                "3",
                "--method",
                "importance",
                "--mass-split-boxes",
                "32",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "qCORAL{STRAT,PARTCACHE,ADAPT,IMP}" in captured.out

    def test_quantify_rejects_bad_domain_spec(self, capsys):
        code = main(["quantify", "x <= 1", "--domain", "x=binomial:oops", "--samples", "100"])
        assert code == 1
        assert "invalid distribution spec" in capsys.readouterr().err

    def test_analyze_rejects_unknown_override_variable(self, tmp_path, capsys):
        program = tmp_path / "prog.prob"
        program.write_text("input x in [0, 20];\nif (x >= 5) { observe(high); } else { skip; }\n")
        code = main(["analyze", str(program), "high", "--domain", "y=int:0:5", "--samples", "100"])
        assert code == 1
        assert "unknown program inputs" in capsys.readouterr().err

    def test_analyze_rejects_override_wider_than_declared_bounds(self, tmp_path, capsys):
        """Symbolic execution prunes against declared bounds, so a wider
        override would silently drop the mass of paths outside them."""
        program = tmp_path / "prog.prob"
        program.write_text("input x in [0, 10];\nif (x >= 5) { observe(high); } else { skip; }\n")
        code = main(["analyze", str(program), "high", "--domain", "x=int:0:20", "--samples", "100"])
        assert code == 1
        assert "outside the declared bounds" in capsys.readouterr().err

    def test_analyze_accepts_domain_override(self, tmp_path, capsys):
        source = ("input x in [0, 20];\n" "if (x * x >= 50) { observe(high); } else { skip; }\n")
        program = tmp_path / "prog.prob"
        program.write_text(source)
        code = main(
            [
                "analyze",
                str(program),
                "high",
                "--domain",
                "x=binomial:20:0.3",
                "--samples",
                "4000",
                "--seed",
                "1",
                "--method",
                "importance",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "probability:" in captured.out
