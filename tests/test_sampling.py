"""Unit tests for hit-or-miss Monte Carlo and ICP-stratified sampling."""

import numpy as np
import pytest

from repro.core.montecarlo import hit_or_miss, hit_or_miss_constraint_set
from repro.core.profiles import UsageProfile
from repro.core.stratified import stratified_sampling
from repro.errors import AnalysisError
from repro.icp.config import ICPConfig
from repro.intervals import Box
from repro.lang.ast import PathCondition
from repro.lang.parser import parse_constraint_set, parse_path_condition


@pytest.fixture
def rng():
    return np.random.default_rng(2014)


@pytest.fixture
def square_profile():
    return UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})


class TestHitOrMiss:
    def test_triangle_probability(self, rng, square_profile):
        pc = parse_path_condition("x <= 0 - y && y <= x")
        result = hit_or_miss(pc, square_profile, 20_000, rng)
        assert result.estimate.mean == pytest.approx(0.25, abs=0.02)
        assert result.estimate.variance == pytest.approx(result.estimate.mean * (1 - result.estimate.mean) / 20_000)

    def test_impossible_constraint(self, rng, square_profile):
        result = hit_or_miss(parse_path_condition("x > 5"), square_profile, 1000, rng)
        assert result.estimate.mean == 0.0
        assert result.hits == 0

    def test_certain_constraint(self, rng, square_profile):
        result = hit_or_miss(parse_path_condition("x <= 5"), square_profile, 1000, rng)
        assert result.estimate.mean == 1.0

    def test_sampling_within_box(self, rng, square_profile):
        pc = parse_path_condition("x >= 0")
        box = Box.from_bounds({"x": (0.5, 1.0), "y": (-1, 1)})
        result = hit_or_miss(pc, square_profile, 500, rng, box=box)
        assert result.estimate.mean == 1.0

    def test_restricted_variables(self, rng, square_profile):
        pc = parse_path_condition("x >= 0")
        result = hit_or_miss(pc, square_profile, 2000, rng, variables=("x",))
        assert result.estimate.mean == pytest.approx(0.5, abs=0.05)

    def test_zero_samples_rejected(self, rng, square_profile):
        with pytest.raises(AnalysisError):
            hit_or_miss(parse_path_condition("x >= 0"), square_profile, 0, rng)

    def test_variable_free_condition(self, rng, square_profile):
        result = hit_or_miss(parse_path_condition("1 <= 2"), square_profile, 100, rng)
        assert result.estimate.mean == 1.0 and result.estimate.variance == 0.0

    def test_batched_sampling_counts_all_samples(self, rng, square_profile):
        pc = parse_path_condition("x >= 0")
        result = hit_or_miss(pc, square_profile, 1500, rng, batch_size=400)
        assert result.samples == 1500

    def test_constraint_set_disjunction(self, rng, square_profile):
        cs = parse_constraint_set("x > 0.5 || x < 0 - 0.5")
        result = hit_or_miss_constraint_set(cs, square_profile, 20_000, rng)
        assert result.estimate.mean == pytest.approx(0.5, abs=0.02)


class TestStratifiedSampling:
    def test_triangle_estimate_and_variance_reduction(self, square_profile):
        pc = parse_path_condition("x <= 0 - y && y <= x")
        plain = hit_or_miss(pc, square_profile, 10_000, np.random.default_rng(5))
        stratified = stratified_sampling(
            pc, square_profile, 10_000, 5, icp_config=ICPConfig(max_boxes=16)
        )
        assert stratified.estimate.mean == pytest.approx(0.25, abs=0.02)
        # Equal per-stratum allocation (the paper's choice) is not guaranteed to
        # beat plain sampling on every geometry, but it must stay comparable.
        assert stratified.estimate.variance <= plain.estimate.variance * 3.0

    def test_exact_box_gives_zero_variance(self):
        profile = UsageProfile.uniform({"x": (-2, 2)})
        pc = parse_path_condition("x >= 0 && x <= 1")
        result = stratified_sampling(pc, profile, 1000, 2014)
        assert result.estimate.mean == pytest.approx(0.25, abs=1e-9)
        assert result.estimate.variance == 0.0

    def test_unsatisfiable_constraint(self, square_profile):
        result = stratified_sampling(parse_path_condition("x > 10"), square_profile, 1000, 2014)
        assert result.estimate.mean == 0.0
        assert result.box_count == 0

    def test_circle_probability(self, square_profile):
        pc = parse_path_condition("x * x + y * y <= 1")
        result = stratified_sampling(pc, square_profile, 20_000, 2014)
        assert result.estimate.mean == pytest.approx(np.pi / 4, abs=0.02)

    def test_strata_weights_do_not_exceed_one(self, square_profile):
        pc = parse_path_condition("x * x + y * y <= 1")
        result = stratified_sampling(pc, square_profile, 5000, 2014)
        assert sum(report.weight for report in result.strata) <= 1.0 + 1e-9

    def test_inner_strata_need_no_samples(self):
        profile = UsageProfile.uniform({"x": (0, 1)})
        pc = parse_path_condition("x >= 0.25 && x <= 0.75")
        result = stratified_sampling(pc, profile, 1000, 2014)
        inner_reports = [report for report in result.strata if report.inner]
        assert inner_reports and all(report.samples == 0 for report in inner_reports)

    def test_variable_free_condition(self, square_profile):
        result = stratified_sampling(PathCondition.of([]), square_profile, 100, 2014, variables=())
        assert result.estimate.mean == 1.0

    def test_zero_budget_rejected(self, square_profile):
        with pytest.raises(AnalysisError):
            stratified_sampling(parse_path_condition("x >= 0"), square_profile, 0, 2014)

    def test_paper_figure2_example(self):
        """The Section 3.3 example: ICP-stratified sampling on the triangle.

        The paper reports that the stratified estimator stays close to the
        exact probability 0.25 even with a modest sample budget; we check that
        the estimate lands within a few standard deviations of the truth.
        """
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        pc = parse_path_condition("x <= 0 - y && y <= x")
        result = stratified_sampling(pc, profile, 10_000, 7, icp_config=ICPConfig(max_boxes=4))
        assert result.estimate.mean == pytest.approx(0.25, abs=0.03)
