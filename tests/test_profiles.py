"""Unit tests for usage profiles and input distributions."""

import numpy as np
import pytest

from repro.core.profiles import (
    PiecewiseUniformDistribution,
    TruncatedNormalDistribution,
    UniformDistribution,
    UsageProfile,
)
from repro.errors import DomainError
from repro.intervals import Box, Interval


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestUniformDistribution:
    def test_support(self):
        dist = UniformDistribution(-1, 3)
        assert dist.support == Interval(-1.0, 3.0)

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            UniformDistribution(2, 1)
        with pytest.raises(DomainError):
            UniformDistribution(0, float("inf"))

    def test_measure_is_relative_width(self):
        dist = UniformDistribution(0, 4)
        assert dist.measure(Interval(1, 2)) == pytest.approx(0.25)
        assert dist.measure(Interval(-5, 5)) == pytest.approx(1.0)
        assert dist.measure(Interval(10, 11)) == 0.0

    def test_samples_respect_interval(self, rng):
        dist = UniformDistribution(0, 10)
        samples = dist.sample(rng, 500, Interval(2, 3))
        assert samples.min() >= 2.0 and samples.max() <= 3.0

    def test_samples_cover_support(self, rng):
        dist = UniformDistribution(0, 1)
        samples = dist.sample(rng, 2000)
        assert samples.mean() == pytest.approx(0.5, abs=0.05)

    def test_point_interval_sampling(self, rng):
        dist = UniformDistribution(0, 1)
        samples = dist.sample(rng, 10, Interval(0.5, 0.5))
        assert np.all(samples == 0.5)

    def test_sampling_outside_support_rejected(self, rng):
        with pytest.raises(DomainError):
            UniformDistribution(0, 1).sample(rng, 10, Interval(5, 6))


class TestTruncatedNormal:
    def test_measure_sums_to_one(self):
        dist = TruncatedNormalDistribution(mean=0.0, std=1.0, low=-2.0, high=2.0)
        assert dist.measure(dist.support) == pytest.approx(1.0)

    def test_measure_concentrates_near_mean(self):
        dist = TruncatedNormalDistribution(mean=0.0, std=1.0, low=-3.0, high=3.0)
        centre = dist.measure(Interval(-0.5, 0.5))
        tail = dist.measure(Interval(2.0, 3.0))
        assert centre > tail

    def test_samples_within_truncation(self, rng):
        dist = TruncatedNormalDistribution(mean=0.0, std=2.0, low=-1.0, high=1.0)
        samples = dist.sample(rng, 1000)
        assert samples.min() >= -1.0 and samples.max() <= 1.0

    def test_conditional_samples_within_interval(self, rng):
        dist = TruncatedNormalDistribution(mean=0.0, std=1.0, low=-3.0, high=3.0)
        samples = dist.sample(rng, 500, Interval(1.0, 2.0))
        assert samples.min() >= 1.0 and samples.max() <= 2.0

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            TruncatedNormalDistribution(0.0, -1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            TruncatedNormalDistribution(0.0, 1.0, 2.0, 1.0)


class TestPiecewiseUniform:
    def test_measure_respects_weights(self):
        dist = PiecewiseUniformDistribution(edges=(0.0, 1.0, 2.0), weights=(3.0, 1.0))
        assert dist.measure(Interval(0.0, 1.0)) == pytest.approx(0.75)
        assert dist.measure(Interval(1.0, 2.0)) == pytest.approx(0.25)

    def test_measure_of_partial_bin(self):
        dist = PiecewiseUniformDistribution(edges=(0.0, 1.0, 2.0), weights=(1.0, 1.0))
        assert dist.measure(Interval(0.0, 0.5)) == pytest.approx(0.25)

    def test_sampling_respects_weights(self, rng):
        dist = PiecewiseUniformDistribution(edges=(0.0, 1.0, 2.0), weights=(9.0, 1.0))
        samples = dist.sample(rng, 4000)
        fraction_low = float(np.mean(samples < 1.0))
        assert fraction_low == pytest.approx(0.9, abs=0.05)

    def test_invalid_construction(self):
        with pytest.raises(DomainError):
            PiecewiseUniformDistribution(edges=(0.0,), weights=())
        with pytest.raises(DomainError):
            PiecewiseUniformDistribution(edges=(0.0, 1.0), weights=(-1.0,))
        with pytest.raises(DomainError):
            PiecewiseUniformDistribution(edges=(1.0, 0.0), weights=(1.0,))


class TestUsageProfile:
    def test_uniform_constructor_and_domain(self):
        profile = UsageProfile.uniform({"x": (0, 1), "y": (-1, 1)})
        domain = profile.domain()
        assert domain.interval("x") == Interval(0.0, 1.0)
        assert domain.interval("y") == Interval(-1.0, 1.0)

    def test_empty_profile_rejected(self):
        with pytest.raises(DomainError):
            UsageProfile({})

    def test_weight_matches_relative_volume_for_uniform(self):
        profile = UsageProfile.uniform({"x": (0, 2), "y": (0, 2)})
        box = Box.from_bounds({"x": (0, 1), "y": (0, 1)})
        assert profile.mass(box) == pytest.approx(0.25)

    def test_weight_for_projected_box(self):
        profile = UsageProfile.uniform({"x": (0, 2), "y": (0, 2)})
        box = Box.from_bounds({"x": (0, 1)})
        assert profile.mass(box) == pytest.approx(0.5)

    def test_sample_returns_requested_variables(self, rng):
        profile = UsageProfile.uniform({"x": (0, 1), "y": (0, 1), "z": (0, 1)})
        batch = profile.sample(rng, 100, variables=["x", "z"])
        assert set(batch) == {"x", "z"}
        assert len(batch["x"]) == 100

    def test_sample_within_box(self, rng):
        profile = UsageProfile.uniform({"x": (0, 10), "y": (0, 10)})
        box = Box.from_bounds({"x": (1, 2), "y": (3, 4)})
        batch = profile.sample(rng, 200, box=box)
        assert batch["x"].min() >= 1.0 and batch["x"].max() <= 2.0
        assert batch["y"].min() >= 3.0 and batch["y"].max() <= 4.0

    def test_restrict(self):
        profile = UsageProfile.uniform({"x": (0, 1), "y": (0, 2)})
        restricted = profile.restrict(["y"])
        assert restricted.variables == ("y",)
        with pytest.raises(DomainError):
            profile.restrict(["unknown"])

    def test_check_covers(self):
        profile = UsageProfile.uniform({"x": (0, 1)})
        profile.check_covers({"x"})
        with pytest.raises(DomainError):
            profile.check_covers({"x", "y"})

    def test_mixed_distributions(self, rng):
        profile = UsageProfile({"u": UniformDistribution(0, 1), "n": TruncatedNormalDistribution(0.5, 0.2, 0.0, 1.0)})
        batch = profile.sample(rng, 300)
        assert set(batch) == {"u", "n"}
        assert profile.mass(Box.from_bounds({"u": (0, 0.5), "n": (0, 1)})) == pytest.approx(0.5, abs=1e-6)
