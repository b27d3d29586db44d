"""Unit tests for the discrete bounded distributions and discrete subjects."""

import math

import numpy as np
import pytest

from repro.core.profiles import (
    BinomialDistribution,
    CategoricalDistribution,
    TruncatedGeometricDistribution,
    TruncatedNormalDistribution,
    TruncatedPoissonDistribution,
    UniformDistribution,
    UsageProfile,
    parse_distribution_spec,
)
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.core.stratified import StratifiedSampler
from repro.errors import DomainError
from repro.intervals import Box, Interval
from repro.lang.parser import parse_constraint_set, parse_path_condition
from repro.subjects.discrete import (
    all_discrete_subjects,
    discrete_subject_by_name,
    exact_probability,
)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


ALL_DISCRETE = (
    BinomialDistribution(12, 0.3),
    TruncatedPoissonDistribution(4.0, 0, 25),
    TruncatedGeometricDistribution(0.35, 0, 30),
    CategoricalDistribution(2, (0.1, 0.5, 0.3, 0.1)),
    CategoricalDistribution.uniform_integers(-3, 5),
)


class TestDiscreteMeasure:
    @pytest.mark.parametrize("dist", ALL_DISCRETE, ids=lambda d: type(d).__name__)
    def test_support_measure_is_one(self, dist):
        assert dist.measure(dist.support) == pytest.approx(1.0)

    @pytest.mark.parametrize("dist", ALL_DISCRETE, ids=lambda d: type(d).__name__)
    def test_half_integer_partition_sums_to_one(self, dist):
        low, high = dist.support.lo, dist.support.hi
        cuts = [low - 0.5] + [k + 0.5 for k in range(int(low), int(high))] + [high + 0.5]
        total = sum(dist.measure(Interval.make(a, b)) for a, b in zip(cuts, cuts[1:]))
        assert total == pytest.approx(1.0)

    def test_atom_masses_match_binomial_pmf(self):
        dist = BinomialDistribution(10, 0.25)
        for k in range(11):
            expected = math.comb(10, k) * 0.25**k * 0.75 ** (10 - k)
            assert dist.measure(Interval.point(float(k))) == pytest.approx(expected)

    def test_no_atoms_means_no_mass(self):
        dist = CategoricalDistribution.uniform_integers(0, 10)
        assert dist.measure(Interval.make(3.2, 3.8)) == 0.0
        assert dist.measure(Interval.make(11.5, 20.0)) == 0.0

    def test_integer_endpoints_count_inclusively(self):
        dist = CategoricalDistribution.uniform_integers(0, 9)
        assert dist.measure(Interval.make(2.0, 4.0)) == pytest.approx(0.3)

    def test_log_mass_matches_mass(self):
        dist = BinomialDistribution(20, 0.5)
        interval = Interval.make(8.5, 11.5)
        assert dist.log_mass(interval) == pytest.approx(math.log(dist.mass(interval)))
        assert dist.log_mass(Interval.make(0.1, 0.9)) == -math.inf


class TestDiscreteSampling:
    @pytest.mark.parametrize("dist", ALL_DISCRETE, ids=lambda d: type(d).__name__)
    def test_samples_are_integer_valued_atoms(self, dist, rng):
        samples = dist.sample(rng, 500)
        assert np.all(samples == np.floor(samples))
        assert samples.min() >= dist.support.lo
        assert samples.max() <= dist.support.hi

    def test_conditioned_samples_stay_inside(self, rng):
        dist = BinomialDistribution(20, 0.5)
        samples = dist.sample(rng, 500, Interval.make(7.5, 12.5))
        assert set(np.unique(samples)) <= {8.0, 9.0, 10.0, 11.0, 12.0}

    def test_single_atom_interval(self, rng):
        dist = TruncatedPoissonDistribution(3.0, 0, 20)
        samples = dist.sample(rng, 50, Interval.make(4.5, 5.5))
        assert np.all(samples == 5.0)

    def test_atom_free_interval_rejected(self, rng):
        with pytest.raises(DomainError):
            BinomialDistribution(10, 0.5).sample(rng, 10, Interval.make(3.2, 3.8))

    def test_empirical_frequencies_match_pmf(self, rng):
        dist = CategoricalDistribution(0, (0.2, 0.5, 0.3))
        samples = dist.sample(rng, 20_000)
        for value, weight in enumerate((0.2, 0.5, 0.3)):
            assert np.mean(samples == value) == pytest.approx(weight, abs=0.02)

    def test_sampling_is_seed_deterministic(self):
        dist = TruncatedGeometricDistribution(0.4, 0, 25)
        first = dist.sample(np.random.default_rng(9), 100)
        second = dist.sample(np.random.default_rng(9), 100)
        assert np.array_equal(first, second)


class TestSplitPoints:
    @pytest.mark.parametrize("dist", ALL_DISCRETE, ids=lambda d: type(d).__name__)
    def test_discrete_split_points_are_half_integers(self, dist):
        at = dist.split_point()
        assert at is not None
        assert at - math.floor(at) == pytest.approx(0.5)
        assert dist.support.lo < at < dist.support.hi
        # The two halves partition the mass exactly (no shared atom).
        left = dist.measure(Interval.make(dist.support.lo, at))
        right = dist.measure(Interval.make(at, dist.support.hi))
        assert left + right == pytest.approx(1.0)
        # The mass-median split is reasonably balanced.
        assert 0.0 < left < 1.0

    def test_single_atom_is_unsplittable(self):
        dist = BinomialDistribution(10, 0.5)
        assert dist.split_point(Interval.make(4.5, 5.5)) is None

    def test_truncnormal_split_is_conditional_median(self):
        dist = TruncatedNormalDistribution(0.0, 1.0, -2.0, 2.0)
        at = dist.split_point()
        assert at == pytest.approx(0.0, abs=1e-9)
        window = Interval.make(0.0, 2.0)
        median = dist.split_point(window)
        left = dist.measure(Interval.make(0.0, median))
        assert left == pytest.approx(dist.measure(window) / 2.0, rel=1e-6)

    def test_uniform_split_is_midpoint(self):
        dist = UniformDistribution(0.0, 4.0)
        assert dist.split_point(Interval.make(1.0, 3.0)) == pytest.approx(2.0)
        assert dist.split_point(Interval.make(2.0, 2.0)) is None


class TestDistributionSpecs:
    def test_bare_uniform(self):
        dist = parse_distribution_spec("-1:1")
        assert dist == UniformDistribution(-1.0, 1.0)

    def test_integer_range(self):
        dist = parse_distribution_spec("int:0:20")
        assert dist == CategoricalDistribution.uniform_integers(0, 20)

    def test_discrete_families(self):
        assert parse_distribution_spec("binomial:20:0.3") == BinomialDistribution(20, 0.3)
        assert parse_distribution_spec("poisson:4:0:30") == TruncatedPoissonDistribution(4.0, 0, 30)
        assert parse_distribution_spec("geometric:0.5:0:10") == TruncatedGeometricDistribution(0.5, 0, 10)
        assert parse_distribution_spec("categorical:1:0.2,0.8") == CategoricalDistribution(1, (0.2, 0.8))
        assert parse_distribution_spec("normal:0:1:-2:2") == TruncatedNormalDistribution(0.0, 1.0, -2.0, 2.0)

    @pytest.mark.parametrize("spec", ["", "x", "int:0", "binomial:0.5:20", "poisson:4:0", "nope:1:2", "1:2:3:4"])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(DomainError):
            parse_distribution_spec(spec)

    def test_profile_from_specs(self):
        profile = UsageProfile.from_specs({"x": "int:0:5", "y": "-1:1"})
        assert profile.discrete_variables() == ("x",)
        assert profile.distribution("y") == UniformDistribution(-1.0, 1.0)


class TestProfileMass:
    def test_mass_is_product_of_per_variable_masses(self):
        profile = UsageProfile({"x": BinomialDistribution(10, 0.5), "y": UniformDistribution(0.0, 2.0)})
        box = Box.from_bounds({"x": (2.5, 7.5), "y": (0.0, 1.0)})
        expected = profile.distribution("x").mass(Interval.make(2.5, 7.5)) * 0.5
        assert profile.mass(box) == pytest.approx(expected)
        assert profile.weight(box) == profile.mass(box)
        assert profile.log_mass(box) == pytest.approx(math.log(expected))

    def test_mass_free_box_short_circuits(self):
        profile = UsageProfile({"x": BinomialDistribution(10, 0.5), "y": UniformDistribution(0.0, 2.0)})
        box = Box.from_bounds({"x": (3.2, 3.8), "y": (0.0, 1.0)})
        assert profile.mass(box) == 0.0
        assert profile.log_mass(box) == -math.inf


class TestDiscretePaving:
    def test_strata_masses_partition_without_atom_sharing(self):
        """Integer-aware splits never place an atom in two sibling strata."""
        profile = UsageProfile(
            {
                "x": CategoricalDistribution.uniform_integers(0, 20),
                "y": CategoricalDistribution.uniform_integers(0, 20),
            }
        )
        pc = parse_path_condition("x + y <= 20")
        sampler = StratifiedSampler(pc, profile, 0)
        covered = sum(stratum.weight for stratum in sampler.strata)
        exact = exact_probability(pc, profile)
        # The union of strata must cover all solutions at least once and, with
        # half-integer splits, at most once: the covered mass lies between the
        # true probability and 1, and never exceeds 1.
        assert exact <= covered <= 1.0 + 1e-12

    @pytest.mark.parametrize("method", ["hit-or-miss", "importance"])
    def test_strict_inequality_boundary_atom_not_overcounted(self, method):
        """An atom exactly on a strict boundary must not count as satisfied.

        ICP pads box bounds outward and inner certification tolerates the
        padded boundary — sound for continuous profiles where the boundary
        has measure zero, wrong for an atom with positive mass.  With
        discrete variables the solver must therefore certify strictly:
        ``x < 2`` over the uniform integers 0..20 is 2/21, never 3/21.
        """
        profile = UsageProfile({"x": CategoricalDistribution.uniform_integers(0, 20)})
        config = QCoralConfig(samples_per_query=20_000, seed=3, method=method, max_rounds=1)
        result = QCoralAnalyzer(profile, config).analyze(parse_constraint_set("x < 2"))
        assert result.mean == pytest.approx(2.0 / 21.0, abs=5e-3)
        result = QCoralAnalyzer(profile, config).analyze(parse_constraint_set("x > 18"))
        assert result.mean == pytest.approx(2.0 / 21.0, abs=5e-3)
        # The non-strict counterpart keeps its exact ICP resolution.
        result = QCoralAnalyzer(profile, config).analyze(parse_constraint_set("x <= 2"))
        assert result.mean == pytest.approx(3.0 / 21.0, abs=1e-9)

    def test_discrete_estimate_is_unbiased(self):
        subject = discrete_subject_by_name("SensorGrid")
        exact = subject.exact_probability()
        config = QCoralConfig(samples_per_query=40_000, seed=3)
        result = QCoralAnalyzer(subject.profile, config).analyze(subject.constraint_set())
        assert result.mean == pytest.approx(exact, abs=5 * max(result.std, 1e-4))


class TestDiscreteSubjects:
    def test_all_subjects_have_distinct_names_and_parse(self):
        subjects = all_discrete_subjects()
        names = [subject.name for subject in subjects]
        assert len(set(names)) == len(subjects) >= 5
        for subject in subjects:
            assert subject.constraint.free_variables() <= set(subject.profile.variables)

    def test_discrete_subjects_enumerate_exactly(self):
        for subject in all_discrete_subjects():
            exact = subject.exact_probability()
            if subject.group == "discrete":
                assert exact is not None and 0.0 < exact < 1.0
            else:
                assert exact is None

    def test_unknown_subject_rejected(self):
        with pytest.raises(KeyError):
            discrete_subject_by_name("NoSuchSubject")
