"""Tests for the benchmark subjects (Tables 2, 3 and 4 of the paper)."""

import pytest

from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.lang.analysis import constraint_set_statistics
from repro.subjects import aerospace, volcomp_suite
from repro.subjects.solids import all_solids, estimate_volume, solid_by_name


class TestSolids:
    def test_thirteen_subjects_in_three_groups(self):
        subjects = all_solids()
        assert len(subjects) == 13
        assert {s.group for s in subjects} == {
            "Convex Polyhedra",
            "Solids of Revolution",
            "Intersection",
        }

    def test_lookup_by_name(self):
        assert solid_by_name("cube").name == "Cube"
        with pytest.raises(KeyError):
            solid_by_name("dodecahedron")

    def test_bounding_boxes_contain_solids(self):
        """Volume never exceeds the bounding box volume."""
        for solid in all_solids():
            assert solid.analytical_volume <= solid.bounding_volume() + 1e-9

    def test_paper_matching_analytical_values(self):
        import math

        assert solid_by_name("Cube").analytical_volume == pytest.approx(8.0)
        assert solid_by_name("Sphere").analytical_volume == pytest.approx(4.0 / 3.0 * math.pi)
        assert solid_by_name("Cylinder").analytical_volume == pytest.approx(math.pi)
        assert solid_by_name("Cone").analytical_volume == pytest.approx(1.047198, abs=1e-5)
        assert solid_by_name("Conical frustrum").analytical_volume == pytest.approx(1.8326, abs=1e-3)
        assert solid_by_name("Torus").analytical_volume == pytest.approx(1.233701, abs=1e-5)
        assert solid_by_name("Oblate spheroid").analytical_volume == pytest.approx(16.755161, abs=1e-4)
        assert solid_by_name("Icosahedron").analytical_volume == pytest.approx(2.181695, abs=1e-5)

    def test_cube_estimate_is_exact(self):
        estimate = estimate_volume(solid_by_name("Cube"), samples=500, seed=1)
        assert estimate.volume == pytest.approx(8.0, abs=1e-9)
        assert estimate.std == 0.0

    @pytest.mark.parametrize("name", ["Sphere", "Cone", "Torus", "Tetrahedron"])
    def test_estimates_close_to_analytical(self, name):
        solid = solid_by_name(name)
        estimate = estimate_volume(solid, samples=4000, seed=3)
        assert estimate.relative_error < 0.1

    def test_estimate_scales_with_bounding_volume(self):
        solid = solid_by_name("Sphere")
        estimate = estimate_volume(solid, samples=2000, seed=5)
        assert 0.0 < estimate.volume < solid.bounding_volume()


class TestVolCompSuite:
    def test_eight_subjects_twenty_rows(self):
        subjects = volcomp_suite.all_subjects()
        assert len(subjects) == 8
        assert len(volcomp_suite.all_assertion_cases()) == 20

    def test_subject_lookup(self):
        subject = volcomp_suite.subject_by_name("pack")
        assert subject.name == "PACK"
        with pytest.raises(KeyError):
            volcomp_suite.subject_by_name("missing")

    def test_assertion_lookup(self):
        subject = volcomp_suite.subject_by_name("CART")
        assert subject.assertion("count >= 3").condition == "count >= 3"
        with pytest.raises(KeyError):
            subject.assertion("count >= 99")

    def test_profiles_cover_constraint_variables(self):
        for subject, assertion in volcomp_suite.all_assertion_cases():
            constraint_set = subject.constraint_set(assertion)
            subject.profile().check_covers(constraint_set.free_variables())

    def test_constraints_are_linear_style_programs(self):
        """Every Table 3 subject symbolically executes into at least one PC set."""
        subject = volcomp_suite.subject_by_name("CORONARY")
        cs = subject.constraint_set(subject.assertion("tmp >= 5"))
        stats = constraint_set_statistics(cs)
        assert stats.path_count >= 1
        assert stats.conjunct_count >= stats.path_count

    def test_pack_counts_are_monotone(self):
        """P(count >= 5) >= P(count >= 6) >= P(count >= 7)."""
        subject = volcomp_suite.subject_by_name("PACK")
        probabilities = []
        for label in ("count >= 5", "count >= 6", "count >= 7"):
            cs = subject.constraint_set(subject.assertion(label))
            analyzer = QCoralAnalyzer(subject.profile(), QCoralConfig(samples_per_query=2000, seed=4))
            probabilities.append(analyzer.analyze(cs).estimate.clamped().mean)
        assert probabilities[0] >= probabilities[1] - 0.05
        assert probabilities[1] >= probabilities[2] - 0.05

    def test_invpend_single_path(self):
        subject = volcomp_suite.subject_by_name("INVPEND")
        cs = subject.constraint_set(subject.assertions[0])
        assert len(cs) == 1


class TestAerospace:
    def test_three_subjects(self):
        subjects = aerospace.all_subjects()
        assert [subject.name for subject in subjects] == ["Apollo", "Conflict", "Turn Logic"]

    def test_subject_lookup(self):
        assert aerospace.subject_by_name("apollo").name == "Apollo"
        with pytest.raises(KeyError):
            aerospace.subject_by_name("voyager")

    def test_selected_fraction_of_paths(self):
        subject = aerospace.apollo(depth=6, fraction=0.7)
        assert subject.total_paths == 64
        assert subject.selected_paths == pytest.approx(45, abs=1)

    def test_paths_are_pairwise_disjoint(self):
        """No sampled input satisfies two different generated path conditions."""
        import numpy as np

        from repro.lang.evaluator import holds_path_condition

        subject = aerospace.tsafe_conflict(depth=4)
        rng = np.random.default_rng(3)
        bounds = subject.bounds
        for _ in range(100):
            point = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in bounds.items()}
            matches = sum(1 for pc in subject.constraint_set.path_conditions if holds_path_condition(pc, point))
            assert matches <= 1

    def test_generation_is_deterministic(self):
        first = aerospace.apollo(depth=5, seed=1)
        second = aerospace.apollo(depth=5, seed=1)
        assert str(first.constraint_set) == str(second.constraint_set)

    def test_profile_covers_variables(self):
        for subject in aerospace.all_subjects():
            subject.profile().check_covers(subject.constraint_set.free_variables())

    def test_quantification_is_bounded_away_from_extremes(self):
        subject = aerospace.tsafe_conflict(depth=4)
        analyzer = QCoralAnalyzer(subject.profile(), QCoralConfig(samples_per_query=1500, seed=6))
        result = analyzer.analyze(subject.constraint_set)
        assert 0.05 < result.mean < 0.99

    def test_scale_parameter_changes_depth(self):
        small = aerospace.all_subjects(scale=0.5)
        default = aerospace.all_subjects(scale=1.0)
        assert small[0].total_paths < default[0].total_paths
