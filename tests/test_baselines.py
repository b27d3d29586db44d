"""Unit tests for the comparison baselines: plain MC, NIntegrate and VolComp substitutes."""

import math

import pytest

from repro.baselines import numint, volcomp
from repro.baselines.numint import NumIntConfig, integrate_indicator, nintegrate
from repro.baselines.plain_mc import per_path_monte_carlo, plain_monte_carlo
from repro.baselines.volcomp import VolCompConfig, bound_probability
from repro.core.profiles import UsageProfile
from repro.errors import AnalysisError
from repro.intervals import Box
from repro.lang.parser import parse_constraint_set
from repro.subjects.volcomp_suite import subject_by_name

from hc4_reference import ReferenceTree


@pytest.fixture
def square_profile():
    return UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})


@pytest.fixture
def square_domain():
    return Box.from_bounds({"x": (-1, 1), "y": (-1, 1)})


class TestPlainMonteCarlo:
    def test_triangle(self, square_profile):
        cs = parse_constraint_set("x <= 0 - y && y <= x")
        result = plain_monte_carlo(cs, square_profile, 20_000, seed=1)
        assert result.mean == pytest.approx(0.25, abs=0.02)
        assert result.samples == 20_000
        assert result.analysis_time >= 0.0

    def test_disjunction(self, square_profile):
        cs = parse_constraint_set("x > 0.5 || x < 0 - 0.5")
        result = plain_monte_carlo(cs, square_profile, 20_000, seed=2)
        assert result.mean == pytest.approx(0.5, abs=0.02)

    def test_per_path_variant_sums_disjoint_paths(self, square_profile):
        cs = parse_constraint_set("x > 0.5 || x < 0 - 0.5")
        result = per_path_monte_carlo(cs, square_profile, 10_000, seed=3)
        assert result.mean == pytest.approx(0.5, abs=0.03)
        assert result.samples == 20_000

    def test_seeded_reproducibility(self, square_profile):
        cs = parse_constraint_set("x * x + y * y <= 1")
        first = plain_monte_carlo(cs, square_profile, 5000, seed=7)
        second = plain_monte_carlo(cs, square_profile, 5000, seed=7)
        assert first.mean == second.mean


class TestNumericalIntegration:
    def test_half_plane(self, square_domain):
        cs = parse_constraint_set("x <= 0")
        result = nintegrate(cs, square_domain)
        # The indicator is discontinuous along x = 0, so the adaptive scheme
        # keeps refining the boundary slab; the estimate converges to 0.5 but
        # the reported error bound shrinks only geometrically.
        assert result.probability == pytest.approx(0.5, abs=0.02)
        assert abs(result.probability - 0.5) <= result.error_bound + 1e-9

    def test_circle_probability(self, square_domain):
        cs = parse_constraint_set("x * x + y * y <= 1")
        result = integrate_indicator(cs, square_domain, NumIntConfig(accuracy_goal=5e-3))
        assert result.probability == pytest.approx(math.pi / 4, abs=0.02)

    def test_box_constraint_is_exact(self, square_domain):
        cs = parse_constraint_set("x >= 0 && x <= 0.5 && y >= 0 && y <= 0.5")
        result = nintegrate(cs, square_domain)
        assert result.probability == pytest.approx(0.0625, abs=1e-3)

    def test_empty_constraint_set(self, square_domain):
        from repro.lang.ast import ConstraintSet

        result = integrate_indicator(ConstraintSet.of([]), square_domain)
        assert result.probability == 0.0 and result.converged

    def test_region_budget_limits_work(self, square_domain):
        cs = parse_constraint_set("sin(x * 7) * cos(y * 9) >= 0.1")
        config = NumIntConfig(accuracy_goal=1e-6, max_regions=50)
        result = integrate_indicator(cs, square_domain, config)
        assert not result.converged
        assert result.error_bound > 1e-6

    def test_error_bound_brackets_truth(self, square_domain):
        cs = parse_constraint_set("x * x + y * y <= 1")
        result = integrate_indicator(cs, square_domain, NumIntConfig(accuracy_goal=1e-3))
        truth = math.pi / 4
        assert abs(result.probability - truth) <= result.error_bound + 0.01


class TestVolCompBounds:
    def test_half_plane_bounds(self, square_profile):
        cs = parse_constraint_set("x <= 0")
        result = bound_probability(cs, square_profile)
        assert result.lower <= 0.5 <= result.upper
        assert result.width < 0.05

    def test_circle_bounds_contain_truth(self, square_profile):
        cs = parse_constraint_set("x * x + y * y <= 1")
        result = bound_probability(cs, square_profile, VolCompConfig(max_boxes=2000))
        assert result.contains(math.pi / 4)

    def test_impossible_constraint(self, square_profile):
        cs = parse_constraint_set("x > 5")
        result = bound_probability(cs, square_profile)
        assert result.lower == 0.0 and result.upper == pytest.approx(0.0, abs=1e-6)

    def test_certain_constraint(self, square_profile):
        cs = parse_constraint_set("x <= 5")
        result = bound_probability(cs, square_profile)
        assert result.lower == pytest.approx(1.0, abs=1e-6)

    def test_budget_starvation_keeps_soundness(self, square_profile):
        """With almost no budget the bounds stay valid, just wide (the paper's VOL row)."""
        cs = parse_constraint_set("sin(x * y * 5) >= 0.2")
        result = bound_probability(cs, square_profile, VolCompConfig(max_boxes=3))
        assert 0.0 <= result.lower <= result.upper <= 1.0
        assert result.width > 0.5

    def test_disjunction_bounds(self, square_profile):
        cs = parse_constraint_set("x > 0.5 || x < 0 - 0.5")
        result = bound_probability(cs, square_profile)
        assert result.contains(0.5)

    def test_empty_constraint_set(self, square_profile):
        from repro.lang.ast import ConstraintSet

        result = bound_probability(ConstraintSet.of([]), square_profile)
        assert result.lower == result.upper == 0.0

    @pytest.mark.parametrize(
        "text,spec",
        [("x < 1", "int:0:1"), ("x > 1", "int:0:1"), ("x >= 1", "int:0:4"), ("x + y <= 0.5", "binomial:4:0.5")],
    )
    def test_discrete_variables_are_refused(self, text, spec):
        # Boundary slack and closed bisection halves count integer atoms on a
        # boundary or a split wrongly: x < 1 over {0, 1} bounded to [1, 1].
        profile = UsageProfile.from_specs({"x": spec, "y": "0:1"})
        with pytest.raises(AnalysisError, match="discrete"):
            bound_probability(parse_constraint_set(text), profile)


#: Volcomp-suite assertions the baselines are held to on both kinds of tree.
TREE_CASES = [
    ("CORONARY", "tmp >= 5"),
    ("EGFR EPI (SIMPLE)", "f1 <= 4.4 && f >= 4.6"),
    ("INVPEND", "pAng <= 1"),
    ("VOL", "count >= 20"),
]


def _baseline_results(subject_name, label):
    """Both baselines at small caps, clocks lifted, as hex-exact tuples."""
    subject = subject_by_name(subject_name)
    constraint_set = subject.constraint_set(subject.assertion(label))
    profile = subject.profile()
    bounds = bound_probability(constraint_set, profile, VolCompConfig(max_boxes=120, time_budget=1e9))
    domain = profile.restrict(sorted(constraint_set.free_variables())).domain()
    integral = integrate_indicator(constraint_set, domain, NumIntConfig(max_regions=120, time_budget=1e9))
    return (
        (bounds.lower.hex(), bounds.upper.hex(), bounds.boxes_explored),
        (integral.probability.hex(), integral.error_bound.hex(), integral.regions, integral.converged),
    )


@pytest.mark.parametrize("subject_name,label", TREE_CASES)
def test_baselines_match_on_reference_trees(subject_name, label, monkeypatch):
    tape = _baseline_results(subject_name, label)
    built = []

    def reference_trees(pc):
        built.append(pc)
        return tuple(ReferenceTree(constraint) for constraint in pc.constraints)

    for module in (volcomp, numint):
        monkeypatch.setattr(module, "constraint_trees", reference_trees)
    assert _baseline_results(subject_name, label) == tape
    assert built
