"""The incidence-array composition against the per-path-condition loops it replaced.

:mod:`repro.core.composition` composes a whole constraint set with a few array
operations per factor slot; ``composition_reference`` keeps the loops that
folded one :class:`Estimate` at a time.  Every answer must be the same float,
compared by ``float.hex``: the combined mean and variance of every round, each
path condition's estimate, and the Neyman coefficients of the allocation.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.composition import (
    Incidence,
    combined_estimate,
    compose_disjoint_path_conditions,
    moments,
    neyman_coefficients,
    path_condition_moments,
)
from repro.core.estimate import Estimate
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.subjects.volcomp_suite import subject_by_name

from composition_reference import combined_estimate as reference_combined
from composition_reference import neyman_coefficients as reference_coefficients
from composition_reference import path_condition_estimate, path_condition_estimates

#: Factor estimates: sampled ones, exact ones (σ 0) and the certain and
#: impossible events.
ESTIMATES = st.one_of(
    st.builds(Estimate, st.floats(0.0, 1.0), st.floats(0.0, 0.25)),
    st.builds(Estimate.exact, st.floats(0.0, 1.0)),
    st.sampled_from([Estimate.zero(), Estimate.one(), Estimate(0.5, 0.25)]),
)


@st.composite
def plans(draw):
    """Rows of 1–6 factor indices (repeats and shares allowed) or empty rows, over 1–8 factors."""
    estimates = draw(st.lists(ESTIMATES, min_size=1, max_size=8))
    row = st.lists(st.integers(0, len(estimates) - 1), min_size=1, max_size=6)
    rows = draw(st.lists(st.one_of(st.just([]), row), max_size=30))
    return rows, estimates


def hexed(estimate):
    return estimate.mean.hex(), estimate.variance.hex()


#: Shared factors, an exact one, an empty path condition, a repeated
#: occurrence and rows of differing length.
SHARED = (
    [[0, 1], [0, 2, 3], [], [3, 3], [1, 2, 3, 0, 1, 2]],
    [Estimate(0.3, 1e-4), Estimate.exact(0.25), Estimate(0.9, 3e-5), Estimate(0.1, 2e-3)],
)


@settings(max_examples=300, deadline=None)
@given(plans())
@example(SHARED)
@example(([], [Estimate(0.5, 0.01)]))
@example(([[]], [Estimate(0.5, 0.01)]))
@example(([[0]], [Estimate(0.7, 0.001)]))
def test_incidence_composition_equals_the_reference_loops(plan):
    rows, estimates = plan
    incidence = Incidence(rows, len(estimates))
    means, variances = moments(estimates)

    pc_means, pc_variances = path_condition_moments(incidence, means, variances)
    composed = [Estimate(mean, variance) for mean, variance in zip(pc_means.tolist(), pc_variances.tolist())]
    assert list(map(hexed, composed)) == list(map(hexed, path_condition_estimates(rows, estimates)))
    assert hexed(combined_estimate(incidence, means, variances)) == hexed(reference_combined(rows, estimates))

    coefficients = neyman_coefficients(incidence, means)
    reference = reference_coefficients(rows, estimates, range(len(estimates)))
    assert [value.hex() for value in coefficients] == [reference[factor].hex() for factor in range(len(estimates))]


def test_incidence_layout():
    rows, _ = SHARED
    incidence = Incidence(rows, 4)
    assert incidence.occurrences.shape == (5, 6)
    assert incidence.occurrences[2].tolist() == [4] * 6
    assert incidence.distinct.shape == (5, 4)
    assert incidence.distinct[3].tolist() == [3, 4, 4, 4]
    assert incidence.distinct[4].tolist() == [1, 2, 3, 0]
    # 2·f for the occurrence owning factor f's samples, 2·f + 1 for the shares.
    assert incidence.slots == ((0, 2), (1, 4, 6), (), (7, 7), (3, 5, 7, 1, 3, 5))
    assert incidence.shared == 13 - 4


def test_a_nan_estimate_still_raises():
    nan = Estimate(0.5, 0.01)
    object.__setattr__(nan, "mean", math.nan)  # Estimate itself refuses NaN
    rows, estimates = [[0, 1], [1]], [Estimate(0.5, 0.01), nan]
    incidence = Incidence(rows, 2)
    with pytest.raises(ValueError, match="NaN"):
        path_condition_moments(incidence, *moments(estimates))
    with pytest.raises(ValueError, match="NaN"):
        combined_estimate(incidence, *moments(estimates))
    with pytest.raises(ValueError, match="NaN"):
        reference_combined(rows, estimates)


def test_atrial_run_shares_factor_reports_and_composes_them_exactly():
    subject = subject_by_name("ATRIAL")
    constraint_set = subject.constraint_set(subject.assertion("points >= 10"))
    config = QCoralConfig(samples_per_query=500, seed=3, allocation="neyman", max_rounds=3)
    result = QCoralAnalyzer(subject.profile(), config).analyze(constraint_set)

    occurrences = [factor for report in result.path_reports for factor in report.factors]
    distinct = {factor.factor.canonical() for factor in occurrences}
    assert len(result.path_reports) == 510 and len(distinct) == 27
    assert len({id(factor) for factor in occurrences}) <= 2 * len(distinct)
    # One occurrence per factor owns its samples; the run's total is theirs.
    assert sum(not factor.from_cache for factor in occurrences) == len(distinct)
    assert result.total_samples == sum(factor.samples for factor in occurrences)
    for report in result.path_reports:
        estimates = [factor.estimate for factor in report.factors]
        assert hexed(report.estimate) == hexed(path_condition_estimate(range(len(estimates)), estimates))
    summed = compose_disjoint_path_conditions(report.estimate for report in result.path_reports)
    assert hexed(result.estimate) == hexed(summed)
    assert hexed(result.round_reports[-1].estimate) == hexed(result.estimate)
