"""Table 3 (RQ2): qCORAL versus numerical integration and VolComp bounds.

For every assertion of the VolComp benchmark suite the paper reports the
NIntegrate point value and time, the VolComp bounding interval and time, and
the qCORAL{STRAT,PARTCACHE} estimate, standard deviation and time (averaged
over 30 runs at 30k samples).  The default mode uses the re-modelled subjects
with reduced sample/repetition counts; ``QCORAL_BENCH_FULL=1`` restores the
paper's parameters.
"""

from __future__ import annotations

import pytest

try:
    from benchmarks.conftest import FULL_SCALE, repetitions
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import FULL_SCALE, repetitions
from repro.analysis.results import Table, format_interval
from repro.analysis.runner import repeat_analysis
from repro.baselines.numint import NumIntConfig, integrate_indicator
from repro.baselines.volcomp import VolCompConfig, bound_probability
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.lang.analysis import constraint_set_statistics
from repro.subjects.volcomp_suite import all_assertion_cases, subject_by_name

#: Sampling budget for qCORAL (the paper uses 30k).
SAMPLES = 30_000 if FULL_SCALE else 5_000

#: Budgets for the baselines, scaled down in CI mode.
NUMINT_CONFIG = NumIntConfig(max_regions=20_000 if FULL_SCALE else 2_000, time_budget=60.0)
VOLCOMP_CONFIG = VolCompConfig(max_boxes=4_000 if FULL_SCALE else 800, time_budget=30.0)


def run_qcoral(subject, assertion, samples: int, seed: int):
    constraint_set = subject.constraint_set(assertion)
    analyzer = QCoralAnalyzer(subject.profile(), QCoralConfig(samples_per_query=samples, seed=seed))
    result = analyzer.analyze(constraint_set)
    return result.mean, result.std


def generate_table() -> Table:
    table = Table(
        "Table 3 — linear-constraint comparison (NIntegrate / VolComp / qCORAL)",
        (
            "paths",
            "ands",
            "numint",
            "numint t(s)",
            "volcomp bounds",
            "volcomp t(s)",
            "qcoral est",
            "qcoral σ",
            "qcoral t(s)",
        ),
    )
    for subject, assertion in all_assertion_cases():
        constraint_set = subject.constraint_set(assertion)
        statistics = constraint_set_statistics(constraint_set)
        profile = subject.profile()
        domain = profile.restrict(sorted(constraint_set.free_variables())).domain() if len(constraint_set) else None

        if domain is not None and len(constraint_set):
            numint = integrate_indicator(constraint_set, domain, NUMINT_CONFIG)
            numint_value, numint_time = numint.probability, numint.analysis_time
        else:
            numint_value, numint_time = 0.0, 0.0

        bounds = bound_probability(constraint_set, profile, VOLCOMP_CONFIG)

        aggregated = repeat_analysis(
            lambda seed: run_qcoral(subject, assertion, SAMPLES, seed),
            runs=repetitions(),
            base_seed=7,
        )

        table.add_row(
            f"{subject.name}: {assertion.label}",
            statistics.path_count,
            statistics.conjunct_count,
            numint_value,
            numint_time,
            format_interval(bounds.lower, bounds.upper),
            bounds.analysis_time,
            aggregated.mean_estimate,
            aggregated.mean_reported_std,
            aggregated.mean_time,
        )
    return table


class TestTable3Benchmarks:
    @pytest.mark.parametrize("subject_name,label", [
        ("CORONARY", "tmp >= 5"),
        ("EGFR EPI", "f1 - f >= 0.1"),
        ("INVPEND", "pAng <= 1"),
        ("PACK", "totalWeight >= 5"),
    ])
    def test_qcoral_on_representative_rows(self, benchmark, subject_name, label):
        subject = subject_by_name(subject_name)
        assertion = subject.assertion(label)
        subject.constraint_set(assertion)  # warm the symbolic-execution cache
        mean, _ = benchmark(lambda: run_qcoral(subject, assertion, 2_000, seed=3))
        assert 0.0 <= mean <= 1.05

    def test_qcoral_estimate_within_volcomp_bounds(self):
        """The paper's consistency observation: estimates fall inside the bounds."""
        subject = subject_by_name("EGFR EPI")
        assertion = subject.assertion("f1 - f >= 0.1")
        constraint_set = subject.constraint_set(assertion)
        bounds = bound_probability(constraint_set, subject.profile(), VOLCOMP_CONFIG)
        mean, std = run_qcoral(subject, assertion, 5_000, seed=5)
        assert bounds.lower - 3 * std - 0.02 <= mean <= bounds.upper + 3 * std + 0.02

    def test_volcomp_baseline(self, benchmark):
        subject = subject_by_name("CORONARY")
        constraint_set = subject.constraint_set(subject.assertion("tmp >= 5"))
        result = benchmark(lambda: bound_probability(constraint_set, subject.profile(), VOLCOMP_CONFIG))
        assert result.lower <= result.upper

    def test_numerical_integration_baseline(self, benchmark):
        subject = subject_by_name("INVPEND")
        constraint_set = subject.constraint_set(subject.assertions[0])
        domain = subject.profile().restrict(sorted(constraint_set.free_variables())).domain()
        result = benchmark(lambda: integrate_indicator(constraint_set, domain, NUMINT_CONFIG))
        assert 0.0 <= result.probability <= 1.0


if __name__ == "__main__":
    print(generate_table().render())
    if not FULL_SCALE:
        print("\n(reduced mode: set QCORAL_BENCH_FULL=1 for 30 runs at 30k samples)")
