"""Importance sampling vs hit-or-miss at equal budget on peaked profiles.

The distribution-aware importance engine (``method="importance"``) refines the
ICP paving by mass, allocates budget by ``mass · σ̂``, and combines the strata
self-normalised.  This benchmark runs it against the paper's hit-or-miss
stratified sampling with the *same seed and the same total sample count* on
the peaked-profile subjects of :mod:`repro.subjects.discrete` and reports the
ratio of the combined standard deviations — plus, where the subject is fully
discrete, the true error against the enumerated ground-truth probability.

Expected outcome: σ ratio strictly below 1 on every subject (the all-discrete
subjects are resolved to per-atom strata, so their ratio collapses to ~0), and
bit-identical same-seed results at 1, 2 and 3 sampling workers.

The machine-readable summary lands in ``benchmarks/BENCH_importance.json``;
``benchmarks/check_regression.py`` gates CI on it.
"""

from __future__ import annotations

import statistics

import pytest

try:
    from benchmarks.conftest import FULL_SCALE, record_bench, repetitions, write_bench_summary
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import FULL_SCALE, record_bench, repetitions, write_bench_summary
from repro.analysis.results import Table
from repro.api import Session
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.subjects.discrete import all_discrete_subjects, discrete_subject_by_name

#: Summary file of this benchmark family.
SUMMARY = "BENCH_importance.json"

#: Subjects where the paving leaves genuinely sampled strata, so the σ ratio
#: is a meaningful (non-degenerate) comparison — the acceptance pair.
PEAKED_SAMPLED = ("LoadSpike", "BurstySensor")

#: Per-factor budget of the comparison (paper scale when QCORAL_BENCH_FULL=1).
BUDGET = 100_000 if FULL_SCALE else 10_000


def run_pair(name: str, samples: int, seed: int) -> dict:
    """One seed-matched hit-or-miss vs importance comparison on one subject."""
    subject = discrete_subject_by_name(name)
    base_config = QCoralConfig(samples_per_query=samples, seed=seed)
    imp_config = QCoralConfig(samples_per_query=samples, seed=seed, method="importance")

    base = QCoralAnalyzer(subject.profile, base_config).analyze(subject.constraint_set())
    imp = QCoralAnalyzer(subject.profile, imp_config).analyze(subject.constraint_set())

    exact = subject.exact_probability()
    return {
        "subject": name,
        "seed": seed,
        "samples_base": base.total_samples,
        "samples_importance": imp.total_samples,
        "mean_base": base.mean,
        "mean_importance": imp.mean,
        "sigma_base": base.std,
        "sigma_importance": imp.std,
        "sigma_ratio": imp.std / base.std if base.std > 0 else 1.0,
        "error_base": abs(base.mean - exact) if exact is not None else None,
        "error_importance": abs(imp.mean - exact) if exact is not None else None,
    }


def determinism_check(samples: int = 8_000, seed: int = 5) -> dict:
    """Same-seed importance runs at 1, 2 and 3 workers must be bit-identical."""
    subject = discrete_subject_by_name("BurstySensor")
    config = QCoralConfig(samples_per_query=samples, seed=seed, method="importance")
    outcomes = {}
    for workers in (1, 2, 3):
        with Session(workers=workers) as session:
            result = session.quantify(subject.constraint_set(), subject.profile, config=config).run()
        outcomes[f"workers={workers}"] = {
            "mean": result.mean,
            "variance": result.variance,
            "samples": result.total_samples,
        }
    values = {(o["mean"], o["variance"], o["samples"]) for o in outcomes.values()}
    return {
        "subject": "BurstySensor",
        "samples": samples,
        "seed": seed,
        "backends": outcomes,
        "bit_identical": len(values) == 1,
    }


def collect_results(samples: int = BUDGET, runs: int | None = None, base_seed: int = 300) -> list:
    """Seed-matched comparisons for every subject, registered for the JSON dump."""
    trials = runs if runs is not None else repetitions()
    rows = []
    for subject in all_discrete_subjects():
        pairs = [run_pair(subject.name, samples, base_seed + index) for index in range(trials)]
        rows.append(
            {
                "subject": subject.name,
                "group": subject.group,
                "samples": samples,
                "runs": trials,
                "sigma_base": statistics.fmean(pair["sigma_base"] for pair in pairs),
                "sigma_importance": statistics.fmean(pair["sigma_importance"] for pair in pairs),
                "sigma_ratio": statistics.fmean(pair["sigma_ratio"] for pair in pairs),
                "mean_gap": statistics.fmean(
                    abs(pair["mean_importance"] - pair["mean_base"]) for pair in pairs
                ),
                "pairs": pairs,
            }
        )
    record_bench(
        "importance",
        {
            "budget": samples,
            "subjects": [
                {key: value for key, value in row.items() if key != "pairs"} for row in rows
            ],
            "determinism": determinism_check(),
        },
        summary=SUMMARY,
    )
    return rows


def generate_table() -> Table:
    table = Table(
        f"Importance vs hit-or-miss at {BUDGET} samples (seed-matched)",
        ("σ hit-or-miss", "σ importance", "σ ratio", "mean gap"),
    )
    for row in collect_results():
        table.add_row(
            row["subject"],
            row["sigma_base"],
            row["sigma_importance"],
            row["sigma_ratio"],
            row["mean_gap"],
        )
    return table


class TestImportanceBenchmark:
    @pytest.mark.parametrize("name", PEAKED_SAMPLED)
    def test_importance_beats_hit_or_miss_at_equal_budget(self, name):
        """Same seed, same sample count, strictly lower combined σ."""
        pair = run_pair(name, 10_000, seed=7)
        assert pair["samples_importance"] == pair["samples_base"]
        assert pair["sigma_importance"] < pair["sigma_base"]
        assert pair["mean_importance"] == pytest.approx(pair["mean_base"], abs=0.02)

    def test_discrete_subjects_resolve_near_ground_truth(self):
        """All-discrete subjects collapse to (near) per-atom strata.

        At the default 64-box cap a handful of strata still hold two atoms,
        one of which can carry near-zero tail mass the samples never see, so
        the residual error is bounded by that tail mass rather than exactly 0
        (the 256-box unit test in tests/test_importance.py checks exactness).
        """
        pair = run_pair("SensorGrid", 5_000, seed=9)
        assert pair["error_importance"] == pytest.approx(0.0, abs=1e-5)
        assert pair["error_importance"] < pair["error_base"]

    def test_bit_identical_across_executors(self):
        assert determinism_check(samples=4_000)["bit_identical"]

    def test_summary_registered(self):
        rows = collect_results(samples=4_000, runs=2)
        assert len(rows) == len(all_discrete_subjects())
        assert all(row["sigma_ratio"] < 1.0 for row in rows)


def main() -> None:
    print(generate_table().render())
    path = write_bench_summary(SUMMARY)
    print(f"\nbenchmark summary written to {path}")
    if not FULL_SCALE:
        print("(reduced mode: set QCORAL_BENCH_FULL=1 for the paper-scale sweep)")


if __name__ == "__main__":
    main()
