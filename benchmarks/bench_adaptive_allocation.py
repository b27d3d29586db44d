"""Adaptive (Neyman) vs fixed (even) budget allocation at equal sample counts.

The paper splits every stratified budget evenly across strata; the adaptive
engine spends a pilot fraction, then routes the remaining budget to the
strata and factors with the largest weighted variance (Neyman allocation,
``n_i ∝ w_i σ_i``).  This benchmark runs both policies on Table-2
microbenchmarks with the *same seed and the same total sample count* and
reports the ratio of the combined standard deviations — the budget-vs-
precision tradeoff of Section 3.3, Equation (3).

Expected outcome: identical sample counts, statistically identical means, and
a σ ratio strictly below 1 for every subject whose paving leaves boundary
boxes of unequal weight.

Also exercised: the ``target_std`` convergence knob, which must terminate the
loop early (spending less than the full budget) when the requested precision
is reached.
"""

from __future__ import annotations

import statistics

import pytest

try:
    from benchmarks.conftest import FULL_SCALE, record_bench, repetitions, write_bench_summary
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import FULL_SCALE, record_bench, repetitions, write_bench_summary
from repro.analysis.results import Table
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.subjects.solids import solid_by_name

#: Table-2 subjects with sampled (boundary) strata, so allocation matters.
SUBJECTS = ("Sphere", "Torus", "Tetrahedron", "Icosahedron")

#: Per-factor budget of the comparison (paper scale when QCORAL_BENCH_FULL=1).
BUDGET = 100_000 if FULL_SCALE else 10_000


def run_pair(name: str, samples: int, seed: int) -> dict:
    """One seed-matched fixed-vs-adaptive comparison on one solid."""
    solid = solid_by_name(name)
    fixed_config = QCoralConfig(samples_per_query=samples, seed=seed)
    adaptive_config = QCoralConfig(samples_per_query=samples, seed=seed, allocation="neyman")

    fixed = QCoralAnalyzer(solid.profile(), fixed_config).analyze(solid.constraint_set())
    adaptive = QCoralAnalyzer(solid.profile(), adaptive_config).analyze(solid.constraint_set())

    return {
        "subject": name,
        "seed": seed,
        "samples_fixed": fixed.total_samples,
        "samples_adaptive": adaptive.total_samples,
        "mean_fixed": fixed.mean,
        "mean_adaptive": adaptive.mean,
        "sigma_fixed": fixed.std,
        "sigma_adaptive": adaptive.std,
        "sigma_ratio": adaptive.std / fixed.std if fixed.std > 0 else 1.0,
        "rounds_adaptive": adaptive.rounds,
    }


def collect_results(samples: int = BUDGET, runs: int | None = None, base_seed: int = 200) -> list:
    """Seed-matched comparisons for every subject, registered for the JSON dump."""
    trials = runs if runs is not None else repetitions()
    rows = []
    for name in SUBJECTS:
        pairs = [run_pair(name, samples, base_seed + index) for index in range(trials)]
        rows.append(
            {
                "subject": name,
                "samples": samples,
                "runs": trials,
                "sigma_fixed": statistics.fmean(pair["sigma_fixed"] for pair in pairs),
                "sigma_adaptive": statistics.fmean(pair["sigma_adaptive"] for pair in pairs),
                "sigma_ratio": statistics.fmean(pair["sigma_ratio"] for pair in pairs),
                "mean_gap": statistics.fmean(
                    abs(pair["mean_adaptive"] - pair["mean_fixed"]) for pair in pairs
                ),
                "pairs": pairs,
            }
        )
    record_bench(
        "adaptive_allocation",
        {
            "budget": samples,
            "subjects": [
                {key: value for key, value in row.items() if key != "pairs"} for row in rows
            ],
        },
    )
    return rows


def generate_table() -> Table:
    table = Table(
        f"Adaptive vs even allocation at {BUDGET} samples (seed-matched)",
        ("σ even", "σ adaptive", "σ ratio", "mean gap"),
    )
    for row in collect_results():
        table.add_row(
            row["subject"],
            row["sigma_fixed"],
            row["sigma_adaptive"],
            row["sigma_ratio"],
            row["mean_gap"],
        )
    return table


class TestAdaptiveAllocation:
    @pytest.mark.parametrize("name", ["Sphere", "Torus"])
    def test_adaptive_beats_even_at_equal_budget(self, name):
        """Same seed, same sample count, strictly lower combined σ."""
        pair = run_pair(name, 10_000, seed=7)
        assert pair["samples_adaptive"] == pair["samples_fixed"]
        assert pair["sigma_adaptive"] < pair["sigma_fixed"]
        assert pair["mean_adaptive"] == pytest.approx(pair["mean_fixed"], abs=0.02)

    def test_target_std_terminates_early(self):
        """A reachable precision target stops the loop before the budget."""
        solid = solid_by_name("Sphere")
        config = QCoralConfig(samples_per_query=100_000, target_std=5e-3, seed=7, allocation="neyman")
        result = QCoralAnalyzer(solid.profile(), config).analyze(solid.constraint_set())
        assert result.met_target
        assert result.total_samples < 100_000
        assert result.rounds < config.max_rounds

    def test_summary_registered(self):
        rows = collect_results(samples=5_000, runs=2)
        assert len(rows) == len(SUBJECTS)
        assert all(row["sigma_ratio"] < 1.0 for row in rows)


if __name__ == "__main__":
    print(generate_table().render())
    print(f"\nsummary written to {write_bench_summary()}")
    if not FULL_SCALE:
        print("(reduced mode: set QCORAL_BENCH_FULL=1 for the paper-scale sweep)")
