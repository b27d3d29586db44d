"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's tables and quantify:

* the effect of the ICP box budget on the stratified estimator's variance
  (the paper fixes 10 boxes per query after "empirical experience");
* the accuracy/time trade-off of the factor cache discussed in Section 5;
* the cost of the variance upper bound of Theorem 1 relative to the empirical
  variance of repeated runs.
"""

from __future__ import annotations

import numpy as np
import pytest

try:
    from benchmarks.conftest import repetitions
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import repetitions
from repro.analysis.results import Table
from repro.core.profiles import UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.core.stratified import stratified_sampling
from repro.icp.config import ICPConfig
from repro.lang.parser import parse_constraint_set, parse_path_condition


def run_engine(constraint_set, profile, config):
    """One engine run of ``constraint_set``."""
    return QCoralAnalyzer(profile, config).analyze(constraint_set)

_PROFILE = UsageProfile.uniform({"x": (-5, 5), "y": (-5, 5)})
_CIRCLE = parse_path_condition("x * x + y * y <= 1")

#: Disjunction whose paths share the same non-linear factor over {x, y} while
#: differing only in an independent threshold on z — the situation PARTCACHE
#: exploits (the sin factor is estimated once and reused for every path).
_SHARED_FACTORS = parse_constraint_set(
    " || ".join(
        f"sin(x * y) > 0.25 && z > {low} && z <= {high}"
        for low, high in ((-3, -1), (-1, 1), (1, 2))
    )
)
_SHARED_PROFILE = UsageProfile.uniform({"x": (-3, 3), "y": (-3, 3), "z": (-3, 3)})


def run_box_budget(max_boxes: int, samples: int = 5_000, seed: int = 0):
    return stratified_sampling(
        _CIRCLE,
        _PROFILE,
        samples,
        seed,
        icp_config=ICPConfig(max_boxes=max_boxes),
    )


def generate_box_budget_table() -> Table:
    table = Table(
        "Ablation — ICP box budget vs stratified variance (circle in [-5,5]^2)",
        ("boxes", "estimate", "variance"),
    )
    for max_boxes in (1, 2, 5, 10, 20, 50):
        result = run_box_budget(max_boxes, seed=3)
        table.add_row(f"max_boxes={max_boxes}", result.box_count, result.estimate.mean, result.estimate.variance)
    return table


def generate_cache_table() -> Table:
    table = Table(
        "Ablation — factor cache accuracy/time trade-off (shared sin factor)",
        ("estimate", "σ", "samples", "time (s)"),
    )
    for label, config in (
        ("STRAT (no cache)", QCoralConfig(samples_per_query=4_000, partition_and_cache=False, seed=5)),
        ("STRAT+PARTCACHE", QCoralConfig(samples_per_query=4_000, seed=5)),
    ):
        result = run_engine(_SHARED_FACTORS, _SHARED_PROFILE, config)
        table.add_row(label, result.mean, result.std, result.total_samples, result.analysis_time)
    return table


class TestAblationBenchmarks:
    @pytest.mark.parametrize("max_boxes", [1, 10, 50])
    def test_box_budget_sweep(self, benchmark, max_boxes):
        result = benchmark(lambda: run_box_budget(max_boxes, samples=2_000, seed=1))
        assert result.estimate.mean == pytest.approx(np.pi / 100.0, abs=0.01)

    def test_more_boxes_never_hurt_much(self):
        few = run_box_budget(2, seed=7)
        many = run_box_budget(50, seed=7)
        assert many.estimate.variance <= few.estimate.variance * 1.5

    def test_cache_preserves_estimate(self):
        strat = QCoralConfig(samples_per_query=3_000, partition_and_cache=False, seed=9)
        uncached = run_engine(_SHARED_FACTORS, _SHARED_PROFILE, strat)
        cached = run_engine(_SHARED_FACTORS, _SHARED_PROFILE, QCoralConfig(samples_per_query=3_000, seed=9))
        assert cached.mean == pytest.approx(uncached.mean, abs=0.05)
        assert cached.total_samples <= uncached.total_samples

    def test_reported_variance_bounds_empirical_variance(self):
        """Theorem 1 sanity check over repeated runs."""
        estimates = []
        reported = []
        for seed in range(repetitions(default=5, full=30)):
            result = run_engine(_SHARED_FACTORS, _SHARED_PROFILE, QCoralConfig(samples_per_query=2_000, seed=seed))
            estimates.append(result.mean)
            reported.append(result.variance)
        empirical = float(np.var(estimates, ddof=1))
        assert empirical <= 20 * max(reported) + 1e-6


if __name__ == "__main__":
    print(generate_box_budget_table().render())
    print()
    print(generate_cache_table().render())
