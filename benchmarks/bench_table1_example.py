"""Figure 2 / Table 1: ICP-stratified sampling versus plain hit-or-miss.

The paper's Section 3.3 example estimates P(x <= -y and y <= x) for x, y
uniform over [-1, 1] (exact value 1/4) with 10^4 samples, and shows that
stratifying the domain with ICP boxes reduces the estimator variance by more
than an order of magnitude.  This benchmark regenerates that comparison: the
plain estimator row, the per-box rows (weight, mean, variance), and the
combined stratified estimator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.results import Table
from repro.core.montecarlo import hit_or_miss
from repro.core.profiles import UsageProfile
from repro.core.stratified import stratified_sampling
from repro.icp.config import ICPConfig
from repro.lang.parser import parse_path_condition

EXACT_PROBABILITY = 0.25
SAMPLES = 10_000

_PC = parse_path_condition("x <= 0 - y && y <= x")
_PROFILE = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})


def run_plain(samples: int = SAMPLES, seed: int = 0):
    """Plain hit-or-miss over the whole domain (the paper's first row)."""
    return hit_or_miss(_PC, _PROFILE, samples, np.random.default_rng(seed))


def run_stratified(samples: int = SAMPLES, seed: int = 0, max_boxes: int = 4):
    """ICP-stratified sampling with the Figure 2 box budget."""
    return stratified_sampling(
        _PC,
        _PROFILE,
        samples,
        seed,
        icp_config=ICPConfig(max_boxes=max_boxes),
    )


def generate_table() -> Table:
    """Produce the Table 1 analogue: per-box estimates plus the combined rows."""
    table = Table(
        "Table 1 — variance reduction on the Figure 2 example (exact = 0.25)",
        ("weight", "mean", "variance"),
    )
    plain = run_plain(seed=1)
    stratified = run_stratified(seed=1)
    for index, report in enumerate(stratified.strata):
        table.add_row(
            f"box b{index + 1} {'(inner)' if report.inner else ''}",
            report.weight,
            report.estimate.mean,
            report.estimate.variance,
        )
    table.add_row("hit-or-miss (whole domain)", 1.0, plain.estimate.mean, plain.estimate.variance)
    table.add_row("stratified (combined)", 1.0, stratified.estimate.mean, stratified.estimate.variance)
    return table


class TestTable1Benchmarks:
    def test_plain_hit_or_miss(self, benchmark):
        result = benchmark(lambda: run_plain(seed=2))
        assert result.estimate.mean == pytest.approx(EXACT_PROBABILITY, abs=0.03)

    def test_stratified_sampling(self, benchmark):
        result = benchmark(lambda: run_stratified(seed=2))
        assert result.estimate.mean == pytest.approx(EXACT_PROBABILITY, abs=0.03)

    def test_variance_reduction_reproduced(self):
        """The headline claim: stratified variance is no worse than plain."""
        plain = run_plain(seed=3)
        stratified = run_stratified(seed=3, max_boxes=16)
        assert stratified.estimate.variance <= plain.estimate.variance * 3.0
        assert stratified.estimate.mean == pytest.approx(EXACT_PROBABILITY, abs=0.03)


if __name__ == "__main__":
    print(generate_table().render())
