"""Probabilistic analysis of an aircraft-conflict scenario (TSAFE-style).

The paper's Table 4 evaluates qCORAL on the TSAFE Conflict Probe, which tests
whether two aircraft are predicted to lose separation within a time horizon.
This example builds a small conflict-probe program in the mini language,
analyses it end to end under two different usage profiles (uniform and a
truncated-normal "dense traffic" profile), and compares the qCORAL feature
configurations on the generated constraint set.

Run with:  python examples/aircraft_conflict.py
"""

from __future__ import annotations

from repro import QCoralConfig, Session, UsageProfile
from repro.core.profiles import TruncatedNormalDistribution, UniformDistribution
from repro.subjects.aerospace import tsafe_conflict
from repro.core.qcoral import QCoralAnalyzer

CONFLICT_PROBE = """
input x1 in [0, 50];
input y1 in [0, 50];
input x2 in [0, 50];
input y2 in [0, 50];
input vx1 in [-5, 5];
input vy1 in [-5, 5];
input vx2 in [-5, 5];
input vy2 in [-5, 5];

horizon = 3.0;
fx1 = x1 + horizon * vx1;
fy1 = y1 + horizon * vy1;
fx2 = x2 + horizon * vx2;
fy2 = y2 + horizon * vy2;

currentDistance = sqrt((x1 - x2) * (x1 - x2) + (y1 - y2) * (y1 - y2));
futureDistance = sqrt((fx1 - fx2) * (fx1 - fx2) + (fy1 - fy2) * (fy1 - fy2));

if (currentDistance <= 5.0) {
    observe(conflict);
} else {
    if (futureDistance <= 5.0) {
        observe(conflict);
    }
}
"""


def analyze_under_profile(name: str, profile: UsageProfile) -> None:
    with Session() as session:
        config = QCoralConfig(samples_per_query=20_000, seed=11)
        result = session.analyze(CONFLICT_PROBE, "conflict", profile, config=config).run()
    print(f"{name:28s} P(conflict) = {result.mean:.6f}  std = {result.std:.3e}")


def main() -> None:
    print("=" * 76)
    print("Conflict probe: probability of losing separation within the horizon")
    print("=" * 76)

    analyze_under_profile("uniform traffic", UsageProfile.uniform(
        {
            "x1": (0, 50), "y1": (0, 50), "x2": (0, 50), "y2": (0, 50),
            "vx1": (-5, 5), "vy1": (-5, 5), "vx2": (-5, 5), "vy2": (-5, 5),
        }
    ))

    dense_traffic = UsageProfile(
        {
            "x1": TruncatedNormalDistribution(25.0, 8.0, 0.0, 50.0),
            "y1": TruncatedNormalDistribution(25.0, 8.0, 0.0, 50.0),
            "x2": TruncatedNormalDistribution(25.0, 8.0, 0.0, 50.0),
            "y2": TruncatedNormalDistribution(25.0, 8.0, 0.0, 50.0),
            "vx1": UniformDistribution(-5, 5),
            "vy1": UniformDistribution(-5, 5),
            "vx2": UniformDistribution(-5, 5),
            "vy2": UniformDistribution(-5, 5),
        }
    )
    analyze_under_profile("dense traffic (normal)", dense_traffic)

    print()
    print("=" * 76)
    print("Feature ablation on the synthetic TSAFE Conflict constraint family")
    print("=" * 76)
    subject = tsafe_conflict(depth=5)
    for config in (
        QCoralConfig(samples_per_query=5_000, stratified=False, partition_and_cache=False, seed=4),
        QCoralConfig(samples_per_query=5_000, partition_and_cache=False, seed=4),
        QCoralConfig(samples_per_query=5_000, seed=4),
    ):
        analyzer = QCoralAnalyzer(subject.profile(), config)
        result = analyzer.analyze(subject.constraint_set)
        print(
            f"{config.feature_label():28s} estimate={result.mean:.6f} "
            f"std={result.std:.3e} time={result.analysis_time:.2f}s"
        )


if __name__ == "__main__":
    main()
