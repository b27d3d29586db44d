"""Section 4.4 worked example: the autopilot safety monitor.

The paper reports P(callSupervisor) = 0.738089 with variance 1.64e-6 against
the exact value 0.737848.  This benchmark runs the full pipeline (symbolic
execution + compositional quantification) and checks the estimate lands on the
paper's value; it also times the two pipeline stages separately.
"""

from __future__ import annotations

import pytest

from repro.analysis.results import Table
from repro.api import Session
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.subjects import programs
from repro.symexec import execute_program, parse_program

EXACT = programs.SAFETY_MONITOR_EXACT


def run_pipeline(samples: int = 30_000, seed: int = 0):
    with Session() as session:
        query = session.analyze(
            programs.SAFETY_MONITOR,
            programs.SAFETY_MONITOR_EVENT,
            config=QCoralConfig(samples_per_query=samples, seed=seed),
        )
        return query.run()


def generate_table() -> Table:
    table = Table(
        "Section 4.4 — safety monitor (exact probability 0.737848)",
        ("estimate", "std", "abs error"),
    )
    for samples in (1_000, 10_000, 30_000):
        result = run_pipeline(samples=samples, seed=11)
        table.add_row(
            f"qCORAL{{STRAT,PARTCACHE}} @ {samples} samples",
            result.mean,
            result.std,
            abs(result.mean - EXACT),
        )
    return table


class TestSection44Benchmarks:
    def test_symbolic_execution_stage(self, benchmark):
        program = parse_program(programs.SAFETY_MONITOR)
        result = benchmark(lambda: execute_program(program))
        assert result.path_count == 3

    def test_probabilistic_analysis_stage(self, benchmark):
        program = parse_program(programs.SAFETY_MONITOR)
        target = execute_program(program).constraint_set_for(programs.SAFETY_MONITOR_EVENT)
        from repro.core.profiles import UsageProfile

        profile = UsageProfile.uniform(program.input_bounds())

        def run():
            analyzer = QCoralAnalyzer(profile, QCoralConfig(samples_per_query=10_000, seed=5))
            return analyzer.analyze(target)

        result = benchmark(run)
        assert result.mean == pytest.approx(EXACT, abs=0.02)

    def test_estimate_matches_paper(self):
        result = run_pipeline(samples=30_000, seed=13)
        assert result.mean == pytest.approx(EXACT, abs=0.01)
        assert result.std < 0.01


if __name__ == "__main__":
    print(generate_table().render())
