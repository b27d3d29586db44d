"""Parallel scaling of the sampling stack on the Table 2 microbenchmarks.

The estimator is embarrassingly parallel: hit-or-miss chunks over disjoint
strata are independent and merge exactly (their integer hit and draw counts
add), so a pool of sampling threads may convert worker count
into wall-clock speedup, but must leave the *estimate itself untouched*.
This benchmark measures both halves of that claim on the paper's Table 2
workload:

* **scaling** — one worker (the calling thread) vs a thread pool of 2 and 4
  workers at an identical sampling budget;
* **determinism** — the estimate and variance at a fixed master seed must be
  bit-identical at every worker count measured.

Speedup is hardware-bound (and GIL-bound where NumPy holds the lock): on a
single-core machine more threads can only add overhead, so the JSON summary
records ``cpu_count`` alongside the timings and the speedup assertion is
gated on having the cores to scale to.

Writes ``benchmarks/BENCH_parallel.json``.  Directly runnable::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --workers 2
"""

from __future__ import annotations

import argparse
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

import pytest

try:
    from benchmarks.conftest import FULL_SCALE, record_bench, write_bench_summary
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import FULL_SCALE, record_bench, write_bench_summary
from repro.analysis.results import Table
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig
from repro.subjects.solids import solid_by_name

#: Summary file this benchmark writes (uploaded as a CI artifact).
SUMMARY_FILE = "BENCH_parallel.json"

#: Table-2 subjects whose pavings leave real sampling work (Cube is exact).
SUBJECTS = ("Sphere", "Torus", "Icosahedron")

#: Per-factor sampling budget: large enough that per-chunk compute dominates
#: pool dispatch overhead (paper scale when QCORAL_BENCH_FULL=1).
BUDGET = 2_000_000 if FULL_SCALE else 400_000

#: Worker counts swept (1: the calling thread, no pool).
WORKER_COUNTS = (1, 2, 4)

#: Fixed master seed of the determinism cross-check.
SEED = 77

#: Chunk size: BUDGET/chunk tasks per round, enough to feed 4 workers while
#: keeping per-task compute well above pool dispatch overhead.
CHUNK = 50_000


def _noop(value):
    return value


def run_once(name: str, workers: int, budget: int = BUDGET, seed: int = SEED):
    """One timed analysis of one solid at one worker count; returns (result, seconds).

    The thread pool is created and warmed *outside* the timed region: pool
    start-up is a once-per-session cost, while the benchmark measures the
    steady-state throughput a long-lived session would see.
    """
    solid = solid_by_name(name)
    config = QCoralConfig(samples_per_query=budget, seed=seed, chunk_size=CHUNK)
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        if pool is not None:
            list(pool.map(_noop, range(workers)))
        analyzer = QCoralAnalyzer(solid.profile(), config, pool=pool)
        started = time.perf_counter()
        result = analyzer.analyze(solid.constraint_set())
        elapsed = time.perf_counter() - started
    finally:
        if pool is not None:
            pool.shutdown()
    return result, elapsed


def _best_of(name: str, workers: int, budget: int, repeats: int) -> Dict:
    """Best-of-N timing (min wall-clock) plus the (identical) estimates."""
    times: List[float] = []
    result = None
    for _ in range(repeats):
        result, elapsed = run_once(name, workers, budget=budget)
        times.append(elapsed)
    return {
        "workers": workers,
        "seconds": min(times),
        "seconds_all": times,
        "mean": result.mean,
        "variance": result.variance,
        "samples": result.total_samples,
    }


def collect_results(budget: int = BUDGET, repeats: int = 2) -> Dict:
    """Scaling sweep + determinism cross-check, registered for the JSON dump."""
    subjects = []
    for name in SUBJECTS:
        runs = [_best_of(name, workers, budget, repeats) for workers in WORKER_COUNTS]
        serial = runs[0]
        reference = (serial["mean"], serial["variance"], serial["samples"])
        deterministic = all((run["mean"], run["variance"], run["samples"]) == reference for run in runs)
        speedups = {
            f"workers_x{run['workers']}": serial["seconds"] / run["seconds"]
            for run in runs[1:]
            if run["seconds"] > 0
        }
        subjects.append(
            {
                "subject": name,
                "budget": budget,
                "runs": runs,
                "speedups": speedups,
                "deterministic": deterministic,
            }
        )

    payload = {
        "budget": budget,
        "chunk_size": CHUNK,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "worker_counts": list(WORKER_COUNTS),
        "subjects": subjects,
        "all_deterministic": all(row["deterministic"] for row in subjects),
        "speedup_workers_x4": statistics.fmean(row["speedups"].get("workers_x4", 0.0) for row in subjects),
    }
    record_bench("parallel_scaling", payload, summary=SUMMARY_FILE)
    return payload


def generate_table(payload: Dict) -> Table:
    table = Table(
        f"Parallel scaling at {payload['budget']} samples ({payload['cpu_count']} CPUs)",
        ("1 worker s", "2 workers s", "4 workers s", "speedup×4", "deterministic"),
    )
    for row in payload["subjects"]:
        by_workers = {run["workers"]: run for run in row["runs"]}
        table.add_row(
            row["subject"],
            by_workers[1]["seconds"],
            by_workers[2]["seconds"],
            by_workers[4]["seconds"],
            row["speedups"].get("workers_x4", float("nan")),
            float(row["deterministic"]),
        )
    return table


class TestParallelScaling:
    #: Reduced budget for the pytest path (CI-friendly).
    TEST_BUDGET = 50_000

    @pytest.mark.parametrize("name", ["Sphere", "Torus"])
    def test_backends_bit_identical_on_table2_workload(self, name):
        serial, _ = run_once(name, 1, budget=self.TEST_BUDGET)
        for workers in (2, 3, 4):
            parallel, _ = run_once(name, workers, budget=self.TEST_BUDGET)
            assert parallel.mean == serial.mean
            assert parallel.variance == serial.variance
            assert parallel.total_samples == serial.total_samples

    def test_summary_registered(self):
        payload = collect_results(budget=self.TEST_BUDGET, repeats=1)
        assert payload["all_deterministic"]
        assert len(payload["subjects"]) == len(SUBJECTS)

    @pytest.mark.skipif(
        not FULL_SCALE or (os.cpu_count() or 1) < 4,
        reason="perf threshold is opt-in (QCORAL_BENCH_FULL=1) and needs >= 4 cores",
    )
    def test_speedup_at_four_workers(self):
        """Wall-clock threshold — opt-in so shared-runner noise can't fail CI."""
        payload = collect_results(budget=BUDGET, repeats=2)
        assert payload["speedup_workers_x4"] >= 1.8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=BUDGET, help="samples per subject")
    parser.add_argument("--repeats", type=int, default=2, help="timing repetitions (best-of)")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="additionally time one specific worker count",
    )
    args = parser.parse_args(argv)

    payload = collect_results(budget=args.budget, repeats=args.repeats)
    print(generate_table(payload).render())
    if args.workers is not None:
        extra, elapsed = run_once(SUBJECTS[0], args.workers, budget=args.budget)
        print(f"\nrequested {args.workers} worker(s) on {SUBJECTS[0]}: {elapsed:.2f}s ({extra!r})")
    print(f"\nsummary written to {write_bench_summary(SUMMARY_FILE)}")
    if not FULL_SCALE:
        print("(reduced mode: set QCORAL_BENCH_FULL=1 for the paper-scale sweep)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
