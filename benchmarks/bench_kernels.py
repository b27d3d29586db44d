"""Throughput of the fused constraint kernels on the volcomp suite.

The fused-kernel compiler (:mod:`repro.lang.kernel`) lowers each path
condition into one generated NumPy function; the claim is (a) it is never
*semantically* different from the closure-tree oracle — fixed-seed hit counts
must be bit-identical on every subject, evaluator, and worker count — and
(b) it is faster wherever predicate evaluation, not RNG sampling, dominates.
This benchmark measures both on real volcomp workloads:

* **throughput** — samples/sec per subject for the fused kernels in the
  calling thread and on a pool of two threads, and for the closure oracle in
  the calling thread, at an identical seeded budget;
* **bit-identity** — the per-subject hit total must be one number across
  every (evaluator, backend) cell of the sweep.

ATRIAL is the stress subject: ~1700 distinct path conditions per assertion
exercise the kernel cache itself, not just the generated code.  Subjects
whose cost is dominated by profile sampling (many variables, few operations
per constraint) honestly show parity rather than speedup; the summary records
them as such.

Writes ``benchmarks/BENCH_kernels.json``.  Directly runnable::

    PYTHONPATH=src python benchmarks/bench_kernels.py --budget 100000
"""

from __future__ import annotations

import argparse
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

try:
    from benchmarks.conftest import FULL_SCALE, record_bench, write_bench_summary
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import FULL_SCALE, record_bench, write_bench_summary
from repro.analysis.results import Table
from repro.core.montecarlo import hit_or_miss
from repro.exec import plan_chunks, run_sampling_tasks
from repro.lang.compiler import compile_path_condition
from repro.lang.kernel import clear_kernel_cache, get_kernel
from repro.subjects.volcomp_suite import subject_by_name

#: Summary file this benchmark writes (uploaded as a CI artifact).
SUMMARY_FILE = "BENCH_kernels.json"

#: Volcomp subjects swept: ATRIAL stresses the kernel cache (~1700 path
#: conditions), VOL is evaluation-bound (deep trig constraints), CORONARY and
#: EGFR EPI are sampling-bound parity checks.
SUBJECTS = ("ATRIAL", "CORONARY", "EGFR EPI", "VOL")

#: Per-path-condition sampling budget.
BUDGET = 1_000_000 if FULL_SCALE else 100_000

#: Backends swept: (label, pool workers); None runs in the calling thread.
BACKENDS: Tuple[Tuple[str, Optional[int]], ...] = (
    ("serial", None),
    ("thread", 2),
)

#: Evaluators swept: the closure-tree oracle and the fused kernels.
EVALUATORS = ("closure", "fused")

#: Samples per sampling task (2 chunks per PC at reduced scale).
CHUNK = 50_000

#: Base seed; path condition ``i`` always samples from ``SEED + i``.
SEED = 9000


def _noop(value):
    return value


def _tasks(pc, profile, budget: int, index: int):
    """Path condition ``index``'s keyed chunk plan (one stratum, offset 0)."""
    names = tuple(sorted(pc.free_variables()))
    return plan_chunks(pc, profile, names, budget, np.random.SeedSequence(SEED + index), 0, 0, CHUNK)


def _closure_hits(tasks, predicate) -> int:
    """The plan's chunks run in-thread, evaluated by the closure oracle.

    Same chunks, same keyed seeds, same draw order as
    :func:`repro.exec.run_sampling_tasks` — only the predicate differs, so
    the hit total must match the fused run exactly.
    """
    hits = 0
    for task in tasks:
        rng = np.random.default_rng(task.seed)
        result = hit_or_miss(task.pc, task.profile, task.samples, rng, variables=task.variables, predicate=predicate)
        hits += result.hits
    return hits


def run_subject_once(name: str, evaluator: str, workers: Optional[int], budget: int) -> Tuple[int, float]:
    """One timed sweep over every path condition of a subject's first assertion.

    Returns ``(total_hits, seconds)``.  Predicate compilation is warmed
    outside the timed region (compilation is once-per-deployment, throughput
    is what recurs).  The closure oracle runs in the calling thread only.
    """
    subject = subject_by_name(name)
    constraint_set = subject.constraint_set(subject.assertions[0])
    profile = subject.profile()

    clear_kernel_cache()
    if evaluator == "closure":
        predicates = [compile_path_condition(pc) for pc in constraint_set.path_conditions]
        started = time.perf_counter()
        hits = sum(
            _closure_hits(_tasks(pc, profile, budget, index), predicate)
            for index, (pc, predicate) in enumerate(zip(constraint_set.path_conditions, predicates))
        )
        return hits, time.perf_counter() - started

    for pc in constraint_set.path_conditions:
        get_kernel(pc)
    pool = ThreadPoolExecutor(workers) if workers is not None else None
    try:
        if pool is not None:
            list(pool.map(_noop, range(workers)))
        hits = 0
        started = time.perf_counter()
        for index, pc in enumerate(constraint_set.path_conditions):
            counts = run_sampling_tasks(pool, _tasks(pc, profile, budget, index))
            hits += sum(chunk_hits for chunk_hits, _ in counts)
        elapsed = time.perf_counter() - started
    finally:
        if pool is not None:
            pool.shutdown()
    return hits, elapsed


def _cells(backends):
    """The (evaluator, backend) cells swept: closure serially, fused everywhere."""
    cells = [("closure", "serial", None)] if any(label == "serial" for label, _ in backends) else []
    return cells + [("fused", label, workers) for label, workers in backends]


def bench_subject(name: str, budget: int, repeats: int, backends=BACKENDS) -> Dict:
    """Full (evaluator × backend) sweep of one subject, with the bit-identity check."""
    subject = subject_by_name(name)
    path_conditions = len(subject.constraint_set(subject.assertions[0]).path_conditions)
    total_samples = budget * path_conditions

    runs: List[Dict] = []
    for evaluator, label, workers in _cells(backends):
        times: List[float] = []
        hits = None
        for _ in range(repeats):
            hits, elapsed = run_subject_once(name, evaluator, workers, budget)
            times.append(elapsed)
        seconds = min(times)
        runs.append(
            {
                "evaluator": evaluator,
                "backend": label,
                "workers": workers,
                "seconds": seconds,
                "seconds_all": times,
                "samples_per_second": total_samples / seconds if seconds > 0 else 0.0,
                "hits": hits,
            }
        )

    hit_values = {run["hits"] for run in runs}
    by_cell = {(run["evaluator"], run["backend"]): run for run in runs}
    speedups = {}
    if ("closure", "serial") in by_cell and by_cell[("fused", "serial")]["seconds"] > 0:
        speedups["fused_vs_closure_serial"] = (
            by_cell[("closure", "serial")]["seconds"] / by_cell[("fused", "serial")]["seconds"]
        )
    return {
        "subject": name,
        "path_conditions": path_conditions,
        "budget_per_pc": budget,
        "total_samples": total_samples,
        "runs": runs,
        "hits": runs[0]["hits"],
        "hits_match": len(hit_values) == 1,
        "speedups": speedups,
    }


def collect_results(budget: int = BUDGET, repeats: int = 2, subjects=SUBJECTS, backends=BACKENDS) -> Dict:
    """Sweep every subject and register the machine-readable summary."""
    rows = [bench_subject(name, budget, repeats, backends=backends) for name in subjects]
    payload = {
        "budget_per_pc": budget,
        "chunk_size": CHUNK,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "evaluators": list(EVALUATORS),
        "backends": [label for label, _ in backends],
        "subjects": rows,
        "all_hits_match": all(row["hits_match"] for row in rows),
        "max_speedup_fused": max(
            speedup for row in rows for speedup in row["speedups"].values()
        ),
    }
    record_bench("kernels", payload, summary=SUMMARY_FILE)
    return payload


def generate_table(payload: Dict) -> Table:
    table = Table(
        f"Fused-kernel throughput at {payload['budget_per_pc']} samples/PC "
        f"({payload['cpu_count']} CPUs; Msamples/s)",
        ("closure serial", "fused serial", "fused thread×2", "speedup serial", "hits match"),
    )
    for row in payload["subjects"]:
        by_cell = {(run["evaluator"], run["backend"]): run for run in row["runs"]}
        table.add_row(
            row["subject"],
            by_cell[("closure", "serial")]["samples_per_second"] / 1e6,
            by_cell[("fused", "serial")]["samples_per_second"] / 1e6,
            by_cell[("fused", "thread")]["samples_per_second"] / 1e6,
            row["speedups"]["fused_vs_closure_serial"],
            float(row["hits_match"]),
        )
    return table


class TestKernelBench:
    #: Reduced budget for the pytest path (CI-friendly).
    TEST_BUDGET = 20_000

    #: CI sweeps the cheap subjects; ATRIAL's 1700 PCs stay in the full run.
    TEST_SUBJECTS = ("CORONARY", "VOL")

    @pytest.mark.parametrize("name", list(TEST_SUBJECTS))
    def test_hits_bit_identical_across_evaluators_and_backends(self, name):
        row = bench_subject(name, self.TEST_BUDGET, repeats=1)
        assert row["hits_match"], {
            (run["evaluator"], run["backend"]): run["hits"] for run in row["runs"]
        }

    def test_summary_registered(self):
        payload = collect_results(budget=self.TEST_BUDGET, repeats=1, subjects=self.TEST_SUBJECTS)
        assert payload["all_hits_match"]
        assert len(payload["subjects"]) == len(self.TEST_SUBJECTS)

    @pytest.mark.skipif(not FULL_SCALE, reason="perf threshold is opt-in (QCORAL_BENCH_FULL=1)")
    def test_fused_beats_closure_somewhere(self):
        """Wall-clock threshold — opt-in so shared-runner noise can't fail CI."""
        payload = collect_results(budget=BUDGET, repeats=2)
        assert payload["max_speedup_fused"] >= 1.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=BUDGET, help="samples per path condition")
    parser.add_argument("--repeats", type=int, default=2, help="timing repetitions (best-of)")
    parser.add_argument("--subjects", nargs="*", default=list(SUBJECTS), help="volcomp subjects to sweep")
    args = parser.parse_args(argv)

    payload = collect_results(budget=args.budget, repeats=args.repeats, subjects=tuple(args.subjects))
    print(generate_table(payload).render())
    print(f"\nall hits match: {payload['all_hits_match']}; max fused speedup {payload['max_speedup_fused']:.2f}x")
    print(f"summary written to {write_bench_summary(SUMMARY_FILE)}")
    if not FULL_SCALE:
        print("(reduced mode: set QCORAL_BENCH_FULL=1 for the paper-scale sweep)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
