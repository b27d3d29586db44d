"""Path-sensitive pruning in symbolic execution, per VolComp assertion.

The symbolic executor carries a box per path — the input domain contracted by
the path's conjuncts so far — and drops a branch outcome as soon as HC4
refutes its conjunct on that box.  The domain-only reference
(``tests/symexec_reference.py``) drops a branch only when its constraint is
infeasible on the whole input domain.  For every Table 3 assertion this
benchmark runs both in the same process and records:

* **paths** — explored paths and target-set size, per executor;
* **subset** — whether the pruned paths and the pruned target set are subsets
  of the reference's (by canonical condition text, events and bound flag);
* **seconds** — best-of-``repeats`` symbolic-execution wall clock, per
  executor, with the two alternating so host drift hits both alike;
* **session** — one cold and one warm ``Session.analyze`` of the assertion
  (seconds each, small budget, in-memory store), and the warm pass's
  ``qcoral_plan_reuse_total``: the session plans each program once, so every
  warm query must take its plan from the session's memo.

``benchmarks/check_regression.py`` gates three hard contracts: no assertion's
path count may grow beyond its committed baseline, the pruned sets must be
subsets of the reference sets, and the warm plan reuse count must equal the
number of warm queries.  Timings are recorded, not gated.

Writes ``benchmarks/BENCH_symexec.json``.  Directly runnable::

    PYTHONPATH=src python benchmarks/bench_symexec.py --repeats 3
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

try:
    from benchmarks.conftest import record_bench, repetitions, write_bench_summary
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import record_bench, repetitions, write_bench_summary

# The domain-only reference executor lives with the tests that hold the
# executor to it.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from symexec_reference import DomainOnlyExecutor

from repro.api import Session
from repro.obs import Observability
from repro.store.backends import open_store
from repro.subjects.volcomp_suite import TARGET_EVENT, all_assertion_cases
from repro.symexec.symbolic import SymbolicExecutionResult, SymbolicExecutor

#: Summary file this benchmark writes (uploaded as a CI artifact).
SUMMARY_FILE = "BENCH_symexec.json"

#: Per-factor budget of the session row's queries: enough to exercise the
#: whole pipeline, small enough that the front end is a visible share.
SESSION_BUDGET = 2000


def rendered(result: SymbolicExecutionResult, target_only: bool = False) -> set:
    """The paths of ``result`` as comparable tuples."""
    return {
        (path.condition.canonical(), path.events, path.hit_bound)
        for path in result.paths
        if not target_only or (path.observed(TARGET_EVENT) and not path.hit_bound)
    }


def timed(executor_class, program, max_depth: int) -> Tuple[float, SymbolicExecutionResult]:
    """Seconds to execute ``program`` with ``executor_class``, and the result."""
    started = time.perf_counter()
    result = executor_class(program, max_depth=max_depth).execute()
    return time.perf_counter() - started, result


def session_row(source: str, max_depth: int) -> Dict:
    """Cold and warm ``Session.analyze`` seconds and the warm pass's plan reuses."""
    hub = Observability()
    row: Dict = {"warm_queries": 1}
    with Session(store=open_store(None, "memory"), observability=hub) as session:
        for phase in ("cold", "warm"):
            reused = hub.snapshot().counter("qcoral_plan_reuse_total")
            started = time.perf_counter()
            session.analyze(source, TARGET_EVENT, max_depth=max_depth).with_budget(SESSION_BUDGET).seed(0).run()
            row[f"{phase}_s"] = time.perf_counter() - started
        row["plan_reuse"] = int(hub.snapshot().counter("qcoral_plan_reuse_total") - reused)
    return row


def collect_results(repeats: Optional[int] = None) -> Dict:
    """Run both executors on every assertion and register the summary."""
    repeats = repeats if repeats is not None else repetitions(default=3, full=10)
    executors = {"pruned": SymbolicExecutor, "reference": DomainOnlyExecutor}
    cases: Dict[str, Dict] = {}
    for subject, assertion in all_assertion_cases():
        program = subject.program(assertion)
        seconds: Dict[str, List[float]] = {kind: [] for kind in executors}
        results: Dict[str, SymbolicExecutionResult] = {}
        for repeat in range(repeats):
            order = ("pruned", "reference") if repeat % 2 == 0 else ("reference", "pruned")
            for kind in order:
                elapsed, results[kind] = timed(executors[kind], program, subject.max_depth)
                seconds[kind].append(elapsed)
        case: Dict = {
            kind: {
                "paths": result.path_count,
                "targets": len(result.constraint_set_for(TARGET_EVENT)),
                "seconds": min(seconds[kind]),
            }
            for kind, result in results.items()
        }
        pruned, reference = results["pruned"], results["reference"]
        case["subset"] = all(
            rendered(pruned, target_only) <= rendered(reference, target_only) for target_only in (False, True)
        )
        case["session"] = session_row(subject.program_source(assertion), subject.max_depth)
        cases[f"{subject.name}: {assertion.label}"] = case
    payload = {
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "cases": cases,
        "paths": {kind: sum(case[kind]["paths"] for case in cases.values()) for kind in executors},
        "seconds": {kind: sum(case[kind]["seconds"] for case in cases.values()) for kind in executors},
    }
    record_bench("symexec", payload, summary=SUMMARY_FILE)
    return payload


class TestSymexecBench:
    def test_pruned_sets_are_subsets_and_summary_registered(self):
        payload = collect_results(repeats=1)
        assert all(case["subset"] for case in payload["cases"].values())
        assert payload["paths"]["pruned"] < payload["paths"]["reference"]
        sessions = [case["session"] for case in payload["cases"].values()]
        assert all(row["plan_reuse"] == row["warm_queries"] for row in sessions)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=None, help="timing repetitions (best-of)")
    args = parser.parse_args(argv)
    payload = collect_results(repeats=args.repeats)
    print(f"{'assertion':<42} {'paths':>13} {'targets':>13} {'seconds':>15}  subset  {'session cold->warm':>18}")
    for label, case in payload["cases"].items():
        pruned, reference, session = case["pruned"], case["reference"], case["session"]
        print(
            f"{label:<42} {reference['paths']:>6}->{pruned['paths']:<6} "
            f"{reference['targets']:>6}->{pruned['targets']:<6} "
            f"{reference['seconds']:>7.3f}->{pruned['seconds']:<7.3f} {str(case['subset']):<6}  "
            f"{session['cold_s']:>8.3f}->{session['warm_s']:<8.3f} (plan reuse {session['plan_reuse']})"
        )
    totals = payload["paths"], payload["seconds"]
    print(
        f"total paths {totals[0]['reference']} -> {totals[0]['pruned']}, "
        f"seconds {totals[1]['reference']:.3f} -> {totals[1]['pruned']:.3f}"
    )
    print(f"summary written to {write_bench_summary(SUMMARY_FILE)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
