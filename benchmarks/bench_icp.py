"""HC4 on the flat tape against the recursive reference, on real pavings.

ICP paving is most of a cold stratified run on the volcomp subjects, and its
cost is the two HC4 sweeps per constraint per box.  :class:`ConstraintTree`
runs them on a flat tape of float bounds; ``ReferenceTree``
(``tests/hc4_reference.py``) is the recursive walk over node objects with
``Interval`` arithmetic that the tape reproduces bit for bit.  This benchmark paves the distinct factors of VOL,
CART (``count >= 3`` and ``count >= 1``) and INVPEND — the factors
perfbench's paving-heavy workload paves — with each, in the same process:

* **identity** — every paving must be the same with both trees: the same
  boxes (by ``repr``, so signed zeros count), the same inner flags, and the
  same ``boxes_explored``/``contraction_passes``.  The solver's wall-clock
  budget is lifted so only the box budget stops a search;
* **speed** — best-of-``repeats`` seconds to pave every factor, per tree,
  with the two trees alternating so host drift hits both alike;
* **node visits** — the forward and backward node visits of one paving pass,
  counted on the reference's recursive sweeps in an untimed pass, and the
  nanoseconds per visit of each tree.

A ratio taken in one process survives the host drift that absolute times do
not, so ``speedup`` (reference seconds / tape seconds) is what
``benchmarks/check_regression.py`` gates, at ≥3×, next to a hard gate on
identical pavings.

Writes ``benchmarks/BENCH_icp.json``.  Directly runnable::

    PYTHONPATH=src python benchmarks/bench_icp.py --repeats 3
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

try:
    from benchmarks.conftest import record_bench, repetitions, write_bench_summary
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import record_bench, repetitions, write_bench_summary

# The recursive reference walk lives with the tests that hold the tape to it.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
import hc4_reference

from repro.core.qcoral import plan_factors
from repro.icp import hc4, solver
from repro.icp.config import ICPConfig
from repro.icp.solver import ICPSolver, Paving
from repro.intervals.box import Box
from repro.lang import ast
from repro.subjects.volcomp_suite import subject_by_name

#: Summary file this benchmark writes (uploaded as a CI artifact).
SUMMARY_FILE = "BENCH_icp.json"

#: (subject, assertion) pairs whose distinct factors are paved.
CASES = (("VOL", "count >= 20"), ("CART", "count >= 3"), ("CART", "count >= 1"), ("INVPEND", "pAng <= 1"))

#: The paper's ICP settings with the wall-clock stop lifted: a paving that a
#: slow moment cut short would differ between the trees for timing reasons.
CONFIG = ICPConfig(time_budget=1.0e9)

#: One paving job: factor, domain, integer-valued variables.
Job = Tuple[ast.PathCondition, Box, Tuple[str, ...]]


def paving_jobs() -> List[Job]:
    """Every distinct factor of :data:`CASES`, with the domain it is paved over."""
    jobs: List[Job] = []
    for name, label in CASES:
        subject = subject_by_name(name)
        profile = subject.profile()
        _, factors = plan_factors(subject.constraint_set(subject.assertion(label)).path_conditions)
        for factor, variables in factors.values():
            restricted = profile.restrict(variables)
            jobs.append((factor, restricted.domain(), tuple(restricted.discrete_variables())))
    return jobs


def reference_trees(pc: ast.PathCondition) -> Tuple[hc4_reference.ReferenceTree, ...]:
    """:func:`~repro.icp.hc4.constraint_trees` with the recursive reference."""
    return tuple(hc4_reference.ReferenceTree(constraint) for constraint in pc.constraints)


def pave_all(jobs: Sequence[Job], reference: bool) -> Tuple[float, List[Paving]]:
    """Seconds to pave every job, and the pavings, with one kind of tree."""
    icp = ICPSolver(CONFIG)
    trees = reference_trees if reference else hc4.constraint_trees
    with mock.patch.object(solver, "constraint_trees", trees):
        started = time.perf_counter()
        pavings = [icp.pave(pc, domain, integer_variables=integers) for pc, domain, integers in jobs]
        return time.perf_counter() - started, pavings


def fingerprint(paving: Paving) -> Tuple:
    """Everything that must match between the two trees' pavings."""
    boxes = tuple((repr(paved.box), paved.inner) for paved in paving.boxes)
    return boxes, paving.boxes_explored, paving.contraction_passes, paving.time_capped


def count_visits(jobs: Sequence[Job]) -> Dict[str, int]:
    """Forward and backward node visits of one reference paving pass."""
    visits = {"forward": 0, "backward": 0}

    def counted(kind: str, sweep: Callable) -> Callable:
        def visit(*args):
            visits[kind] += 1
            return sweep(*args)

        return visit

    forward = mock.patch.object(hc4_reference, "_forward", counted("forward", hc4_reference._forward))
    backward = mock.patch.object(hc4_reference, "_backward", counted("backward", hc4_reference._backward))
    with forward, backward:
        pave_all(jobs, reference=True)
    return visits


def collect_results(repeats: Optional[int] = None) -> Dict:
    """Pave every job with both trees, best-of-``repeats``, and register the summary."""
    repeats = repeats if repeats is not None else repetitions(default=3, full=10)
    jobs = paving_jobs()
    seconds: Dict[str, List[float]] = {"tape": [], "reference": []}
    fingerprints = set()
    for repeat in range(repeats):
        order = ("tape", "reference") if repeat % 2 == 0 else ("reference", "tape")
        for kind in order:
            elapsed, pavings = pave_all(jobs, reference=kind == "reference")
            seconds[kind].append(elapsed)
            fingerprints.add(tuple(fingerprint(paving) for paving in pavings))
    visits = count_visits(jobs)
    total_visits = visits["forward"] + visits["backward"]
    timings = {
        kind: {"pave_s": min(runs), "ns_per_visit": 1e9 * min(runs) / total_visits, "runs": runs}
        for kind, runs in seconds.items()
    }
    payload = {
        "cases": [f"{name} {label}" for name, label in CASES],
        "factors": len(jobs),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "pavings_identical": len(fingerprints) == 1,
        "boxes_explored": sum(paving.boxes_explored for paving in pavings),
        "contraction_passes": sum(paving.contraction_passes for paving in pavings),
        "node_visits": {"forward": visits["forward"], "backward": visits["backward"], "total": total_visits},
        **timings,
        "speedup": timings["reference"]["pave_s"] / timings["tape"]["pave_s"],
    }
    record_bench("icp", payload, summary=SUMMARY_FILE)
    return payload


class TestICPBench:
    def test_pavings_identical_and_summary_registered(self):
        payload = collect_results(repeats=1)
        assert payload["pavings_identical"], "the tape paved a factor differently from the reference"
        assert payload["node_visits"]["total"] > 0

    # The ≥3× speedup gates in check_regression.py, where the waiver escape
    # hatch lives; asserting it here too would double-report the same noise.


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=None, help="timing repetitions (best-of)")
    args = parser.parse_args(argv)
    payload = collect_results(repeats=args.repeats)
    visits = payload["node_visits"]
    print(
        f"{payload['factors']} factors, {payload['boxes_explored']} boxes explored, "
        f"{payload['contraction_passes']} contraction passes, "
        f"{visits['forward']} forward + {visits['backward']} backward node visits"
    )
    for kind in ("tape", "reference"):
        row = payload[kind]
        print(f"{kind:>9}: {row['pave_s']:.3f}s ({row['ns_per_visit']:.0f} ns/visit)")
    print(f"speedup x{payload['speedup']:.2f}; pavings identical: {payload['pavings_identical']}")
    print(f"summary written to {write_bench_summary(SUMMARY_FILE)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
