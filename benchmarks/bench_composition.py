"""Per-round composition on ATRIAL's plans: the incidence array against the reference fold.

Every sampling round composes the factor estimates of a constraint set into
one estimate (the product rule inside each path condition, the disjoint sum
across them) and, under Neyman allocation, into one coefficient per factor.
For each ATRIAL assertion this benchmark plans the target constraint set, as
perfbench's many-paths workload does (510, 0 and 2 250 path conditions over
27, 0 and 29 distinct factors), gives every factor a seeded estimate (about a
quarter of them exact), and times one round's composition both ways in the
same process, alternating them, best of ``repeats``:

* **incidence** — :func:`~repro.core.composition.moments`,
  :func:`~repro.core.composition.combined_estimate` and
  :func:`~repro.core.composition.neyman_coefficients` on the plan's
  :class:`~repro.core.composition.Incidence` array;
* **reference** — the per-path-condition loops of
  ``tests/composition_reference.py``.

It records **identical** — the combined mean and variance, every path
condition's estimate and every coefficient equal by ``float.hex`` — and the
reference/incidence **speedup**.  ``benchmarks/check_regression.py`` gates
both: identity unconditionally, the speedup against a fixed floor.

Writes ``benchmarks/BENCH_composition.json``.  Directly runnable::

    PYTHONPATH=src python benchmarks/bench_composition.py --repeats 5
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from typing import Dict, List, Optional

try:
    from benchmarks.conftest import record_bench, repetitions, write_bench_summary
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import record_bench, repetitions, write_bench_summary

# The reference loops live with the tests that hold the incidence array to them.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
import composition_reference as reference

from repro.core.composition import Incidence, combined_estimate, moments, neyman_coefficients, path_condition_moments
from repro.core.estimate import Estimate
from repro.core.qcoral import FactorPlan
from repro.subjects.volcomp_suite import subject_by_name

#: Summary file this benchmark writes (uploaded as a CI artifact).
SUMMARY_FILE = "BENCH_composition.json"

#: Rounds composed per timing sample, so one sample is well above timer noise.
ROUNDS = 20


def seeded_estimates(count: int, seed: int) -> List[Estimate]:
    """One estimate per factor: exact for about a quarter, sampled (n = 20 000) otherwise."""
    rng = random.Random(seed)
    estimates = []
    for _ in range(count):
        probability = rng.random()
        if rng.random() < 0.25:
            estimates.append(Estimate.exact(probability))
        else:
            estimates.append(Estimate(probability, probability * (1.0 - probability) / 20_000))
    return estimates


def incidence_round(incidence: Incidence, estimates: List[Estimate]):
    means, variances = moments(estimates)
    return combined_estimate(incidence, means, variances), neyman_coefficients(incidence, means)


def reference_round(rows, estimates: List[Estimate]):
    return (
        reference.combined_estimate(rows, estimates),
        reference.neyman_coefficients(rows, estimates, range(len(estimates))),
    )


def round_seconds(run) -> float:
    """Mean seconds of one round over :data:`ROUNDS` rounds."""
    started = time.perf_counter()
    for _ in range(ROUNDS):
        run()
    return (time.perf_counter() - started) / ROUNDS


def hexed(estimate: Estimate):
    return estimate.mean.hex(), estimate.variance.hex()


def identical(incidence: Incidence, rows, estimates: List[Estimate]) -> bool:
    """True when every composed quantity equals the reference loops' by ``float.hex``."""
    combined, coefficients = incidence_round(incidence, estimates)
    expected, expected_coefficients = reference_round(rows, estimates)
    means, variances = path_condition_moments(incidence, *moments(estimates))
    composed = [Estimate(mean, variance) for mean, variance in zip(means.tolist(), variances.tolist())]
    return (
        hexed(combined) == hexed(expected)
        and list(map(hexed, composed)) == list(map(hexed, reference.path_condition_estimates(rows, estimates)))
        and [value.hex() for value in coefficients] == [expected_coefficients[f].hex() for f in range(len(estimates))]
    )


def collect_results(repeats: Optional[int] = None) -> Dict:
    """Plan, check and time every ATRIAL assertion, and register the summary."""
    repeats = repeats if repeats is not None else repetitions(default=5, full=20)
    subject = subject_by_name("ATRIAL")
    cases: Dict[str, Dict] = {}
    for number, assertion in enumerate(subject.assertions):
        incidence = FactorPlan(subject.constraint_set(assertion), True).incidence()
        rows = incidence.rows
        estimates = seeded_estimates(incidence.factors, seed=number)
        seconds: Dict[str, List[float]] = {"incidence": [], "reference": []}
        runs = {
            "incidence": lambda: incidence_round(incidence, estimates),
            "reference": lambda: reference_round(rows, estimates),
        }
        for repeat in range(repeats):
            order = ("incidence", "reference") if repeat % 2 == 0 else ("reference", "incidence")
            for kind in order:
                seconds[kind].append(round_seconds(runs[kind]))
        cases[assertion.label] = {
            "rows": len(rows),
            "factors": incidence.factors,
            "occurrences": sum(len(row) for row in rows),
            "incidence_s": min(seconds["incidence"]),
            "reference_s": min(seconds["reference"]),
            "identical": identical(incidence, rows, estimates),
        }
    incidence_s = sum(case["incidence_s"] for case in cases.values())
    reference_s = sum(case["reference_s"] for case in cases.values())
    payload = {
        "repeats": repeats,
        "rounds_per_sample": ROUNDS,
        "cpu_count": os.cpu_count(),
        "cases": cases,
        "rows": sum(case["rows"] for case in cases.values()),
        "incidence_s": incidence_s,
        "reference_s": reference_s,
        "speedup": reference_s / incidence_s,
        "identical": all(case["identical"] for case in cases.values()),
    }
    record_bench("composition", payload, summary=SUMMARY_FILE)
    return payload


class TestCompositionBench:
    def test_identical_and_summary_registered(self):
        payload = collect_results(repeats=1)
        assert payload["identical"]
        assert payload["rows"] == 2760


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=None, help="timing repetitions (best-of)")
    args = parser.parse_args(argv)
    payload = collect_results(repeats=args.repeats)
    print(f"{'assertion':<28} {'rows':>6} {'factors':>8} {'incidence ms':>13} {'reference ms':>13}  identical")
    for label, case in payload["cases"].items():
        print(
            f"{label:<28} {case['rows']:>6} {case['factors']:>8} {case['incidence_s'] * 1e3:>13.3f} "
            f"{case['reference_s'] * 1e3:>13.3f}  {case['identical']}"
        )
    print(f"speedup {payload['speedup']:.1f}x over {payload['rows']} rows, identical: {payload['identical']}")
    path = write_bench_summary(SUMMARY_FILE)
    print(f"summary written to {path}")
    return 0 if payload["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
