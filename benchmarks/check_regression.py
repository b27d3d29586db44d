"""Gate CI on the committed benchmark baselines.

Compares the freshly produced ``benchmarks/BENCH_*.json`` files in the working
tree against the versions committed at ``HEAD`` (the baselines) and fails when
a tracked quality metric regressed by more than the tolerance:

* **σ ratios** (``BENCH_adaptive.json`` / ``BENCH_importance.json``) — lower
  is better; a fresh ratio above ``baseline × 1.2 + 0.05`` fails.  The small
  absolute slack keeps near-zero baselines (subjects the importance engine
  resolves exactly) from turning float noise into a gate failure.
* **warm reuse fractions** (``BENCH_store.json``) — higher is better; a fresh
  fraction below ``baseline × 0.8`` fails.
* **incremental reuse** (``BENCH_incremental.json``) — per edit size the
  reuse fraction gates like the store family and the incremental/cold sample
  ratio must not grow past ``baseline × 1.2 + 0.02``; two hard checks ride
  along — the all-changed run must stay bit-identical to its cold twin, and
  the one-factor edit must draw at most 25% of the cold run's samples.
* **fused-kernel summaries** (``BENCH_kernels.json``) — per-subject hit counts
  must be bit-identical across the closure oracle, in-thread and thread×2
  sampling (unconditional, no tolerance); fused-vs-closure speedups gate against the
  baseline with a loose floor since CI timing is noisy.
* **serving** (``BENCH_serve.json``) — served results must stay bit-identical
  to in-process runs and repeated requests must draw zero samples (both
  unconditional); the warm/cold latency ratio gates against a fixed 0.75
  ceiling.
* **HC4 tape** (``BENCH_icp.json``) — pavings on the flat tape must be
  identical to the recursive reference's (unconditional), and the tape must
  pave at least 3× faster than the reference timed in the same process.
* **symbolic execution** (``BENCH_symexec.json``) — per VolComp assertion,
  the explored path count must not grow beyond its baseline, the pruned
  path and target sets must be subsets of the domain-only reference's, and
  the warm ``Session.analyze`` pass must take every plan from the session's
  memo (reuse count equal to the warm query count; all three hard).  Timings
  are recorded, not gated.
* **composition** (``BENCH_composition.json``) — the incidence-array
  composition must equal the reference per-path-condition loops bit for bit
  on ATRIAL's plans (unconditional), and must compose a round at least
  ``COMPOSITION_SPEEDUP_FLOOR`` times faster than them, timed in the same
  process.

Families whose fresh file was not produced this run, or whose baseline does
not exist at ``HEAD`` yet (a newly introduced family), are skipped with a
notice — a partial benchmark run must not fail the gate spuriously.

Escape hatch: set ``QCORAL_BENCH_ALLOW_REGRESSION=1`` to report regressions
without failing (use when a regression is understood and the baselines are
being re-recorded in the same change).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import List, Optional

#: Relative regression tolerance on σ ratios (lower is better).
SIGMA_RATIO_TOLERANCE = 0.20

#: Absolute slack added on top, so exactly-resolved subjects (ratio ≈ 0)
#: cannot fail on float noise.
SIGMA_RATIO_SLACK = 0.05

#: Relative regression tolerance on reuse fractions (higher is better).
REUSE_FRACTION_TOLERANCE = 0.20

#: Relative tolerance on incremental/cold sample ratios (lower is better),
#: plus a small absolute slack so a 0.0 baseline (the no-op edit) cannot turn
#: float noise into a failure.
SAMPLE_RATIO_TOLERANCE = 0.20
SAMPLE_RATIO_SLACK = 0.02

#: Hard ceiling on the one-factor-edit sample ratio — the acceptance
#: criterion of the incremental engine, gated absolutely like the
#: observability overhead, independent of the committed trajectory.
ONE_EDIT_SAMPLE_RATIO_CEILING = 0.25

#: Relative regression tolerance on fused-kernel speedups (higher is better).
#: Deliberately loose: shared-runner timing noise is large, and the hard
#: bit-identity check below does not depend on timing at all.
KERNEL_SPEEDUP_TOLERANCE = 0.50

#: Hard ceiling on the enabled-mode observability overhead ratio
#: (``BENCH_observability.json``): instrumentation costing more than 5% of
#: the disabled run's wall-clock fails the gate.
OBSERVABILITY_OVERHEAD_CEILING = 1.05

#: Hard ceiling on the served warm/cold latency ratio
#: (``BENCH_serve.json``): a repeated request answered from the store must
#: cost well under a cold sampling run, or the service's economics are gone.
SERVE_WARM_RATIO_CEILING = 0.75

#: Hard floor on the tape/reference HC4 paving speedup (``BENCH_icp.json``).
#: Both trees are timed in one process, so the ratio survives the host drift
#: that absolute times do not.
ICP_SPEEDUP_FLOOR = 3.0

#: Hard floor on the reference/incidence composition speedup
#: (``BENCH_composition.json``), far below the 40–50× a 2-vCPU host measures, so
#: only losing the vectorised pass trips it.
COMPOSITION_SPEEDUP_FLOOR = 10.0

#: Environment variable that downgrades failures to warnings.
OVERRIDE_ENV = "QCORAL_BENCH_ALLOW_REGRESSION"

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPO_DIR = os.path.dirname(_BENCH_DIR)


@dataclass
class Finding:
    """One metric comparison: where it came from and whether it regressed."""

    family: str
    metric: str
    baseline: float
    fresh: float
    regressed: bool

    def render(self) -> str:
        status = "REGRESSED" if self.regressed else "ok"
        return (f"[{status:>9}] {self.family}: {self.metric} " f"baseline={self.baseline:.6f} fresh={self.fresh:.6f}")


def load_fresh(name: str) -> Optional[dict]:
    """The working-tree benchmark summary, or None when this run skipped it."""
    path = os.path.join(_BENCH_DIR, name)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_baseline(name: str) -> Optional[dict]:
    """The summary committed at HEAD, or None for a brand-new family."""
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:benchmarks/{name}"],
            cwd=_REPO_DIR,
            capture_output=True,
            check=True,
            text=True,
        ).stdout
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    try:
        return json.loads(blob)
    except json.JSONDecodeError:
        return None


def compare_sigma_ratios(family: str, baseline: dict, fresh: dict, key: str) -> List[Finding]:
    """Per-subject σ-ratio comparison of one ``{key: {subjects: [...]}}`` summary."""
    findings: List[Finding] = []
    base_rows = {row["subject"]: row for row in baseline.get(key, {}).get("subjects", [])}
    fresh_rows = {row["subject"]: row for row in fresh.get(key, {}).get("subjects", [])}
    for subject, base_row in base_rows.items():
        fresh_row = fresh_rows.get(subject)
        if fresh_row is None:
            continue
        base_ratio = float(base_row["sigma_ratio"])
        fresh_ratio = float(fresh_row["sigma_ratio"])
        ceiling = base_ratio * (1.0 + SIGMA_RATIO_TOLERANCE) + SIGMA_RATIO_SLACK
        findings.append(Finding(family, f"{subject} sigma_ratio", base_ratio, fresh_ratio, fresh_ratio > ceiling))
    return findings


def compare_reuse_fractions(family: str, baseline: dict, fresh: dict) -> List[Finding]:
    """Warm-phase reuse-fraction comparison of the store summary."""
    findings: List[Finding] = []
    for key, base_payload in baseline.items():
        fresh_payload = fresh.get(key)
        if not isinstance(base_payload, dict) or fresh_payload is None:
            continue
        base_warm = base_payload.get("warm", {}).get("reuse_fraction")
        fresh_warm = fresh_payload.get("warm", {}).get("reuse_fraction")
        if base_warm is None or fresh_warm is None:
            continue
        floor = float(base_warm) * (1.0 - REUSE_FRACTION_TOLERANCE)
        findings.append(
            Finding(
                family,
                f"{key} warm reuse_fraction",
                float(base_warm),
                float(fresh_warm),
                float(fresh_warm) < floor,
            )
        )
    return findings


def compare_incremental(family: str, baseline: dict, fresh: dict) -> List[Finding]:
    """Incremental summary: reuse/ratio gate softly, two contracts gate hard.

    ``bit_identical_all_changed`` and the one-edit sample-ratio ceiling are
    properties of the fresh run alone (no tolerance, no baseline needed);
    per-edit reuse fractions and sample ratios gate against the committed
    trajectory with the usual slack.
    """
    findings: List[Finding] = []
    payload = fresh.get("incremental", {})
    if not payload:
        return findings
    bit_identical = bool(payload.get("bit_identical_all_changed"))
    findings.append(Finding(family, "bit_identical_all_changed", 1.0, float(bit_identical), not bit_identical))
    one_edit_ratio = float(payload.get("one_edit_sample_ratio", 1.0))
    findings.append(
        Finding(
            family,
            "one_edit sample_ratio",
            ONE_EDIT_SAMPLE_RATIO_CEILING,
            one_edit_ratio,
            one_edit_ratio > ONE_EDIT_SAMPLE_RATIO_CEILING,
        )
    )
    base_rows = {row["edits"]: row for row in baseline.get("incremental", {}).get("edits", [])}
    for row in payload.get("edits", []):
        base_row = base_rows.get(row["edits"])
        if base_row is None:
            continue
        base_reuse = float(base_row["incremental"].get("reuse_fraction", 0.0))
        fresh_reuse = float(row["incremental"].get("reuse_fraction", 0.0))
        floor = base_reuse * (1.0 - REUSE_FRACTION_TOLERANCE)
        findings.append(
            Finding(family, f"edit{row['edits']} reuse_fraction", base_reuse, fresh_reuse, fresh_reuse < floor)
        )
        base_ratio = float(base_row.get("sample_ratio", 0.0))
        fresh_ratio = float(row.get("sample_ratio", 0.0))
        ceiling = base_ratio * (1.0 + SAMPLE_RATIO_TOLERANCE) + SAMPLE_RATIO_SLACK
        findings.append(
            Finding(family, f"edit{row['edits']} sample_ratio", base_ratio, fresh_ratio, fresh_ratio > ceiling)
        )
    return findings


def compare_kernels(family: str, baseline: dict, fresh: dict) -> List[Finding]:
    """Fused-kernel summary: hit bit-identity is hard, speedups are soft.

    ``hits_match`` compares the fresh run against *itself* (every evaluator/backend
    cell must agree), so it gates unconditionally — a mismatch means the fused
    codegen changed semantics, which no tolerance can excuse.  Speedups are
    compared against the committed baseline with a loose floor because CI
    timing is noisy.
    """
    findings: List[Finding] = []
    fresh_payload = fresh.get("kernels", {})
    base_payload = baseline.get("kernels", {})
    for row in fresh_payload.get("subjects", []):
        findings.append(
            Finding(
                family,
                f"{row['subject']} hits_match",
                1.0,
                float(bool(row.get("hits_match"))),
                not row.get("hits_match"),
            )
        )
    base_rows = {row["subject"]: row for row in base_payload.get("subjects", [])}
    for row in fresh_payload.get("subjects", []):
        base_row = base_rows.get(row["subject"])
        if base_row is None:
            continue
        base_speedup = float(base_row.get("speedups", {}).get("fused_vs_closure_serial", 0.0))
        fresh_speedup = float(row.get("speedups", {}).get("fused_vs_closure_serial", 0.0))
        floor = base_speedup * (1.0 - KERNEL_SPEEDUP_TOLERANCE)
        findings.append(
            Finding(
                family,
                f"{row['subject']} fused_vs_closure_serial",
                base_speedup,
                fresh_speedup,
                fresh_speedup < floor,
            )
        )
    return findings


def compare_observability(family: str, baseline: dict, fresh: dict) -> List[Finding]:
    """Observability summary: bit-identity is hard, overhead gates absolutely.

    ``bit_identical`` compares the fresh run's three modes against each other
    (like the kernel hit check, it needs no baseline and no tolerance).  The
    enabled-mode overhead ratio gates against the fixed
    :data:`OBSERVABILITY_OVERHEAD_CEILING` rather than the committed value:
    the promise is "instrumentation costs at most 5%", not "no slower than
    last time" — the committed baseline documents the trajectory and arms
    this family, it is not the threshold.
    """
    findings: List[Finding] = []
    payload = fresh.get("observability", {})
    if not payload:
        return findings
    bit_identical = bool(payload.get("bit_identical"))
    findings.append(Finding(family, "bit_identical", 1.0, float(bit_identical), not bit_identical))
    ratio = float(payload.get("overhead_ratio", 0.0))
    findings.append(
        Finding(
            family,
            "enabled overhead_ratio",
            OBSERVABILITY_OVERHEAD_CEILING,
            ratio,
            ratio > OBSERVABILITY_OVERHEAD_CEILING,
        )
    )
    return findings


def compare_serve(family: str, baseline: dict, fresh: dict) -> List[Finding]:
    """Serving summary: hard contracts plus an absolute latency ceiling.

    ``bit_identical`` (served == in-process at the same seed) and
    ``warm_zero_samples`` (a repeated request draws nothing) need no
    baseline and no tolerance, nor do the warm reuse counters: every warm
    repeat takes its plan from the session's memo, builds no sampler, and
    after the first decodes no stored paving.  The warm/cold latency ratio
    gates against the fixed :data:`SERVE_WARM_RATIO_CEILING` — the committed baseline
    documents the trajectory, the ceiling is the promise.  Throughput rows
    are recorded but not gated: shared-runner scheduling noise dominates.
    """
    findings: List[Finding] = []
    payload = fresh.get("serve", {})
    if not payload:
        return findings
    bit_identical = bool(payload.get("bit_identical"))
    findings.append(Finding(family, "bit_identical", 1.0, float(bit_identical), not bit_identical))
    warm_zero = bool(payload.get("warm_zero_samples"))
    findings.append(Finding(family, "warm_zero_samples", 1.0, float(warm_zero), not warm_zero))
    # A summary without the counters (-1) fails these gates.
    requests, reused = float(payload.get("warm_requests", 0)), float(payload.get("warm_plan_reuse", -1))
    findings.append(Finding(family, "warm plan reuse", requests, reused, reused != requests))
    for name in ("warm_samplers_built", "warm_paving_decodes_after_first"):
        value = float(payload.get(name, -1))
        findings.append(Finding(family, name, 0.0, value, value != 0.0))
    ratio = float(payload.get("warm_over_cold_ratio", 0.0))
    findings.append(
        Finding(family, "warm_over_cold_ratio", SERVE_WARM_RATIO_CEILING, ratio, ratio > SERVE_WARM_RATIO_CEILING)
    )
    return findings


def compare_icp(family: str, baseline: dict, fresh: dict) -> List[Finding]:
    """HC4 tape summary: identical pavings and the speedup floor, both hard.

    Both are properties of the fresh run alone: the tape and the reference
    pave the same factors in one process.
    """
    findings: List[Finding] = []
    payload = fresh.get("icp", {})
    if not payload:
        return findings
    identical = bool(payload.get("pavings_identical"))
    findings.append(Finding(family, "pavings_identical", 1.0, float(identical), not identical))
    speedup = float(payload.get("speedup", 0.0))
    findings.append(Finding(family, "tape speedup", ICP_SPEEDUP_FLOOR, speedup, speedup < ICP_SPEEDUP_FLOOR))
    return findings


def compare_symexec(family: str, baseline: dict, fresh: dict) -> List[Finding]:
    """Symbolic-execution summary: three hard checks per assertion.

    A path count above the committed one means pruning got weaker; a pruned
    set that is not a subset of the reference's means the executor invented
    a path; a warm plan reuse count below the warm query count means a
    session planned a program again.  Assertions missing from the baseline
    gate only the subset and reuse checks.
    """
    findings: List[Finding] = []
    cases = fresh.get("symexec", {}).get("cases", {})
    baseline_cases = baseline.get("symexec", {}).get("cases", {})
    for label, case in sorted(cases.items()):
        subset = bool(case.get("subset"))
        findings.append(Finding(family, f"{label} subset", 1.0, float(subset), not subset))
        if "session" in case:
            queries, reused = case["session"]["warm_queries"], case["session"]["plan_reuse"]
            findings.append(Finding(family, f"{label} plan reuse", queries, reused, reused != queries))
        if label in baseline_cases:
            paths = int(case["pruned"]["paths"])
            allowed = int(baseline_cases[label]["pruned"]["paths"])
            findings.append(Finding(family, f"{label} paths", allowed, paths, paths > allowed))
    return findings


def compare_composition(family: str, baseline: dict, fresh: dict) -> List[Finding]:
    """Composition summary: bit identity and the speedup floor, both hard.

    Both are properties of the fresh run alone: the incidence array and the
    reference loops compose the same plans in one process.
    """
    findings: List[Finding] = []
    payload = fresh.get("composition", {})
    if not payload:
        return findings
    identical = bool(payload.get("identical"))
    findings.append(Finding(family, "identical", 1.0, float(identical), not identical))
    speedup = float(payload.get("speedup", 0.0))
    findings.append(
        Finding(family, "incidence speedup", COMPOSITION_SPEEDUP_FLOOR, speedup, speedup < COMPOSITION_SPEEDUP_FLOOR)
    )
    return findings


#: Benchmark families and the comparator handling each.
FAMILIES = (
    ("BENCH_adaptive.json", lambda b, f: compare_sigma_ratios("adaptive", b, f, "adaptive_allocation")),
    ("BENCH_importance.json", lambda b, f: compare_sigma_ratios("importance", b, f, "importance")),
    ("BENCH_store.json", lambda b, f: compare_reuse_fractions("store", b, f)),
    ("BENCH_incremental.json", lambda b, f: compare_incremental("incremental", b, f)),
    ("BENCH_kernels.json", lambda b, f: compare_kernels("kernels", b, f)),
    ("BENCH_observability.json", lambda b, f: compare_observability("observability", b, f)),
    ("BENCH_serve.json", lambda b, f: compare_serve("serve", b, f)),
    ("BENCH_icp.json", lambda b, f: compare_icp("icp", b, f)),
    ("BENCH_symexec.json", lambda b, f: compare_symexec("symexec", b, f)),
    ("BENCH_composition.json", lambda b, f: compare_composition("composition", b, f)),
)


def main() -> int:
    findings: List[Finding] = []
    for name, comparator in FAMILIES:
        fresh = load_fresh(name)
        if fresh is None:
            print(f"[   skipped] {name}: not produced by this run")
            continue
        baseline = load_baseline(name)
        if baseline is None:
            print(f"[   skipped] {name}: no committed baseline at HEAD (new family)")
            continue
        findings.extend(comparator(baseline, fresh))

    for finding in findings:
        print(finding.render())

    regressions = [finding for finding in findings if finding.regressed]
    if not regressions:
        print(f"\nbenchmark regression gate: {len(findings)} metrics ok")
        return 0
    if os.environ.get(OVERRIDE_ENV, "") not in ("", "0", "false", "False"):
        print(
            f"\nbenchmark regression gate: {len(regressions)} regression(s) WAIVED "
            f"({OVERRIDE_ENV} is set — re-record the baselines in this change)"
        )
        return 0
    print(
        f"\nbenchmark regression gate: {len(regressions)} regression(s); "
        f"set {OVERRIDE_ENV}=1 to waive while re-recording baselines"
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
