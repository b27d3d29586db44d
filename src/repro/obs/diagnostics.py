"""Run-health diagnostics: a deterministic pass from telemetry to verdicts.

PR 7 built the raw observability plumbing (spans, metrics, exporters); this
module turns one finished run's data into structured :class:`Diagnostic`
records a human — or CI — can act on.  The checks mirror the statistical
assumptions the qCORAL estimator relies on:

* **Convergence trajectory** — the reported σ should shrink like 1/√n as
  rounds accumulate samples.  A realized σ far above that ideal means the
  adaptive allocator is fighting heavy-tailed strata (``CONVERGENCE_DEGRADED``)
  rather than converging (``CONVERGENCE_OK``); when ``target_std`` is set but
  unmet, ``TARGET_SHORTFALL`` projects how many more samples/rounds the 1/√n
  law predicts.
* **Estimate consistency** — intermediate round means should stay within a
  few reported σ of the final mean; a violation (``SIGMA_INCONSISTENT``)
  suggests the variance estimate undershot the realized scatter.
* **Range** — a probability lies in [0, 1], but composing sampled factors
  can carry the mean past either end; the answer is reported as computed,
  never clamped, and ``MEAN_OUT_OF_RANGE`` says so.
* **Importance-weight degeneracy** — the self-normalised importance
  estimator's effective sample size (``ESS = M² / Σ m_i²/n_i`` over sampled
  strata of mass ``m_i`` with ``n_i`` draws) collapses when allocation
  diverges from the mass profile; ``ESS_DEGENERATE`` fires below a ratio
  floor.
* **Starvation** — the Laplace σ floor is supposed to keep every factor and
  stratum in the allocation race; zero-allocation streaks
  (``FACTOR_STARVED`` / ``STRATUM_STARVED``) mean the budget-per-round is too
  small for the paving.
* **Discard burn** — adaptive paving splits throw away the samples drawn in
  the parent box; ``DISCARD_BURN`` flags runs that spent a large fraction of
  their budget on discarded draws.
* **Time-capped paving** — ICP stops on its wall-clock budget as a last
  resort, which makes a paving depend on machine load; a run that paved any
  factor under that cap gets ``PAVING_TIME_CAPPED`` (``timing=True``).
* **Truncated exploration** — a program run whose symbolic execution stopped
  at ``max_paths`` leaves the unexplored paths out of the estimate
  (``SYMEXEC_TRUNCATED``).
* **Wall-clock attribution** — from the run's span histograms: paving vs
  sampling vs kernel compile vs store I/O (``WALL_CLOCK_ATTRIBUTION``), and
  ``OVERHEAD_DOMINANT`` when non-sampling overhead exceeds sampling time.

Determinism contract: every check except the wall-clock ones is a pure
function of values that are themselves bit-identical across worker counts and
with observability on or off (round reports, sample counts, streak counters).
Those records carry ``timing=False`` and are byte-identical for a fixed seed.
Wall-clock records (``timing=True``) depend on a :class:`MetricsSnapshot`
and on real clocks; consumers comparing runs must filter them out first
(:func:`deterministic_diagnostics` does exactly that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsSnapshot

#: ESS/n floor below which self-normalised importance weights count as
#: degenerate (1.0 = allocation perfectly proportional to stratum mass).
ESS_RATIO_FLOOR = 0.5

#: Consecutive zero-allocation rounds before a factor/stratum counts as
#: starved.  Streaks shorter than this are normal largest-remainder jitter.
STARVATION_STREAK = 3

#: Ceiling on realized-σ over 1/√n-ideal-σ before convergence counts as
#: degraded.
CONVERGENCE_RATIO_CEILING = 2.0

#: Fraction of the drawn budget thrown away by adaptive splits before the
#: burn rate is flagged.
DISCARD_BURN_CEILING = 0.25

#: Fraction of attributable wall-clock spent outside sampling rounds before
#: a run counts as overhead-dominated.
OVERHEAD_FRACTION_CEILING = 0.5

#: How many reported σ an intermediate round mean may sit from the final
#: mean before the variance estimate counts as inconsistent.
SIGMA_DRIFT_SIGMAS = 4.0

#: Severity levels, mildest first.
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Diagnostic:
    """One structured run-health verdict.

    ``evidence`` is a tuple of ``(key, value)`` pairs sorted by key, holding
    only JSON-representable values, so two equal diagnostics serialise to
    byte-identical JSON.  ``timing`` marks records derived from wall clocks,
    which are excluded from the fixed-seed bit-identity contract.
    """

    severity: str
    code: str
    message: str
    evidence: Tuple[Tuple[str, Any], ...] = ()
    timing: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (evidence becomes a key-sorted mapping)."""
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "evidence": dict(self.evidence),
            "timing": self.timing,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Diagnostic":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad payloads."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"malformed diagnostic: expected a mapping, got {type(payload).__name__}")
        for key in ("severity", "code", "message"):
            if not isinstance(payload.get(key), str):
                raise ValueError(f"malformed diagnostic: missing or non-string {key!r}")
        severity = payload["severity"]
        if severity not in SEVERITIES:
            raise ValueError(f"malformed diagnostic: unknown severity {severity!r}")
        evidence = payload.get("evidence", {})
        if not isinstance(evidence, Mapping):
            raise ValueError("malformed diagnostic: 'evidence' must be a mapping")
        return cls(
            severity=severity,
            code=payload["code"],
            message=payload["message"],
            evidence=tuple(sorted(evidence.items())),
            timing=bool(payload.get("timing", False)),
        )


@dataclass(frozen=True)
class StratumHealth:
    """Per-stratum inputs to the starvation check (one paving box)."""

    weight: float
    samples: int
    hits: int
    sampleable: bool
    zero_allocation_streak: int


@dataclass(frozen=True)
class FactorHealth:
    """Per-factor inputs to the diagnostics pass.

    ``index`` matches the ``factor=<i>`` label on the run's
    ``qcoral_factor_*`` metrics (position among the sampleable factors).
    ``effective_sample_size`` is ``None`` for factors without a stratified
    sampler; the degeneracy check only applies to ``method == "importance"``.
    """

    index: int
    method: str
    samples: int
    mean: float
    std: float
    zero_share_streak: int = 0
    discarded_samples: int = 0
    effective_sample_size: Optional[float] = None
    strata: Tuple[StratumHealth, ...] = ()
    paving_time_capped: bool = False


def _diag(
    severity: str,
    code: str,
    message: str,
    *,
    timing: bool = False,
    **evidence: Any,
) -> Diagnostic:
    return Diagnostic(
        severity=severity,
        code=code,
        message=message,
        evidence=tuple(sorted(evidence.items())),
        timing=timing,
    )


def _convergence_checks(
    round_reports: Sequence[Any],
    target_std: Optional[float],
) -> List[Diagnostic]:
    """σ-vs-round trajectory against the 1/√n ideal, plus target projection."""
    if not round_reports:
        return []
    first, last = round_reports[0], round_reports[-1]
    final_std = last.estimate.std
    final_samples = last.total_samples
    ratio: Optional[float] = None
    if len(round_reports) >= 2 and first.estimate.std > 0.0 and first.total_samples > 0 and final_samples > 0:
        ideal = first.estimate.std * math.sqrt(first.total_samples / final_samples)
        if ideal > 0.0:
            ratio = final_std / ideal
    diagnostics: List[Diagnostic] = []
    if ratio is not None and ratio > CONVERGENCE_RATIO_CEILING:
        diagnostics.append(
            _diag(
                "warning",
                "CONVERGENCE_DEGRADED",
                f"realized sigma is {ratio:.2f}x the 1/sqrt(n) ideal after {len(round_reports)} rounds",
                rounds=len(round_reports),
                final_std=final_std,
                total_samples=final_samples,
                sigma_over_ideal=ratio,
            )
        )
    else:
        diagnostics.append(
            _diag(
                "info",
                "CONVERGENCE_OK",
                f"sigma {final_std:.3g} after {len(round_reports)} rounds tracks the 1/sqrt(n) ideal",
                rounds=len(round_reports),
                final_std=final_std,
                total_samples=final_samples,
                sigma_over_ideal=ratio,
            )
        )
    if target_std is not None and final_std > target_std and final_samples > 0:
        # 1/sqrt(n) law: reaching target_std needs n * (sigma/target)^2 total
        # samples; pace extrapolates at the run's mean allocation per round.
        needed_total = math.ceil(final_samples * (final_std / target_std) ** 2)
        additional = max(0, needed_total - final_samples)
        pace = final_samples / len(round_reports)
        predicted_rounds = math.ceil(additional / pace) if pace > 0 else None
        diagnostics.append(
            _diag(
                "warning",
                "TARGET_SHORTFALL",
                (
                    f"target_std {target_std:.3g} unmet (sigma {final_std:.3g}); "
                    f"~{additional} more samples predicted"
                ),
                target_std=target_std,
                final_std=final_std,
                additional_samples=additional,
                predicted_rounds=predicted_rounds,
            )
        )
    return diagnostics


def _sigma_consistency_check(round_reports: Sequence[Any]) -> List[Diagnostic]:
    """Flag intermediate means sitting many reported σ from the final mean."""
    if len(round_reports) < 2:
        return []
    final_mean = round_reports[-1].estimate.mean
    worst: Optional[Tuple[float, Any]] = None
    for report in round_reports[:-1]:
        std = report.estimate.std
        if std <= 0.0:
            continue
        sigmas = abs(report.estimate.mean - final_mean) / std
        if sigmas > SIGMA_DRIFT_SIGMAS and (worst is None or sigmas > worst[0]):
            worst = (sigmas, report)
    if worst is None:
        return []
    sigmas, report = worst
    return [
        _diag(
            "warning",
            "SIGMA_INCONSISTENT",
            (
                f"round {report.round_index} mean sat {sigmas:.1f} of its reported sigma "
                f"from the final mean — variance may be underestimated"
            ),
            round_index=report.round_index,
            round_mean=report.estimate.mean,
            final_mean=final_mean,
            sigmas=sigmas,
        )
    ]


def _range_check(estimate: Optional[Any]) -> List[Diagnostic]:
    """Flag a final mean outside [0, 1]; it is reported as computed, never clamped."""
    if estimate is None or 0.0 <= estimate.mean <= 1.0:
        return []
    return [
        _diag(
            "warning",
            "MEAN_OUT_OF_RANGE",
            (
                f"the estimated probability {estimate.mean:.6g} (sigma {estimate.std:.3g}) lies outside [0, 1] "
                f"and is reported unclamped"
            ),
            mean=estimate.mean,
            std=estimate.std,
        )
    ]


def _factor_checks(factors: Sequence[FactorHealth]) -> List[Diagnostic]:
    """Per-factor checks in index order: ESS, starvation, discard burn."""
    diagnostics: List[Diagnostic] = []
    for factor in factors:
        if (
            factor.method == "importance"
            and factor.effective_sample_size is not None
            and factor.samples > 0
        ):
            ess_ratio = factor.effective_sample_size / factor.samples
            if ess_ratio < ESS_RATIO_FLOOR:
                diagnostics.append(
                    _diag(
                        "warning",
                        "ESS_DEGENERATE",
                        (
                            f"factor {factor.index}: importance weights degenerate "
                            f"(ESS/n = {ess_ratio:.3f} < {ESS_RATIO_FLOOR})"
                        ),
                        factor=factor.index,
                        effective_sample_size=factor.effective_sample_size,
                        samples=factor.samples,
                        ess_ratio=ess_ratio,
                    )
                )
        if factor.zero_share_streak >= STARVATION_STREAK:
            diagnostics.append(
                _diag(
                    "warning",
                    "FACTOR_STARVED",
                    (
                        f"factor {factor.index}: {factor.zero_share_streak} consecutive rounds "
                        f"with zero allocated samples despite the Laplace sigma floor"
                    ),
                    factor=factor.index,
                    zero_share_streak=factor.zero_share_streak,
                )
            )
        starved = [s for s in factor.strata if s.sampleable and s.zero_allocation_streak >= STARVATION_STREAK]
        if starved:
            worst = max(starved, key=lambda s: s.zero_allocation_streak)
            diagnostics.append(
                _diag(
                    "warning",
                    "STRATUM_STARVED",
                    (
                        f"factor {factor.index}: {len(starved)} of {len(factor.strata)} strata starved "
                        f"(worst streak {worst.zero_allocation_streak} rounds, mass {worst.weight:.3g})"
                    ),
                    factor=factor.index,
                    starved_strata=len(starved),
                    total_strata=len(factor.strata),
                    worst_streak=worst.zero_allocation_streak,
                    worst_weight=worst.weight,
                )
            )
        drawn = factor.samples + factor.discarded_samples
        if factor.discarded_samples > 0 and drawn > 0:
            burn = factor.discarded_samples / drawn
            if burn > DISCARD_BURN_CEILING:
                diagnostics.append(
                    _diag(
                        "warning",
                        "DISCARD_BURN",
                        (
                            f"factor {factor.index}: adaptive splits discarded "
                            f"{burn:.0%} of {drawn} drawn samples"
                        ),
                        factor=factor.index,
                        discarded_samples=factor.discarded_samples,
                        drawn_samples=drawn,
                        burn_rate=burn,
                    )
                )
    return diagnostics


def _paving_check(factors: Sequence[FactorHealth]) -> List[Diagnostic]:
    """One warning naming every factor whose ICP paving hit the wall-clock cap."""
    capped = tuple(factor.index for factor in factors if factor.paving_time_capped)
    if not capped:
        return []
    return [
        _diag(
            "warning",
            "PAVING_TIME_CAPPED",
            (
                f"ICP stopped on its time budget while paving {len(capped)} factor(s) "
                f"{list(capped)}; their pavings depend on machine load"
            ),
            timing=True,
            capped_factors=len(capped),
            factors=",".join(str(index) for index in capped),
        )
    ]


def _histogram_seconds(metrics: MetricsSnapshot, name: str) -> float:
    """Total observed seconds across every label set of one histogram."""
    return sum(hist.total for (metric, _), hist in metrics.histograms.items() if metric == name)


def _timing_checks(metrics: MetricsSnapshot) -> List[Diagnostic]:
    """Wall-clock attribution from span histograms (``timing=True`` records)."""
    rounds_seconds = _histogram_seconds(metrics, "qcoral_round_seconds")
    paving_seconds = _histogram_seconds(metrics, "icp_pave_seconds")
    store_seconds = _histogram_seconds(metrics, "store_get_seconds") + _histogram_seconds(
        metrics, "store_merge_seconds"
    )
    compile_seconds = metrics.counter_total("kernel_compile_seconds_total")
    overhead = paving_seconds + store_seconds + compile_seconds
    attributed = rounds_seconds + overhead
    diagnostics = [
        _diag(
            "info",
            "WALL_CLOCK_ATTRIBUTION",
            (
                f"sampling rounds {rounds_seconds:.3f}s, paving {paving_seconds:.3f}s, "
                f"kernel compile {compile_seconds:.3f}s, store I/O {store_seconds:.3f}s"
            ),
            timing=True,
            rounds_seconds=rounds_seconds,
            paving_seconds=paving_seconds,
            kernel_compile_seconds=compile_seconds,
            store_seconds=store_seconds,
        )
    ]
    if attributed > 0.0:
        fraction = overhead / attributed
        if fraction > OVERHEAD_FRACTION_CEILING:
            diagnostics.append(
                _diag(
                    "warning",
                    "OVERHEAD_DOMINANT",
                    (
                        f"{fraction:.0%} of attributed wall-clock went to paving/compile/store "
                        f"overhead rather than sampling"
                    ),
                    timing=True,
                    overhead_fraction=fraction,
                    overhead_seconds=overhead,
                    sampling_seconds=rounds_seconds,
                )
            )
    return diagnostics


def diagnose_run(
    round_reports: Sequence[Any],
    factors: Sequence[FactorHealth] = (),
    *,
    target_std: Optional[float] = None,
    metrics: Optional[MetricsSnapshot] = None,
    estimate: Optional[Any] = None,
) -> Tuple[Diagnostic, ...]:
    """The full diagnostics pass over one finished run.

    ``round_reports`` are the engine's :class:`~repro.core.qcoral.RoundReport`
    values (anything with ``round_index`` / ``total_samples`` / ``estimate``
    works); ``factors`` the per-factor health inputs in metric-label order.
    ``estimate`` is the run's final answer (anything with ``mean`` / ``std``),
    checked against [0, 1].  ``metrics`` is optional — without a snapshot the
    wall-clock attribution records are simply skipped, which keeps the
    remaining output identical whether observability was enabled or not.

    Emission order is fixed (trajectory, consistency, range, per-factor in
    index order, time-capped paving, timing last) so equal inputs produce
    byte-identical output.
    """
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_convergence_checks(round_reports, target_std))
    diagnostics.extend(_sigma_consistency_check(round_reports))
    diagnostics.extend(_range_check(estimate))
    diagnostics.extend(_factor_checks(factors))
    diagnostics.extend(_paving_check(factors))
    if metrics is not None:
        diagnostics.extend(_timing_checks(metrics))
    return tuple(diagnostics)


def reuse_summary_diagnostic(
    *,
    factors_total: int,
    factors_reused: int,
    factors_unchanged: int,
    factors_changed: int,
    factors_added: int,
    factors_removed: int,
    samples_saved: int,
    residual_budget: int,
    samples_drawn: int,
) -> Diagnostic:
    """The REUSE_SUMMARY record of an incremental (baseline-diffed) run.

    Emitted by the incremental layer (:mod:`repro.incremental.plan`) rather
    than :func:`diagnose_run` — it needs the constraint-set diff and the
    budget plan, which only exist for runs executed against a baseline.
    A pure function of plan numbers and the run's sample count, so it is
    ``timing=False`` and covered by the fixed-seed bit-identity contract.
    """
    return _diag(
        "info",
        "REUSE_SUMMARY",
        (
            f"reused {factors_reused}/{factors_total} factors "
            f"({factors_unchanged} unchanged, {factors_changed} changed, "
            f"{factors_added} added, {factors_removed} removed); "
            f"{samples_saved} samples saved, residual budget {residual_budget}, "
            f"{samples_drawn} drawn"
        ),
        factors_total=factors_total,
        factors_reused=factors_reused,
        factors_unchanged=factors_unchanged,
        factors_changed=factors_changed,
        factors_added=factors_added,
        factors_removed=factors_removed,
        samples_saved=samples_saved,
        residual_budget=residual_budget,
        samples_drawn=samples_drawn,
    )


def symexec_truncated_diagnostic(explored_paths: int, max_paths: int) -> Diagnostic:
    """The SYMEXEC_TRUNCATED record of a program run whose exploration was cut.

    Symbolic execution stopped at ``max_paths``, so the paths it never
    explored are missing from the estimate, which can then understate the
    event's probability.  Emitted by the program branch of
    :class:`~repro.api.query.Query`; a pure function of the two counts, so
    ``timing=False``.
    """
    return _diag(
        "warning",
        "SYMEXEC_TRUNCATED",
        (
            f"symbolic execution stopped at max_paths={max_paths} after {explored_paths} paths; "
            "unexplored paths are missing from the estimate, which may understate the probability"
        ),
        explored_paths=explored_paths,
        max_paths=max_paths,
    )


def deterministic_diagnostics(diagnostics: Sequence[Diagnostic]) -> Tuple[Diagnostic, ...]:
    """The subset covered by the fixed-seed bit-identity contract."""
    return tuple(d for d in diagnostics if not d.timing)


def diagnostics_from_payload(payload: Sequence[Mapping[str, Any]]) -> Tuple[Diagnostic, ...]:
    """Parse a serialised diagnostics list (e.g. from a ledger entry)."""
    if not isinstance(payload, Sequence) or isinstance(payload, (str, bytes)):
        raise ValueError("malformed diagnostics payload: expected a list")
    return tuple(Diagnostic.from_dict(item) for item in payload)
