"""The unified :class:`Report` result type with a versioned JSON schema.

One dataclass covers every result the facade produces — a constraint-set
quantification or a program analysis (both from the engine's
:class:`~repro.core.qcoral.QCoralResult`) and repeated trials (from
:class:`~repro.analysis.runner.RepeatedResult`).  Every surface
(``Session``/``Query``, ``qcoral ... --json``) speaks :class:`Report`.

Serialisation contract
----------------------

``Report.to_dict()`` / ``to_json()`` emit a flat, stable schema stamped with
:data:`SCHEMA_VERSION`.  The rule for evolving it:

* **Adding** a key is backward compatible and does NOT bump the version.
* **Renaming, removing, or changing the meaning/type** of an existing key
  bumps :data:`SCHEMA_VERSION` and must update the golden file in
  ``tests/data/`` in the same change.

Consumers should ignore keys they do not know and check ``schema_version``
before relying on key semantics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.cache import CacheStatistics
from repro.core.estimate import Estimate
from repro.core.qcoral import QCoralConfig, QCoralResult, RoundReport
from repro.obs.diagnostics import Diagnostic
from repro.obs.metrics import MetricsSnapshot
from repro.store.backends import StoreStatistics
from repro.store.keys import StoreContext

#: Version stamp of the ``to_dict()``/``to_json()`` schema (bump rule above).
#: Version 2 added the observability surface: a ``metrics`` block (the
#: run's :class:`~repro.obs.metrics.MetricsSnapshot`, None when observability
#: was disabled) and a ``store_stats`` block (persistent-store traffic
#: counters, None without a store).  Version 3 adds the run-health surface:
#: a ``diagnostics`` list of structured :class:`~repro.obs.diagnostics.Diagnostic`
#: records (severity, code, message, evidence) emitted at finalize.
SCHEMA_VERSION = 3


@dataclass(frozen=True)
class Report:
    """Unified outcome of any analysis run through the Session facade.

    ``kind`` says which shape of run produced it: ``"quantification"`` (a
    direct constraint-set query), ``"program"`` (symbolic execution followed
    by quantification of a target event; ``event`` and ``bounded`` are then
    set), or ``"repeated"`` (an aggregate over independent trials; ``trials``
    is then set and the estimate is the across-trial mean/empirical variance).
    """

    kind: str
    estimate: Estimate
    total_samples: int
    analysis_time: float
    paths: int = 0
    round_reports: Tuple[RoundReport, ...] = ()
    #: Per-path-condition detail (factor estimates, cache provenance, store
    #: keys).  An in-memory drill-down only — deliberately not part of the
    #: JSON schema.
    path_reports: Tuple[Any, ...] = ()
    feature_label: str = ""
    method: str = "hit-or-miss"
    seed: Optional[int] = None
    target_std: Optional[float] = None
    executor: Optional[str] = None
    store: Optional[str] = None
    cache_statistics: Optional[CacheStatistics] = None
    event: Optional[str] = None
    bounded: Optional[Estimate] = None
    trials: Optional[Tuple[Any, ...]] = None
    config: Optional[QCoralConfig] = None
    #: Metrics snapshot of the run (None when observability was disabled).
    metrics: Optional[MetricsSnapshot] = None
    #: Persistent-store traffic counters (None when no store was attached).
    store_statistics: Optional[StoreStatistics] = None
    #: Run-health diagnostics (:class:`~repro.obs.diagnostics.Diagnostic`)
    #: emitted at finalize; ``timing=False`` records are deterministic for a
    #: fixed seed, ``timing=True`` records exist only with observability on.
    diagnostics: Tuple[Diagnostic, ...] = ()
    #: The store context the factor keys in :attr:`path_reports` were made
    #: under (None when the run keyed no factor for a store); in memory only.
    store_context: Optional[StoreContext] = None

    # ------------------------------------------------------------------ #
    # Derived accessors (one vocabulary across all run kinds)
    # ------------------------------------------------------------------ #
    @property
    def mean(self) -> float:
        """Expected value of the probability estimator."""
        return self.estimate.mean

    @property
    def variance(self) -> float:
        """Variance (bound) of the probability estimator."""
        return self.estimate.variance

    @property
    def std(self) -> float:
        """Standard deviation of the probability estimator."""
        return self.estimate.std

    @property
    def rounds(self) -> int:
        """Number of adaptive sampling rounds executed."""
        return len(self.round_reports)

    @property
    def met_target(self) -> bool:
        """True when a convergence target was set and reached."""
        return self.target_std is not None and self.std <= self.target_std

    @property
    def confidence_note(self) -> str:
        """Human-readable statement of the bounded-path probability mass."""
        if self.bounded is None:
            return ""
        return f"probability mass of paths hitting the execution bound: {self.bounded.mean:.6f}"

    def __repr__(self) -> str:
        extra = f", event={self.event!r}" if self.event is not None else ""
        return (
            f"Report(kind={self.kind!r}, mean={self.mean:.6f}, std={self.std:.3e}, "
            f"samples={self.total_samples}, rounds={self.rounds}{extra})"
        )

    # ------------------------------------------------------------------ #
    # Construction from the legacy result types
    # ------------------------------------------------------------------ #
    @classmethod
    def from_qcoral(
        cls,
        result: QCoralResult,
        *,
        kind: str = "quantification",
        event: Optional[str] = None,
        bounded: Optional[Estimate] = None,
    ) -> "Report":
        """Build a report from a :class:`~repro.core.qcoral.QCoralResult`."""
        return cls(
            kind=kind,
            estimate=result.estimate,
            total_samples=result.total_samples,
            analysis_time=result.analysis_time,
            paths=len(result.path_reports),
            round_reports=result.round_reports,
            path_reports=result.path_reports,
            feature_label=result.config.feature_label(),
            method=result.config.method,
            seed=result.config.seed,
            target_std=result.config.target_std,
            executor=result.executor,
            store=result.store,
            cache_statistics=result.cache_statistics,
            event=event,
            bounded=bounded,
            config=result.config,
            metrics=result.metrics,
            store_statistics=result.store_statistics,
            diagnostics=result.diagnostics,
            store_context=result.store_context,
        )

    @classmethod
    def from_repeated(cls, repeated, *, config: Optional[QCoralConfig] = None) -> "Report":
        """Build a report from a :class:`~repro.analysis.runner.RepeatedResult`.

        The estimate carries the across-trial mean and the *empirical*
        variance (the paper's Table 2 "σ" squared); per-trial records are
        kept in :attr:`trials`.  ``config`` (the trials' shared base
        configuration) fills the method/features/target metadata; ``seed``
        stays None because every trial runs its own spawned seed.
        """
        outcomes = tuple(repeated.outcomes)
        return cls(
            kind="repeated",
            estimate=Estimate(repeated.mean_estimate, repeated.empirical_std**2),
            total_samples=sum(outcome.samples for outcome in outcomes),
            analysis_time=sum(outcome.elapsed for outcome in outcomes),
            feature_label=config.feature_label() if config is not None else "",
            method=config.method if config is not None else "hit-or-miss",
            target_std=config.target_std if config is not None else None,
            trials=outcomes,
            config=config,
        )

    # ------------------------------------------------------------------ #
    # Versioned serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The versioned, JSON-ready rendering of this report."""
        cache = None
        if self.cache_statistics is not None:
            statistics = self.cache_statistics
            cache = {
                "lookups": statistics.lookups,
                "hits": statistics.hits,
                "misses": statistics.misses,
                "store_hits": statistics.store_hits,
                "store_misses": statistics.store_misses,
                "warm_starts": statistics.warm_starts,
                "store_publishes": statistics.store_publishes,
                "store_merges": statistics.store_merges,
            }
        store_stats = None
        if self.store_statistics is not None:
            stats = self.store_statistics
            store_stats = {
                "gets": stats.gets,
                "hits": stats.hits,
                "misses": stats.misses,
                "merges": stats.merges,
                "creates": stats.creates,
                "writes": stats.writes,
                "readonly_skips": stats.readonly_skips,
            }
        trials = None
        if self.trials is not None:
            trials = [
                {
                    "estimate": outcome.estimate,
                    "reported_std": outcome.reported_std,
                    "time": outcome.elapsed,
                    "samples": outcome.samples,
                    "rounds": outcome.rounds,
                }
                for outcome in self.trials
            ]
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "mean": self.mean,
            "std": self.std,
            "variance": self.variance,
            "samples": self.total_samples,
            "paths": self.paths,
            "time": self.analysis_time,
            "features": self.feature_label,
            "method": self.method,
            "seed": self.seed,
            "target_std": self.target_std,
            "met_target": self.met_target,
            "executor": self.executor,
            "store": self.store,
            "rounds": [
                {
                    "round": report.round_index,
                    "allocated": report.allocated,
                    "cumulative": report.total_samples,
                    "mean": report.mean,
                    "std": report.std,
                }
                for report in self.round_reports
            ],
            "cache": cache,
            "store_stats": store_stats,
            "metrics": (None if self.metrics is None else self.metrics.to_dict()),
            "diagnostics": [diagnostic.to_dict() for diagnostic in self.diagnostics],
            "event": self.event,
            "bounded": (None if self.bounded is None else {"mean": self.bounded.mean, "std": self.bounded.std}),
            "trials": trials,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON rendering of :meth:`to_dict` (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)
