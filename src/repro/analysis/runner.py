"""Repeated-trial experiment runner.

The paper reports averages over 30 executions of its randomised algorithm
(Table 2 and Table 3 captions).  :func:`repeat_analysis` re-runs an analysis
callable with distinct seeds and aggregates the estimates the same way: the
mean of the per-run estimates, the standard deviation *across* runs, the mean
of the per-run reported standard deviations, and the mean wall-clock time.

Per-trial seeds are spawned from one :class:`numpy.random.SeedSequence`
rooted at ``base_seed`` (see :func:`trial_seeds`), so trials are statistically
independent yet fully reproducible, and the seed of trial *i* never depends
on how many trials run.  Trials run one after another in the calling thread;
parallelism lives inside a trial, where a session's pool samples each
round's chunks.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.api.query import Query


def trial_seeds(runs: int, base_seed: int = 0) -> List[int]:
    """Independent integer seeds for ``runs`` trials, spawned from ``base_seed``.

    Seed ``i`` is the first 32-bit state word of child ``i`` of
    ``SeedSequence(base_seed)``; the list is a pure function of
    ``(runs, base_seed)`` and a prefix-stable one: the first ``k`` seeds are
    the same for any ``runs >= k``.
    """
    if runs < 0:
        raise ValueError("trial count may not be negative")
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(base_seed).spawn(runs)]


@dataclass(frozen=True)
class TrialOutcome:
    """One trial: the estimate, its reported standard deviation, and its time.

    ``samples`` and ``rounds`` record the sampling effort of the trial when
    the analysis exposes them (adaptive runs); both default to 0 for plain
    ``(estimate, std)`` callables.  ``store_hits``, ``warm_starts``, and
    ``store_merges`` record the trial's traffic against a persistent
    estimate store (all 0 when the trial ran without one) — with a shared
    store, later trials reuse or extend what earlier trials sampled, and
    these counters make that reuse observable per trial.
    """

    estimate: float
    reported_std: float
    elapsed: float
    samples: int = 0
    rounds: int = 0
    store_hits: int = 0
    warm_starts: int = 0
    store_merges: int = 0


@dataclass(frozen=True)
class RepeatedResult:
    """Aggregate of several trials of a randomised analysis."""

    outcomes: Tuple[TrialOutcome, ...]

    @property
    def runs(self) -> int:
        """Number of trials aggregated."""
        return len(self.outcomes)

    @property
    def mean_estimate(self) -> float:
        """Average of the per-trial estimates (the paper's "estimate" column)."""
        return statistics.fmean(outcome.estimate for outcome in self.outcomes)

    @property
    def empirical_std(self) -> float:
        """Standard deviation of the estimates across trials (paper's "σ" in Table 2)."""
        if self.runs < 2:
            return 0.0
        return statistics.stdev(outcome.estimate for outcome in self.outcomes)

    @property
    def mean_reported_std(self) -> float:
        """Average of the per-trial reported standard deviations (Table 3/4 "σ")."""
        return statistics.fmean(outcome.reported_std for outcome in self.outcomes)

    @property
    def mean_time(self) -> float:
        """Average wall-clock time per trial, in seconds."""
        return statistics.fmean(outcome.elapsed for outcome in self.outcomes)

    @property
    def mean_samples(self) -> float:
        """Average samples spent per trial (0 when trials did not report it)."""
        return statistics.fmean(outcome.samples for outcome in self.outcomes)

    @property
    def total_store_hits(self) -> int:
        """Persistent-store hits summed over all trials."""
        return sum(outcome.store_hits for outcome in self.outcomes)

    @property
    def total_warm_starts(self) -> int:
        """Factors warm-started from stored counts, summed over all trials."""
        return sum(outcome.warm_starts for outcome in self.outcomes)

    @property
    def total_store_merges(self) -> int:
        """Merge-on-write publishes into existing entries, over all trials."""
        return sum(outcome.store_merges for outcome in self.outcomes)

    def summary(self) -> str:
        """Compact single-line summary for logging."""
        text = (
            f"estimate={self.mean_estimate:.6f} σ_runs={self.empirical_std:.2e} "
            f"σ_reported={self.mean_reported_std:.2e} time={self.mean_time:.2f}s ({self.runs} runs)"
        )
        if self.total_store_hits or self.total_warm_starts or self.total_store_merges:
            text += (
                f" store[hits={self.total_store_hits} warm={self.total_warm_starts}"
                f" merges={self.total_store_merges}]"
            )
        return text


def _timed_plain_trial(run: Callable[[int], Tuple[float, float]], seed: int) -> TrialOutcome:
    started = time.perf_counter()
    estimate, reported_std = run(seed)
    elapsed = time.perf_counter() - started
    if math.isnan(estimate) or math.isnan(reported_std):
        raise ValueError(f"trial with seed {seed} produced NaN results")
    return TrialOutcome(estimate, reported_std, elapsed)


def repeat_analysis(
    run: Callable[[int], Tuple[float, float]],
    runs: int = 30,
    base_seed: int = 0,
) -> RepeatedResult:
    """Run ``run(seed)`` for ``runs`` independent seeds and aggregate the outcomes.

    ``run`` must return a ``(estimate, reported_std)`` pair; wall-clock time is
    measured here so every analysis is timed consistently.  Seeds come from
    :func:`trial_seeds`.
    """
    if runs < 1:
        raise ValueError("at least one run is required")
    return RepeatedResult(tuple(_timed_plain_trial(run, seed) for seed in trial_seeds(runs, base_seed)))


def _timed_query_trial(query: "Query", seed: int) -> TrialOutcome:
    started = time.perf_counter()
    report = query.seed(seed).run()
    elapsed = time.perf_counter() - started
    if math.isnan(report.mean) or math.isnan(report.std):
        raise ValueError(f"trial with seed {seed} produced NaN results")
    cache = report.cache_statistics
    return TrialOutcome(
        report.mean,
        report.std,
        elapsed,
        report.total_samples,
        report.rounds,
        store_hits=cache.store_hits if cache is not None else 0,
        warm_starts=cache.warm_starts if cache is not None else 0,
        store_merges=cache.store_merges if cache is not None else 0,
    )


def repeat_query(
    query: "Query",
    runs: int = 30,
    base_seed: int = 0,
) -> RepeatedResult:
    """Run a facade :class:`~repro.api.query.Query` at ``runs`` spawned seeds.

    Each trial is ``query.seed(s).run()`` for the seeds of
    :func:`trial_seeds`, so a query and a hand-rolled run-per-seed loop
    aggregate identically.  Trials run in order; each one samples its
    rounds' chunks on the query's session pool.
    """
    if runs < 1:
        raise ValueError("at least one run is required")
    return RepeatedResult(tuple(_timed_query_trial(query, seed) for seed in trial_seeds(runs, base_seed)))
