"""The qCORAL analyzer: Algorithms 1 and 2 of the paper, made incremental.

:class:`QCoralAnalyzer` quantifies the probability that an input drawn from a
usage profile satisfies *any* path condition of a constraint set.  The two
optional features evaluated in the paper (Table 4) are exposed as configuration
flags:

* ``stratified`` (STRAT) — estimate each factor with ICP-driven stratified
  sampling instead of whole-domain hit-or-miss Monte Carlo (a sampler whose
  only stratum is the factor's domain);
* ``partition_and_cache`` (PARTCACHE) — split each path condition into
  independent factors along the dependency partition of the input variables,
  estimate factors separately, compose with the product rule, and cache factor
  estimates for reuse across path conditions.

Beyond the paper, the estimation loop is **iterative and adaptive**: every
sampled factor is backed by a resumable
:class:`~repro.core.stratified.StratifiedSampler`, and the total budget is
spent over one or more rounds.  After a pilot round the remaining budget
flows to the factors (and, within a stratified factor, the strata) with the
largest variance contribution — a generalised Neyman allocation — until
either the combined standard deviation drops below
``QCoralConfig.target_std`` or the budget is exhausted.  Per-round convergence is recorded in
:attr:`QCoralResult.round_reports`.

Typical use::

    profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
    result = QCoralAnalyzer(profile).analyze(parse_constraint_set("x <= 0 - y && y <= x"))
    print(result.mean, result.std)

    # Adaptive: sample until σ <= 1e-4 (or the budget runs out).
    config = QCoralConfig(samples_per_query=100_000, target_std=1e-4)
    result = QCoralAnalyzer(profile, config).analyze(...)
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import CacheStatistics, EstimateCache, LRUMemo
from repro.core.composition import (
    Incidence,
    combined_estimate,
    moments,
    neyman_coefficients,
    path_condition_moments,
    sum_in_order,
)
from repro.core.dependency import compute_dependency_partition
from repro.core.estimate import Estimate
from repro.core.importance import DEFAULT_MASS_SPLIT_BOXES
from repro.core.methods import ESTIMATION_METHODS, make_sampler, store_method_tag
from repro.core.profiles import UsageProfile
from repro.core.stratified import (
    ALLOCATION_POLICIES,
    PAVING_MEMO_SIZE,
    StoredPaving,
    StratifiedSampler,
    allocate_budget,
    decode_paving,
    laplace_sigma_floor,
)
from repro.errors import ConfigurationError
from repro.exec.scheduler import SamplingTask, factor_seed, pool_label, run_sampling_tasks
from repro.icp.config import ICPConfig, PAPER_CONFIG
from repro.icp.solver import ICPSolver, Paving
from repro.lang import ast
from repro.lang.analysis import group_constraints_by_block
from repro.lang.kernel import KernelCacheStats, kernel_cache_stats
from repro.lang.simplify import simplify_path_condition
from repro.obs import Observability, ensure_observability
from repro.obs.diagnostics import Diagnostic, FactorHealth, StratumHealth, diagnose_run
from repro.obs.ledger import config_fingerprint
from repro.obs.metrics import MetricsSnapshot
from repro.store.backends import EstimateStore, StoreStatistics
from repro.store.entry import StoreEntry
from repro.store.keys import FactorKey, StoreContext

#: Rounds used when an adaptive feature is requested without an explicit
#: ``max_rounds`` (pilot + re-allocation rounds).
DEFAULT_ADAPTIVE_ROUNDS = 6


@dataclass(frozen=True)
class QCoralConfig:
    """Configuration of a qCORAL analysis run.

    Attributes:
        samples_per_query: Sampling budget per estimated factor.  This mirrors
            the "maximum number of samples" knob of the paper's experiments;
            in adaptive runs the budget of all factors is pooled and
            re-allocated where the variance is.
        stratified: Enable the STRAT feature (ICP + stratified sampling).
            Off, each factor is sampled by hit-or-miss over its whole domain
            (one stratum of weight 1, no ICP).
        method: Estimation method for the sampled factors: ``"hit-or-miss"``
            (the paper's sampling inside the ICP paving) or ``"importance"``
            (distribution-aware importance sampling: the paving is refined by
            splitting the highest-mass×variance boxes, budget follows
            ``mass · σ̂``, and the combination is self-normalised — see
            :mod:`repro.core.importance`).  ``"importance"`` requires
            ``stratified``; it upgrades an ``"even"`` allocation to
            ``"neyman"`` and a single-round budget to the adaptive loop, since
            mass-aware allocation is the point of the method.
        mass_split_boxes: Stratum-count cap of the upfront mass-driven paving
            refinement (importance method only).  The refinement is a pure
            function of the paving, the profile, and this knob, so refined
            pavings — and persistent-store fingerprints — are reproducible.
        mass_split_adaptive: Extra splits the importance sampler may spend
            *during* sampling on the observed worst variance contributors
            (0 disables).  The split stratum's counts are written off and the
            final paving depends on the sample history, so cross-run store
            pooling is reduced for the affected factors.
        partition_and_cache: Enable the PARTCACHE feature (independent-factor
            decomposition with caching).
        seed: Seed for the NumPy random generator; None draws fresh entropy.
        icp: Configuration of the ICP paving solver.
        target_std: Convergence target — stop sampling once the combined
            standard deviation of the whole constraint set falls to or below
            this value.  None disables the criterion (the budget is then the
            only stop).
        max_rounds: Maximum number of sampling rounds.  1 reproduces the
            paper's one-shot behaviour; larger values enable the adaptive
            loop (pilot + variance-driven re-allocation).  Left at 1 while
            ``target_std`` is set or ``allocation="neyman"``, it is raised to
            :data:`DEFAULT_ADAPTIVE_ROUNDS` automatically.
        initial_fraction: Fraction of the total budget spent in the pilot
            round of an adaptive run (the rest is re-allocated adaptively).
        allocation: Budget split across strata and factors: ``"even"`` (the
            paper's equal split) or ``"neyman"`` (proportional to the weighted
            standard deviation ``w_i σ_i``).
        chunk_size: Samples per sampling task (None =
            :data:`repro.exec.scheduler.DEFAULT_CHUNK_SIZE`).  Every round is
            planned as keyed chunks (:func:`repro.exec.scheduler.chunk_seed`),
            so for a fixed ``seed`` results are bit-identical at any worker
            count; the chunk size itself does change the answer.
    """

    samples_per_query: int = 30_000
    stratified: bool = True
    method: str = "hit-or-miss"
    mass_split_boxes: int = DEFAULT_MASS_SPLIT_BOXES
    mass_split_adaptive: int = 0
    partition_and_cache: bool = True
    seed: Optional[int] = None
    icp: ICPConfig = PAPER_CONFIG
    target_std: Optional[float] = None
    max_rounds: int = 1
    initial_fraction: float = 0.25
    allocation: str = "even"
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.samples_per_query <= 0:
            raise ConfigurationError("samples_per_query must be positive")
        if self.target_std is not None and self.target_std <= 0.0:
            raise ConfigurationError("target_std must be positive when set")
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be at least 1")
        if not 0.0 < self.initial_fraction <= 1.0:
            raise ConfigurationError("initial_fraction must be in (0, 1]")
        if self.allocation not in ALLOCATION_POLICIES:
            raise ConfigurationError(
                f"unknown allocation policy {self.allocation!r}; expected one of {ALLOCATION_POLICIES}"
            )
        if self.method not in ESTIMATION_METHODS:
            raise ConfigurationError(f"unknown estimation method {self.method!r}; expected one of {ESTIMATION_METHODS}")
        importance = self.method == "importance"
        if importance and not self.stratified:
            raise ConfigurationError(f"the {self.method} method refines ICP pavings and requires stratified=True")
        if self.mass_split_boxes < 1:
            raise ConfigurationError("mass_split_boxes must be at least 1")
        if self.mass_split_adaptive < 0:
            raise ConfigurationError("mass_split_adaptive may not be negative")
        if importance and self.allocation == "even":
            # Mass-aware budget allocation is the point of importance
            # sampling; the paper's equal split would waste the refined paving.
            object.__setattr__(self, "allocation", "neyman")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive when set")
        if self.max_rounds == 1 and (
            self.target_std is not None or self.allocation == "neyman" or importance
        ):
            # An adaptive feature without rounds cannot act; give it rounds.
            object.__setattr__(self, "max_rounds", DEFAULT_ADAPTIVE_ROUNDS)

    @property
    def is_adaptive(self) -> bool:
        """True when the iterative multi-round loop is active."""
        return self.max_rounds > 1

    def feature_label(self) -> str:
        """Human-readable feature-set label, e.g. ``qCORAL{STRAT,PARTCACHE}``."""
        features = []
        if self.stratified:
            features.append("STRAT")
        if self.partition_and_cache:
            features.append("PARTCACHE")
        if self.is_adaptive:
            features.append("ADAPT")
        if self.method == "importance":
            features.append("IMP")
        return "qCORAL{" + ",".join(features) + "}"


@dataclass(frozen=True)
class FactorReport:
    """Estimate of one independent factor of a path condition."""

    variables: FrozenSet[str]
    factor: ast.PathCondition
    estimate: Estimate
    from_cache: bool
    samples: int
    #: True when the factor resumed sampling from persistent-store counts.
    warm: bool = False
    #: The persistent-store key the run gave the factor, under the result's
    #: ``store_context``; None when the run had no store or the factor has no
    #: variables.
    key: Optional[FactorKey] = None


@dataclass(frozen=True)
class PathConditionReport:
    """Per-path-condition record of an analysis."""

    pc: ast.PathCondition
    estimate: Estimate
    factors: Tuple[FactorReport, ...]

    @property
    def factor_count(self) -> int:
        """Number of independent factors the path condition was split into."""
        return len(self.factors)


@dataclass(frozen=True)
class RoundReport:
    """Convergence record of one sampling round of the adaptive loop."""

    round_index: int
    allocated: int
    total_samples: int
    estimate: Estimate

    @property
    def mean(self) -> float:
        """Combined mean after this round."""
        return self.estimate.mean

    @property
    def std(self) -> float:
        """Combined standard deviation after this round."""
        return self.estimate.std


@dataclass(frozen=True)
class QCoralResult:
    """Result of quantifying a constraint set."""

    estimate: Estimate
    path_reports: Tuple[PathConditionReport, ...]
    cache_statistics: CacheStatistics
    total_samples: int
    analysis_time: float
    config: QCoralConfig
    round_reports: Tuple[RoundReport, ...] = ()
    #: Label of the sampling pool the chunks ran on (``thread×4``); None when
    #: they ran in the calling thread (one worker), with the same numbers.
    executor: Optional[str] = None
    #: Label of the persistent estimate store consulted (``sqlite:est.db``),
    #: None when the run had no store.  Cross-run reuse shows up in
    #: :attr:`cache_statistics` (store hits, warm starts, merges).
    store: Optional[str] = None
    #: Metrics snapshot of the run, None when the analyzer had no enabled
    #: observability hub.  Deterministic counters (rounds, draws, hits) are
    #: bit-identical across worker counts; timing histograms and
    #: per-worker-labelled series naturally vary.
    metrics: Optional[MetricsSnapshot] = None
    #: Activity counters of the persistent store *handle* (shared across every
    #: run using that handle), None when the run had no store.
    store_statistics: Optional[StoreStatistics] = None
    #: Run-health diagnostics emitted at finalize.  Records with
    #: ``timing=False`` are bit-identical for a fixed seed across worker counts
    #: and with observability on or off; wall-clock attribution records
    #: (``timing=True``) appear only when an enabled hub was attached.
    diagnostics: Tuple[Diagnostic, ...] = ()
    #: The store context the factors' :attr:`FactorReport.key` were made
    #: under, None when the run keyed no factor for a store.
    store_context: Optional[StoreContext] = None

    @property
    def mean(self) -> float:
        """Expected value of the probability estimator."""
        return self.estimate.mean

    @property
    def variance(self) -> float:
        """Variance upper bound of the probability estimator (Theorem 1)."""
        return self.estimate.variance

    @property
    def std(self) -> float:
        """Standard deviation (square root of the variance bound)."""
        return self.estimate.std

    @property
    def rounds(self) -> int:
        """Number of sampling rounds actually executed."""
        return len(self.round_reports)

    @property
    def met_target(self) -> bool:
        """True when a convergence target was set and reached."""
        target = self.config.target_std
        return target is not None and self.std <= target

    def __repr__(self) -> str:
        suffix = f", exec={self.executor}" if self.executor is not None else ""
        return (
            f"QCoralResult(mean={self.mean:.6f}, std={self.std:.3e}, "
            f"paths={len(self.path_reports)}, rounds={self.rounds}, "
            f"time={self.analysis_time:.2f}s{suffix})"
        )


class _FactorState:
    """Resumable estimator of one unique factor during an analysis run."""

    __slots__ = (
        "key",
        "factor",
        "variables",
        "exact",
        "cached",
        "sampler",
        "seed",
        "store_key",
        "prior_samples",
        "prior_strata",
        "prior_fingerprint",
        "warm",
        "zero_share_streak",
        "max_zero_share_streak",
    )

    def __init__(
        self,
        key: str,
        factor: ast.PathCondition,
        variables: Tuple[str, ...],
        store_key: Optional[FactorKey],
    ) -> None:
        self.key = key
        self.factor = factor
        self.variables = variables
        self.exact: Optional[Estimate] = None
        self.cached = False
        self.sampler: Optional[StratifiedSampler] = None
        # The master seed keyed by ``key``, set once the factor is to be
        # sampled: every chunk it draws is seeded from it (see
        # repro.exec.scheduler.chunk_seed).
        self.seed: Optional[np.random.SeedSequence] = None
        # Persistent-store bookkeeping: the resolved key, how many of the
        # sampler's counts were *loaded* rather than drawn (so the write-back
        # publishes only this run's delta), and whether the factor resumed
        # from stored counts.
        self.store_key = store_key
        self.prior_samples = 0
        self.prior_strata: Optional[Tuple[Tuple[int, int], ...]] = None
        self.prior_fingerprint: Optional[str] = None
        self.warm = False
        # Starvation counters for the run-health diagnostics: consecutive
        # rounds the cross-factor allocator granted this factor zero samples,
        # and the worst such streak over the run.
        self.zero_share_streak = 0
        self.max_zero_share_streak = 0

    @property
    def sampleable(self) -> bool:
        """True when this factor can absorb further sampling budget."""
        return self.exact is None

    @property
    def samples(self) -> int:
        """Samples backing this factor's estimate (warm-start prior included)."""
        return self.sampler.total_samples if self.sampler is not None else 0

    @property
    def fresh_samples(self) -> int:
        """Samples actually drawn during the current run."""
        return self.samples - self.prior_samples

    def estimate(self) -> Estimate:
        """Current estimate of the factor's probability."""
        if self.exact is not None:
            return self.exact
        return self.sampler.estimate()


class QCoralAnalyzer:
    """Compositional statistical quantification of constraint solution spaces.

    Every sampling round is planned across all factors as task chunks that
    do not depend on the worker count, run through :mod:`repro.exec` on
    ``pool`` (None: in the calling thread), and absorbed in plan order.
    Chunk seeds are keyed by the master seed, the factor's key, the stratum's
    box and the samples already held, so for a fixed seed the analysis is
    bit-identical at every worker count, and independent of the order the
    factors were created in.

    ``pool``, ``store`` and ``observability`` are borrowed: their owner (a
    :class:`~repro.api.session.Session`, or the caller) shuts them down, and
    the analyzer holds nothing to close.  With a store and PARTCACHE, stored
    per-factor counts are reused across runs (outright when they cover the
    budget, as warm-start priors otherwise) and this run's counts are merged
    back on completion; without PARTCACHE the store stays idle.
    """

    def __init__(
        self,
        profile: UsageProfile,
        config: QCoralConfig = QCoralConfig(),
        pool: Optional[ThreadPoolExecutor] = None,
        store: Optional[EstimateStore] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        self._profile = profile
        self._config = config
        self._solver = ICPSolver(config.icp)
        self._entropy = np.random.SeedSequence(config.seed).entropy
        # Borrowed, like the pool and stores: the hub outlives the analyzer
        # and accumulates across analyses.  ``None`` resolves to the disabled
        # singleton, whose operations are no-ops (the zero-overhead path).
        self._obs = ensure_observability(observability)
        self._pool = pool
        self._store = store
        self._store_context: Optional[StoreContext] = None
        if self._store is not None and config.partition_and_cache:
            # The same tag the run ledger and the incremental differ key
            # under, so their contexts equal this one by construction.
            self._store_context = StoreContext(profile, store_method_tag(config))
            self._cache = EstimateCache(self._store, observability=self._obs)
        else:
            # The store persists exactly what PARTCACHE caches; without the
            # feature there is no canonical factor to key, so the store — if
            # one was passed — stays idle.
            self._cache = EstimateCache(observability=self._obs)
        # Plans handed over by _adopt_plans, by the id of their constraint
        # set (each plan holds its set, so the ids stay theirs).
        self._plans: Dict[int, FactorPlan] = {}
        # Decoded stored pavings; a Session shares its own through
        # _adopt_pavings so they outlive this analyzer.
        self._pavings = LRUMemo(PAVING_MEMO_SIZE)

    @property
    def profile(self) -> UsageProfile:
        """The usage profile this analyzer samples from."""
        return self._profile

    @property
    def config(self) -> QCoralConfig:
        """The analysis configuration."""
        return self._config

    @property
    def pool(self) -> Optional[ThreadPoolExecutor]:
        """The sampling pool (None: sampling runs in the calling thread)."""
        return self._pool

    @property
    def store(self) -> Optional[EstimateStore]:
        """The persistent estimate store (None when the run has no store)."""
        return self._store

    @property
    def observability(self) -> Observability:
        """The observability hub (the shared disabled singleton when off)."""
        return self._obs

    # ------------------------------------------------------------------ #
    # Algorithm 1: main loop over the disjoint path conditions
    # ------------------------------------------------------------------ #
    def analyze(self, constraint_set: ast.ConstraintSet) -> QCoralResult:
        """Quantify the probability of satisfying any PC of ``constraint_set``.

        Blocking form of :meth:`analyze_stream` — it drains the same round
        generator, so the two are bit-identical for a fixed seed.
        """
        return _drain(self.analyze_stream(constraint_set))

    def analyze_stream(self, constraint_set: ast.ConstraintSet):
        """Incremental form of :meth:`analyze`: a generator over the rounds.

        Yields the :class:`RoundReport` of every sampling round as it
        completes, then returns the final :class:`QCoralResult` as the
        generator's return value (``StopIteration.value``, or ``yield from``).
        After any yield the consumer may ``send(True)`` to stop sampling
        early; the analysis then finalises with the rounds drawn so far —
        exactly as if the convergence target had been met there.  Cache
        inserts and persistent-store write-back happen in the finalisation,
        so early-stopped runs still publish what they drew — including runs
        whose stream is abandoned outright (closed or garbage-collected
        without reading a final result): those flush on ``GeneratorExit``.
        """
        started = time.perf_counter()
        kernel_before = kernel_cache_stats() if self._obs.enabled else None
        if self._obs.enabled:
            # Stamp the run identity on the hub so flushed JSONL traces carry
            # a self-describing header (no RNG, no clocks — zero perturbation).
            self._obs.set_run_context(
                seed=self._config.seed,
                method=self._config.method,
                config_fingerprint=config_fingerprint(self._config),
            )
        planned = self._plans.get(id(constraint_set))
        if planned is None:
            planned = FactorPlan(constraint_set, self._config.partition_and_cache)
        self._profile.check_covers(planned.variables())
        states, claimed = self._build_plan(planned)

        try:
            try:
                rounds = yield from self._round_loop(planned.incidence(), states)
            except GeneratorExit:
                # The consumer abandoned the stream without asking for a result;
                # still flush caches/stores with what was drawn (best-effort —
                # whoever closed us cannot handle errors raised from here).
                try:
                    self._finalize(planned, states, (), started, kernel_before)
                except Exception:
                    pass
                raise
            return self._finalize(planned, states, rounds, started, kernel_before)
        finally:
            self._cache.release(claimed)

    #: Kernel-cache counter fields mapped to the metric names they feed; the
    #: delta between the snapshots taken at analysis start and end lands in
    #: the run's metrics.
    _KERNEL_METRICS = (
        ("lookups", "kernel_lookups_total"),
        ("memory_hits", "kernel_memory_hits_total"),
        ("codegens", "kernel_codegens_total"),
        ("evictions", "kernel_evictions_total"),
        ("compile_seconds", "kernel_compile_seconds_total"),
    )

    def _record_kernel_delta(self, before: Optional[KernelCacheStats]) -> None:
        if before is None or not self._obs.enabled:
            return
        after = kernel_cache_stats()
        for field, metric in self._KERNEL_METRICS:
            delta = getattr(after, field) - getattr(before, field)
            if delta:
                self._obs.count(metric, delta)

    def _finalize(
        self,
        planned: "FactorPlan",
        states: Sequence["_FactorState"],
        round_reports: Tuple[RoundReport, ...],
        started: float,
        kernel_before: Optional[KernelCacheStats] = None,
    ) -> QCoralResult:
        """Assemble the result and flush caches/stores after the round loop."""
        estimates = _estimates_of(states)
        reports, estimate = _path_reports(planned, states, estimates)
        # Each state's first occurrence owns its samples; the rest are shares.
        total_samples = sum(state.fresh_samples for state in states if not state.cached)
        self._flush(states, estimates)
        elapsed = time.perf_counter() - started
        self._record_kernel_delta(kernel_before)
        diagnostics = self._diagnose(states, round_reports, estimates, estimate)
        return QCoralResult(
            estimate=estimate,
            path_reports=tuple(reports),
            cache_statistics=self._cache.statistics,
            total_samples=total_samples,
            analysis_time=elapsed,
            config=self._config,
            round_reports=round_reports,
            executor=pool_label(self._pool),
            store=self._store.describe() if self._store is not None else None,
            metrics=self._obs.snapshot() if self._obs.enabled else None,
            store_statistics=self._store.statistics if self._store is not None else None,
            diagnostics=diagnostics,
            store_context=self._store_context,
        )

    def _diagnose(
        self,
        states: Sequence["_FactorState"],
        round_reports: Tuple[RoundReport, ...],
        estimates: Sequence[Estimate],
        final: Estimate,
    ) -> Tuple[Diagnostic, ...]:
        """The run-health diagnostics pass over the finished run.

        Runs unconditionally — the non-timing checks are pure functions of
        deterministic state (round reports, sample counts, streak counters)
        and cost microseconds, so disabled-observability runs get the same
        verdicts.  The metrics snapshot (and with it the wall-clock
        attribution records) joins only when an enabled hub is attached.
        """
        healths: List[FactorHealth] = []
        # Indices match the round loop's `active` list (state.exact is never
        # set mid-loop), so `factor` evidence lines up with the run's
        # qcoral_factor_* metric labels.
        index = 0
        for state, estimate in zip(states, estimates):
            if not state.sampleable:
                continue
            sampler = state.sampler
            strata = tuple(
                StratumHealth(
                    weight=stratum.weight,
                    samples=stratum.draw_count,
                    hits=stratum.hit_count,
                    sampleable=stratum.sampleable,
                    zero_allocation_streak=stratum.max_zero_allocation_streak,
                )
                for stratum in sampler.strata
            )
            healths.append(
                FactorHealth(
                    index=index,
                    method=sampler.method_label,
                    samples=state.samples,
                    mean=estimate.mean,
                    std=estimate.std,
                    zero_share_streak=state.max_zero_share_streak,
                    discarded_samples=getattr(sampler, "discarded_samples", 0),
                    effective_sample_size=sampler.effective_sample_size(),
                    strata=strata,
                    paving_time_capped=sampler.time_capped,
                )
            )
            index += 1
        return diagnose_run(
            round_reports,
            tuple(healths),
            target_std=self._config.target_std,
            metrics=self._obs.snapshot() if self._obs.enabled else None,
            estimate=final,
        )

    def _flush(self, states: Sequence["_FactorState"], estimates: Sequence[Estimate]) -> None:
        """Cache the factors this run estimated and publish its draws to the store."""
        if not self._config.partition_and_cache:
            return
        for state, estimate in zip(states, estimates):
            if not state.cached:
                self._cache.put(state.factor, estimate, key=state.key)
        self._publish_states(states)

    # ------------------------------------------------------------------ #
    # Algorithm 2: planning — split PCs into unique resumable factors
    # ------------------------------------------------------------------ #
    def _adopt_plans(self, *plans: "FactorPlan") -> None:
        """Analyse these plans' constraint sets with them instead of planning afresh.

        A :class:`~repro.api.session.Session` hands over the plans it keeps
        for a program or a constraint set, so :meth:`analyze_stream` skips
        simplification, partitioning and keying.  The plans must have been
        built under this analyzer's PARTCACHE flag.
        """
        for planned in plans:
            self._plans[id(planned.constraint_set)] = planned

    def _adopt_pavings(self, memo: LRUMemo) -> None:
        """Decode stored pavings through ``memo``, shared with other analyzers.

        A :class:`~repro.api.session.Session` hands over its memo, so a warm
        factor's paving is decoded, checked and weighed by the profile once
        per session and store context rather than once per run.
        """
        self._pavings = memo

    def _build_plan(self, planned: "FactorPlan") -> Tuple[List[_FactorState], FrozenSet[str]]:
        """Turn a :class:`FactorPlan` into one resumable state per distinct factor.

        The states come in sorted key order, the order of the plan's
        :meth:`FactorPlan.incidence` columns.  The occurrences after a
        factor's first are in-run cache shares, counted as cache hits.

        With a store, the store keys of every factor are claimed before any
        entry is read (:meth:`EstimateCache.claim`), so a factor another run
        is sampling right now is read after that run has published it.  The
        claimed keys are returned last; release them once the run's deltas
        are published.  The store keys are carried on the run's factor
        reports for the ledger to read.
        """
        _, factors = planned.factors()
        shared = planned.incidence().shared
        store_keys = planned.store_keys(self._store_context) if self._store_context is not None else {}
        claimed = self._cache.claim(store_keys.values())
        try:
            # Created in the order the path conditions first name them.
            states = [
                self._new_state(key, factor, ordered, store_keys.get(key))
                for key, (factor, ordered) in factors.items()
            ]
            self._cache.record_shared_hit(shared)
        except BaseException:
            self._cache.release(claimed)
            raise
        # Rounds allocate over the states in key order, so ties in a budget
        # split fall the same way whatever order the factors were created in.
        return sorted(states, key=lambda state: state.key), claimed

    def _new_state(
        self, key: str, factor: ast.PathCondition, variables: Tuple[str, ...], store_key: Optional[FactorKey]
    ) -> _FactorState:
        state = _FactorState(key, factor, variables, store_key)
        entry: Optional[StoreEntry] = None
        if self._config.partition_and_cache:
            cached = self._cache.get(factor, key=key)
            if cached is not None:
                state.exact = cached
                state.cached = True
                return state
            if store_key is not None:
                entry = self._cache.fetch_entry(store_key)
                if entry is not None and entry.is_exact:
                    # A previous run resolved the factor without sampling
                    # (ICP-exact); reuse skips even the paving work.
                    state.exact = Estimate.exact(entry.exact_mean)
                    state.cached = True
                    self._cache.put(factor, state.exact, key=key)
                    self._obs.count("qcoral_store_outright_reuse_total")
                    return state
        stored = self._stored_paving(entry, state.store_key, variables)
        if stored is not None:
            # A warm factor rebuilds its strata from the stored paving
            # instead of re-paving with ICP.
            self._obs.count("qcoral_store_paving_reuse_total")
            if self._covers_budget(stored, entry):
                # Its stored counts already cover the budget: freeze it
                # from them, exactly as a sampler preloaded with them
                # would report, without building one.
                state.warm = True
                self._cache.record_warm_start()
                return self._freeze(state, stored.estimate(entry.strata))
        state.seed = factor_seed(self._entropy, key)
        sampler: StratifiedSampler = make_sampler(
            factor,
            self._profile,
            variables=variables,
            solver=self._solver,
            seed=state.seed,
            chunk_size=self._config.chunk_size,
            config=self._config,
            observability=self._obs,
            paving=stored.paving if stored is not None else None,
            masses=stored.masses if stored is not None else None,
        )
        self._obs.count("qcoral_samplers_built_total")
        if sampler.is_exact:
            state.exact = sampler.estimate()
        else:
            state.sampler = sampler
            if entry is not None:
                self._warm_start(state, entry)
        if state.warm and self._need(state.samples) == 0:
            return self._freeze(state, state.estimate())
        return state

    def _freeze(self, state: _FactorState, estimate: Estimate) -> _FactorState:
        """Settle a warm factor whose stored counts already cover this run's budget.

        The factor is a finished cross-run reuse, frozen before any sampling.
        """
        state.exact = estimate
        state.cached = True
        self._cache.put(state.factor, estimate, key=state.key)
        self._obs.count("qcoral_store_warm_freeze_total")
        return state

    # ------------------------------------------------------------------ #
    # Persistent-store integration: warm starts and write-back
    # ------------------------------------------------------------------ #
    def _need(self, samples: int) -> int:
        """Samples still owed to the nominal per-factor budget of a factor holding ``samples``."""
        return max(0, self._config.samples_per_query - samples)

    def _covers_budget(self, stored: StoredPaving, entry: StoreEntry) -> bool:
        """True when a hit-or-miss sampler on ``stored``, preloaded from ``entry``, would be frozen unsampled.

        It would adopt the entry's counts and not be exact
        (:attr:`StoredPaving.adoptable`), and would owe no samples.  The
        importance method combines its strata differently and keeps its
        sampler.
        """
        return self._config.method != "importance" and stored.adoptable and self._need(entry.samples) == 0

    def _stored_paving(
        self, entry: Optional[StoreEntry], key: Optional[FactorKey], variables: Tuple[str, ...]
    ) -> Optional[StoredPaving]:
        """The paving a stratified entry's counts refer to, decoded from its text.

        None — pave with ICP instead — unless the text decodes into one box
        per stored stratum, each over the factor's variables and inside its
        domain.  Decoding goes through the paving memo, keyed by everything
        the decoded boxes and their masses depend on; the stratum count is
        checked against the entry on every read.
        """
        if entry is None or key is None or entry.kind != "stratified" or entry.samples <= 0:
            return None
        assert self._store_context is not None  # a store key implies a store context
        memo_key = (self._store_context.tag(), entry.paving, key.variables, variables)
        stored, _ = self._pavings.get(memo_key, lambda: self._decode_paving(entry.paving, key.variables, variables))
        if stored is None or len(stored.masses) != len(entry.strata):
            return None
        return stored

    def _decode_paving(
        self, text: str, canonical_order: Tuple[str, ...], variables: Tuple[str, ...]
    ) -> Optional[StoredPaving]:
        """Decode and check stored paving ``text``, and weigh its boxes by the profile."""
        self._obs.count("qcoral_paving_decodes_total")
        boxes = decode_paving(text, canonical_order, variables)
        if boxes is None:
            return None
        domain = self._profile.restrict(variables).domain()
        if not all(domain.contains_box(paved.box) for paved in boxes):
            return None
        return StoredPaving.weigh(text, canonical_order, Paving(domain, boxes), self._profile)

    def _warm_start(self, state: _FactorState, entry: StoreEntry) -> None:
        sampler = state.sampler
        if entry.kind != "stratified" or entry.samples <= 0 or sampler is None:
            return
        fingerprint = sampler.paving_fingerprint(state.store_key.variables)
        if entry.paving != fingerprint or len(entry.strata) != len(sampler.strata):
            # The sampler was not built from this entry's paving (its text
            # did not decode, or the method re-paves) and ICP paved it
            # differently; reusing the counts would misattribute them to
            # boxes.  Treat as a miss.
            return
        sampler.preload_counts(entry.strata)
        state.prior_samples = entry.samples
        state.prior_strata = entry.strata
        state.prior_fingerprint = fingerprint
        state.warm = True
        self._cache.record_warm_start()

    def _publish_states(self, states: Sequence[_FactorState]) -> None:
        """Fold this run's freshly drawn counts back into the store.

        Only deltas are published — the samples this run drew itself, never
        counts it loaded — so sequential continuations and concurrent runs
        pool without double counting.  A same-seed continuation draws fresh
        samples too: its chunk seeds are keyed past the loaded counts.
        """
        if not self._cache.has_store:
            return
        for state in states:
            key = state.store_key
            if key is None or state.cached:
                continue
            delta = self._delta_entry(state)
            if delta is not None:
                self._cache.publish(key, delta, merged_into_prior=state.warm)

    def _delta_entry(self, state: _FactorState) -> Optional[StoreEntry]:
        if state.sampler is not None:
            if state.fresh_samples <= 0:
                return None
            counts = state.sampler.counts()
            fingerprint = state.sampler.paving_fingerprint(state.store_key.variables)
            if state.prior_strata is not None and fingerprint != state.prior_fingerprint:
                # Adaptive mass splits changed the paving after the stored
                # prior was preloaded (the fingerprint renders the boxes, so
                # this also catches in-place replacements that keep the
                # stratum count unchanged); the loaded counts can no longer
                # be subtracted per stratum, so this run publishes nothing
                # rather than corrupt the pooled entry.
                return None
            prior = state.prior_strata or tuple((0, 0) for _ in counts)
            delta = tuple(
                (hits - prior_hits, samples - prior_samples)
                for (hits, samples), (prior_hits, prior_samples) in zip(counts, prior)
            )
            if any(hits < 0 or samples < 0 or hits > samples for hits, samples in delta):
                # Belt to the fingerprint guard above: a delta that is not a
                # valid Bernoulli count pool must never reach the store.
                return None
            return StoreEntry.from_strata(delta, paving=fingerprint)
        if state.exact is not None and state.variables and not state.warm:
            # ICP resolved the factor without sampling this run; store the
            # exact probability so re-runs skip the paving too.
            return StoreEntry.from_exact(state.exact.mean)
        return None

    # ------------------------------------------------------------------ #
    # The iterative sampling loop
    # ------------------------------------------------------------------ #
    def _round_loop(self, incidence: Incidence, states: Sequence[_FactorState]):
        """Generator over the adaptive sampling rounds, yielding each report.

        ``send(True)`` after a yield stops the loop before the next round
        (the streaming early-stop); plain iteration runs to the budget or the
        convergence target, exactly as before the generator refactor.  The
        generator's return value is the tuple of all reports yielded.
        ``states`` are in the order of ``incidence``'s factor indices.
        """
        indices = [index for index, state in enumerate(states) if state.sampleable]
        if not indices:
            return ()
        active = [states[index] for index in indices]

        config = self._config
        # Warm-started factors only owe the store what their prior is short
        # of, so the pooled budget is the sum of per-factor residual needs
        # (identical to samples_per_query × factors on a cold run).
        total_budget = sum(self._need(state.samples) for state in active)
        warm_run = any(state.prior_samples for state in active)
        max_rounds = config.max_rounds
        rounds: List[RoundReport] = []
        spent = 0

        obs = self._obs
        # One estimate per factor state, and their means, taken after each
        # round's sampling; the next round's priorities read the same snapshot.
        estimates: List[Estimate] = []
        means = np.empty(0)
        for round_index in range(1, max_rounds + 1):
            remaining = total_budget - spent
            if remaining <= 0:
                break
            if round_index == max_rounds:
                chunk = remaining
            elif round_index == 1:
                # Pilot: large enough for a σ estimate everywhere, small
                # enough to leave most of the budget for re-allocation.
                chunk = min(remaining, max(len(active), int(config.initial_fraction * total_budget)))
            else:
                chunk = max(1, remaining // (max_rounds - round_index + 1))

            round_started = time.perf_counter() if obs.enabled else 0.0
            with obs.span("qcoral.round", round=round_index, chunk=chunk):
                if round_index == 1 or self._config.allocation == "even":
                    # Pilot rounds — and every round under the paper's "even"
                    # policy — split the chunk equally across the factors;
                    # variance-driven re-allocation is the "neyman" policy.  On a
                    # warm run the split follows each factor's residual need
                    # instead, so factors whose stored prior already covers the
                    # budget are not re-sampled (on a cold run all needs are
                    # equal and the two rules coincide).
                    if warm_run:
                        priorities = [float(self._need(state.samples)) for state in active]
                    else:
                        priorities = [1.0] * len(active)
                else:
                    priorities = self._factor_priorities(incidence, indices, active, estimates, means)
                shares = allocate_budget(priorities, chunk)
                for state, share in zip(active, shares):
                    if share > 0:
                        state.zero_share_streak = 0
                    else:
                        state.zero_share_streak += 1
                        if state.zero_share_streak > state.max_zero_share_streak:
                            state.max_zero_share_streak = state.zero_share_streak

                used = self._run_round(active, shares)
                spent += used

            estimates = _estimates_of(states)
            means, variances = moments(estimates)
            combined = combined_estimate(incidence, means, variances)
            if obs.enabled:
                obs.count("qcoral_rounds_total")
                obs.count("qcoral_samples_total", used)
                obs.observe("qcoral_round_seconds", time.perf_counter() - round_started)
                obs.gauge("qcoral_estimate_std", combined.std)
                for factor_index, (index, share) in enumerate(zip(indices, shares)):
                    if share:
                        obs.count("qcoral_factor_allocated_total", share, factor=factor_index)
                    obs.gauge("qcoral_factor_sigma", estimates[index].std, factor=factor_index)
            report = RoundReport(round_index, used, spent, combined)
            rounds.append(report)
            stop = yield report
            if stop:
                break
            if config.target_std is not None and combined.std <= config.target_std:
                break
            if used == 0:
                break

        return tuple(rounds)

    def _run_round(self, active: Sequence[_FactorState], shares: Sequence[int]) -> int:
        """Plan one round across *all* factors and run it as one task batch.

        Batching the whole round keeps every worker busy even when a single
        factor's share is small: the pool sees the union of all factors'
        chunks, not one factor at a time.  Plans (and their keyed seeds)
        depend only on allocation decisions and counts already merged, so the
        round is deterministic for a fixed master seed at every worker count.
        """
        planned: List[Tuple[StratifiedSampler, int, SamplingTask]] = []
        for state, share in zip(active, shares):
            if share <= 0 or not state.sampleable:
                continue
            for stratum_index, task in state.sampler.plan_extension(share, allocation=self._config.allocation):
                planned.append((state.sampler, stratum_index, task))

        outcomes = run_sampling_tasks(self._pool, [task for _, _, task in planned], observability=self._obs)
        used = 0
        for (sampler, stratum_index, _), (hits, samples) in zip(planned, outcomes):
            sampler.absorb_chunk(stratum_index, hits, samples)
            used += samples
        return used

    def _factor_priorities(
        self,
        incidence: Incidence,
        indices: Sequence[int],
        active: Sequence[_FactorState],
        estimates: Sequence[Estimate],
        means: np.ndarray,
    ) -> List[float]:
        """Generalised Neyman priorities for the active factors (at ``indices`` of ``incidence``).

        The combined variance is ``Σ_pc Var(pc)`` with ``Var(pc)`` given by
        the product rule, so factor ``f`` contributes roughly
        ``c_f · Var_f`` where ``c_f = Σ_{pc ∋ f} (Π_{g ≠ f} mean_g)²``
        (:func:`~repro.core.composition.neyman_coefficients`).  Since
        ``Var_f`` shrinks like ``S_f² / n_f``, the variance-minimising split
        of the next chunk is ``n_f ∝ √c_f · S_f`` — the factor-level analogue
        of per-stratum Neyman allocation.
        """
        coefficients = neyman_coefficients(incidence, means)
        priorities = []
        for index, state in zip(indices, active):
            samples = state.samples
            estimate = estimates[index]
            if samples == 0:
                per_sample_std = 0.5
            else:
                # Floor the observed σ with its Laplace-smoothed counterpart:
                # a factor whose samples so far all hit (or all missed) has
                # an observed σ̂ of 0, and a hard zero would starve it of
                # budget forever while spuriously reporting convergence.
                equivalent_hits = min(samples, max(0, round(estimate.mean * samples)))
                per_sample_std = max(
                    estimate.std * math.sqrt(samples),
                    laplace_sigma_floor(equivalent_hits, samples),
                )
            priorities.append(math.sqrt(coefficients[index]) * per_sample_std)
        return priorities


def plan_factors(
    path_conditions: Sequence[ast.PathCondition], partition_and_cache: bool = True
) -> Tuple[List[Tuple[ast.PathCondition, List[str]]], Dict[str, Tuple[ast.PathCondition, Tuple[str, ...]]]]:
    """Simplify path conditions and split them into distinct, keyed factors.

    This is where a factor gets its identity, for the analyzer and for the
    incremental differ alike.  Returns ``(layout, factors)``: ``layout`` pairs
    each simplified path condition with the keys of its factors, in order;
    ``factors`` maps each key to the factor and its variables in sampling
    order.  With PARTCACHE the path conditions are split along the dependency
    partition of the whole set and a factor's key is its canonical text (the
    in-run cache key), so a factor shared by several path conditions appears
    once.  Without it each path condition is one factor and every occurrence
    keys apart.
    """
    # Symbolic execution shares conjunct objects between paths; the memos
    # simplify, and walk the variables of, each shared object once.
    simplified: Dict[int, Tuple[ast.Constraint, ast.Constraint, str]] = {}
    path_conditions = [simplify_path_condition(pc, simplified) for pc in path_conditions]
    blocks = compute_dependency_partition(path_conditions).blocks if partition_and_cache else ()
    conjunct_variables: Dict[int, Tuple[ast.Constraint, FrozenSet[str]]] = {}
    factors: Dict[str, Tuple[ast.PathCondition, Tuple[str, ...]]] = {}
    layout: List[Tuple[ast.PathCondition, List[str]]] = []
    # With PARTCACHE each distinct factor is keyed once: by the identities of
    # its conjuncts (shared between path conditions by symbolic execution),
    # failing that by its canonical text.  Both are exact, unlike dataclass
    # equality (0.0 == -0.0).  The path conditions hold the conjuncts for the
    # whole plan, so their ids stay theirs.
    keys_by_identity: Dict[Tuple[int, ...], str] = {}
    repeats: Dict[str, int] = {}
    for pc in path_conditions:
        keys: List[str] = []
        if pc.constraints:
            if blocks:
                split = group_constraints_by_block(pc, blocks, conjunct_variables)
            else:
                # No partition (PARTCACHE off, or no variables at all): the
                # path condition is one factor over all of its variables.
                split = [(pc.free_variables(), pc)]
            for variables, factor in split:
                if partition_and_cache:
                    identity = tuple(map(id, factor.constraints))
                    key = keys_by_identity.get(identity)
                    if key is None:
                        key = keys_by_identity[identity] = factor.canonical()
                else:
                    # Without caching, factors are never shared between PCs:
                    # numbering the repeats of one text keeps every occurrence
                    # independent, whatever the PC order.
                    text = factor.canonical()
                    repeats[text] = repeats.get(text, 0) + 1
                    key = f"{repeats[text]}:{text}"
                if key not in factors:
                    names = factor.free_variables()
                    factors[key] = (factor, tuple(sorted(variables & names)) or tuple(sorted(names)))
                keys.append(key)
        layout.append((pc, keys))
    return layout, factors


#: Store contexts whose keys one :class:`FactorPlan` keeps (oldest dropped
#: first); a program is usually analysed under one profile and method.
_STORE_CONTEXTS_PER_PLAN = 4


class FactorPlan:
    """Everything an analysis of one constraint set computes before sampling.

    That is the set's free variables, :func:`plan_factors`' ``(layout,
    factors)``, the set's :class:`~repro.core.composition.Incidence` array
    and the factors' store keys.  Each is a pure function of the
    set, the PARTCACHE flag and (for keys) the store context, so one plan
    serves every analysis of the set; a :class:`~repro.api.session.Session`
    keeps the plans of the programs and constraint sets it analysed.  Each
    part is computed on first use, under a lock, so concurrent analyses share
    one result.
    """

    def __init__(self, constraint_set: ast.ConstraintSet, partition_and_cache: bool) -> None:
        self.constraint_set = constraint_set
        self._partition_and_cache = partition_and_cache
        self._lock = threading.Lock()
        self._variables: Optional[FrozenSet[str]] = None
        self._factors: Optional[tuple] = None
        self._incidence: Optional[Incidence] = None
        self._store_keys: Dict[Tuple[str, str, str], Dict[str, FactorKey]] = {}

    def variables(self) -> FrozenSet[str]:
        """The set's free variables, which the profile must cover."""
        with self._lock:
            if self._variables is None:
                self._variables = self.constraint_set.free_variables()
            return self._variables

    def factors(
        self,
    ) -> Tuple[List[Tuple[ast.PathCondition, List[str]]], Dict[str, Tuple[ast.PathCondition, Tuple[str, ...]]]]:
        """:func:`plan_factors` of the set under this plan's PARTCACHE flag."""
        with self._lock:
            if self._factors is None:
                self._factors = plan_factors(self.constraint_set.path_conditions, self._partition_and_cache)
            return self._factors

    def incidence(self) -> Incidence:
        """The path conditions × factors array of the set, factors indexed in sorted key order."""
        layout, factors = self.factors()
        with self._lock:
            if self._incidence is None:
                index = {key: position for position, key in enumerate(sorted(factors))}
                self._incidence = Incidence([[index[key] for key in keys] for _, keys in layout], len(index))
            return self._incidence

    def store_keys(self, context: StoreContext) -> Dict[str, FactorKey]:
        """The store key of every factor with variables, under ``context``."""
        _, factors = self.factors()
        tag = context.tag()
        with self._lock:
            keys = self._store_keys.get(tag)
            if keys is None:
                keys = {key: context.key_for(factor) for key, (factor, ordered) in factors.items() if ordered}
                if len(self._store_keys) >= _STORE_CONTEXTS_PER_PLAN:
                    del self._store_keys[next(iter(self._store_keys))]
                self._store_keys[tag] = keys
            return keys


def _estimates_of(states: Sequence[_FactorState]) -> List[Estimate]:
    """One :meth:`_FactorState.estimate` per state (a full stratum sum each)."""
    return [state.estimate() for state in states]


def _path_reports(
    planned: FactorPlan, states: Sequence[_FactorState], estimates: Sequence[Estimate]
) -> Tuple[Tuple[PathConditionReport, ...], Estimate]:
    """Every path condition's report, and the estimate of their disjunction.

    ``states`` and ``estimates`` are in the order of the plan's incidence
    columns.  A state gets two factor reports, one for the occurrence that
    owns its samples and one for the in-run shares (the same one when the
    factor came from a cache), and every occurrence refers to one of them.
    """
    layout, _ = planned.factors()
    incidence = planned.incidence()
    means, variances = path_condition_moments(incidence, *moments(estimates))
    means, variances = means.tolist(), variances.tolist()
    factor_reports: List[FactorReport] = []
    for state, estimate in zip(states, estimates):
        owning = FactorReport(
            variables=frozenset(state.variables),
            factor=state.factor,
            estimate=estimate,
            from_cache=state.cached,
            samples=0 if state.cached else state.fresh_samples,
            warm=state.warm,
            key=state.store_key,
        )
        factor_reports += (owning, owning if state.cached else replace(owning, from_cache=True, samples=0))
    reports = tuple(
        PathConditionReport(pc, Estimate(mean, variance), tuple(map(factor_reports.__getitem__, slots)))
        for (pc, _), mean, variance, slots in zip(layout, means, variances, incidence.slots)
    )
    return reports, sum_in_order(means, variances)


def _drain(stream):
    """Run a generator to completion and return its ``StopIteration`` value."""
    while True:
        try:
            next(stream)
        except StopIteration as finished:
            return finished.value
