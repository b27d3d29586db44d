"""The fluent, immutable :class:`Query` builder and its streaming results.

A :class:`Query` describes one analysis — what to quantify (a constraint set
or a program event), under which usage profile, with which estimation
settings — without running anything.  Every fluent method returns a **new**
query; the receiver is never mutated, so queries can be shared, specialised,
and re-run freely::

    base = session.quantify(cs, profile).with_budget(100_000)
    fast = base.method("importance").until(std=1e-4)
    report = fast.run()
    for round_report in fast.stream():      # same numbers, incrementally
        print(round_report.std)

Queries *compile* down to the engine's :class:`~repro.core.qcoral.QCoralConfig`
(:meth:`Query.compile`), so the facade adds no second configuration system —
and a fixed seed produces bit-identical results through the facade and through
:class:`~repro.core.qcoral.QCoralAnalyzer` directly.  A query carries no
resources: every run uses its session's pool, store, ledger and hub.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple, Union

from repro.api.report import Report
from repro.core.estimate import Estimate
from repro.core.profiles import UsageProfile
from repro.core.qcoral import QCoralAnalyzer, QCoralConfig, RoundReport
from repro.errors import AnalysisError, ConfigurationError
from repro.lang.ast import ConstraintSet
from repro.obs.diagnostics import symexec_truncated_diagnostic
from repro.obs.ledger import RunLedger, ledger_entry_for
from repro.symexec.ast import Program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session builds queries)
    from repro.api.session import Session

#: QCoralConfig field names a query may override (anything else is a typo).
_CONFIG_FIELDS = frozenset(field.name for field in fields(QCoralConfig))


@dataclass(frozen=True)
class _ConstraintTarget:
    """A constraint set to quantify directly (the paper's microbenchmark mode).

    ``text`` is the constraint-language text the set was parsed from, when it
    was given as text; the session's plan memo keys on it.
    """

    constraint_set: ConstraintSet
    text: Optional[str] = None


@dataclass(frozen=True)
class _ProgramTarget:
    """A program + target event to analyse end to end (paper Figure 1).

    ``text`` is the source the program was parsed from, when it was given as
    text; the session's plan memo keys on it.
    """

    program: Program
    event: str
    max_depth: int
    max_paths: int
    text: Optional[str] = None


class RoundStream(Iterator[RoundReport]):
    """Iterator over per-round reports with early-stop and a final report.

    Wraps the engine's round generator: iterating yields one
    :class:`~repro.core.qcoral.RoundReport` per adaptive round as it
    completes.  Call :meth:`stop` (or just stop iterating and read
    :attr:`report`) to end sampling early; the :attr:`report` property then
    finalises the analysis with the rounds drawn so far and returns the
    unified :class:`~repro.api.report.Report`.
    """

    def __init__(self, generator) -> None:
        self._generator = generator
        self._report: Optional[Report] = None
        self._started = False
        self._stop = False
        self._done = False
        self._failed = False

    def __iter__(self) -> "RoundStream":
        return self

    def __next__(self) -> RoundReport:
        if self._done:
            raise StopIteration
        try:
            if not self._started:
                self._started = True
                return next(self._generator)
            return self._generator.send(self._stop)
        except StopIteration as finished:
            self._done = True
            self._report = finished.value
            raise StopIteration from None
        except BaseException:
            # The engine failed mid-stream; remember it so a later .report
            # points at the real cause, not at close() semantics.
            self._done = True
            self._failed = True
            raise

    def stop(self) -> None:
        """Request an early stop: no further rounds are sampled."""
        self._stop = True

    def close(self) -> None:
        """Abandon the stream without building a report.

        Caches and the persistent store are still flushed with whatever was
        drawn (the engine finalises on ``GeneratorExit``); use :attr:`report`
        instead when the partial result is wanted.  Abandoning by simply
        dropping the stream flushes too, but only when the garbage collector
        gets to it — ``close()`` is the deterministic form.
        """
        self._done = True
        self._generator.close()

    @property
    def report(self) -> Report:
        """The final report; finalises (stopping early) if still streaming."""
        if not self._done:
            self._stop = True
            while not self._done:
                try:
                    next(self)
                except StopIteration:
                    break
        if self._report is None:
            if self._failed:
                raise AnalysisError(
                    "this stream already failed with an error before producing a result; "
                    "fix the underlying failure and re-run the query"
                )
            raise AnalysisError(
                "this stream was closed without building a result; read .report "
                "(or use run()) instead of close() when the partial report is wanted"
            )
        return self._report


@dataclass(frozen=True)
class Query:
    """An immutable, fluent description of one analysis.

    Build through :meth:`Session.quantify` or :meth:`Session.analyze`; refine
    with the fluent methods; execute with :meth:`run` (blocking),
    :meth:`stream` (incremental per-round results), or :meth:`repeat`
    (independent seeded trials).
    """

    _session: "Session"
    _target: Union[_ConstraintTarget, _ProgramTarget]
    _profile: Optional[object]
    _base: QCoralConfig
    _settings: Tuple[Tuple[str, Any], ...] = ()
    _baseline: Optional[ConstraintSet] = None

    # ------------------------------------------------------------------ #
    # Fluent refinement (every method returns a NEW query)
    # ------------------------------------------------------------------ #
    def _with(self, **updates: Any) -> "Query":
        merged: Dict[str, Any] = dict(self._settings)
        merged.update(updates)
        return replace(self, _settings=tuple(sorted(merged.items())))

    def configure(self, **settings: Any) -> "Query":
        """Override any :class:`QCoralConfig` field by name (escape hatch)."""
        unknown = sorted(set(settings) - _CONFIG_FIELDS)
        if unknown:
            raise ConfigurationError(f"unknown configuration fields {unknown}; expected QCoralConfig fields")
        return self._with(**settings)

    def with_budget(self, samples: int) -> "Query":
        """Total sampling budget per estimated factor."""
        return self._with(samples_per_query=samples)

    def method(self, name: str) -> "Query":
        """Estimation method (``hit-or-miss`` or ``importance``), checked at run time."""
        return self._with(method=name)

    def until(self, *, std: Optional[float] = None, rounds: Optional[int] = None) -> "Query":
        """Convergence criteria: a target standard deviation and/or a round cap.

        Note the engine contract inherited from :class:`QCoralConfig`: a
        ``std`` target with ``rounds`` left at (or set to) 1 is raised to
        :data:`~repro.core.qcoral.DEFAULT_ADAPTIVE_ROUNDS`, because a
        one-round run cannot adapt toward a target.  Pass ``rounds >= 2`` to
        cap the adaptive loop explicitly.
        """
        if std is None and rounds is None:
            raise ConfigurationError("until() needs a std= target, a rounds= cap, or both")
        updates: Dict[str, Any] = {}
        if std is not None:
            updates["target_std"] = std
        if rounds is not None:
            updates["max_rounds"] = rounds
        return self._with(**updates)

    def allocation(self, policy: str) -> "Query":
        """Per-stratum/per-factor budget split policy (``even``/``neyman``/``mass``)."""
        return self._with(allocation=policy)

    def seed(self, seed: Optional[int]) -> "Query":
        """Master random seed (None draws fresh entropy)."""
        return self._with(seed=seed)

    def features(
        self,
        *,
        stratified: Optional[bool] = None,
        partition_and_cache: Optional[bool] = None,
    ) -> "Query":
        """Toggle the paper's STRAT / PARTCACHE features."""
        updates: Dict[str, Any] = {}
        if stratified is not None:
            updates["stratified"] = stratified
        if partition_and_cache is not None:
            updates["partition_and_cache"] = partition_and_cache
        if not updates:
            raise ConfigurationError("features() needs stratified= and/or partition_and_cache=")
        return self._with(**updates)

    def against_baseline(self, baseline: Union[str, ConstraintSet]) -> "Query":
        """Run this query *incrementally* against a previous version.

        ``baseline`` is the constraint set of the program version last
        quantified (text or parsed).  Before sampling, the run diffs the two
        versions through the store's canonical factor keys
        (:mod:`repro.incremental`): factors the diff proves unchanged reuse
        stored estimates outright — zero samples, exactly like a warm store
        freeze — and the budget concentrates on the changed residual.  The
        finished report carries a ``REUSE_SUMMARY`` diagnostic (factors
        reused, samples saved, residual budget), which the run ledger records
        too.

        Only constraint-set queries support a baseline; incremental reuse
        also needs the PARTCACHE feature (it is what gives factors canonical
        keys), which is validated at run time.  Without an attached store
        the diff still runs and the summary reports an all-cold plan.
        """
        if not isinstance(self._target, _ConstraintTarget):
            raise ConfigurationError(
                "against_baseline() applies to constraint-set queries (Session.quantify); "
                "symbolically execute both program versions and diff their constraint sets instead"
            )
        from repro.lang.parser import parse_constraint_set

        parsed = parse_constraint_set(baseline) if isinstance(baseline, str) else baseline
        return replace(self, _baseline=parsed)

    def reuse_plan(self):
        """Project the incremental budget without running the query.

        Diffs the baseline (set with :meth:`against_baseline`) against this
        query's constraint set and folds in the store's per-factor coverage;
        returns the :class:`~repro.incremental.plan.ReusePlan` the run would
        execute.  The session's store (if any) supplies the coverage.
        """
        config = self.compile()
        diff = self._baseline_diff(config)
        from repro.incremental.plan import plan_reuse

        return plan_reuse(diff, self._session.store, config.samples_per_query)

    def _baseline_diff(self, config: QCoralConfig):
        """The constraint-set diff of this query's baseline vs its target."""
        if self._baseline is None:
            raise ConfigurationError("no baseline set; call against_baseline() first")
        if not isinstance(self._target, _ConstraintTarget):
            raise ConfigurationError("incremental runs need a constraint-set target")
        if self._profile is None:
            raise ConfigurationError(
                "incremental quantification needs a usage profile "
                "(pass one to Session.quantify, e.g. {'x': (-1, 1)})"
            )
        if not config.partition_and_cache:
            raise ConfigurationError(
                "incremental quantification needs the PARTCACHE feature: "
                "factor reuse keys on the canonical factors it produces"
            )
        from repro.incremental.diff import diff_constraint_sets

        return diff_constraint_sets(self._baseline, self._target.constraint_set, self._profile, config=config)

    # ------------------------------------------------------------------ #
    # Compilation and execution
    # ------------------------------------------------------------------ #
    def compile(self) -> QCoralConfig:
        """The :class:`QCoralConfig` this query resolves to."""
        overrides = dict(self._settings)
        if not overrides:
            return self._base
        return replace(self._base, **overrides)

    def run(self) -> Report:
        """Execute the query to completion and return the unified report."""
        stream = self.stream()
        for _ in stream:
            pass
        return stream.report

    def stream(self) -> RoundStream:
        """Execute incrementally: a :class:`RoundStream` of per-round reports.

        Yields the same per-round numbers a blocking :meth:`run` produces for
        the same seed (both drain one engine generator); stop iterating early
        to cut the sampling short and read ``.report`` for the partial result.
        """
        return RoundStream(self._execute())

    def repeat(self, runs: int = 30, base_seed: int = 0) -> Report:
        """Run the query at ``runs`` independent spawned seeds and aggregate.

        Seeds come from :func:`repro.analysis.runner.trial_seeds`, so the
        trial estimates match the paper's repeated-execution protocol; the
        returned report has ``kind="repeated"`` with per-trial records in
        ``trials``.  Trials run one after another; each samples on the
        session's pool.
        """
        from repro.analysis.runner import repeat_query

        repeated = repeat_query(self, runs=runs, base_seed=base_seed)
        return Report.from_repeated(repeated, config=self.compile())

    # ------------------------------------------------------------------ #
    # The execution generator behind run()/stream()
    # ------------------------------------------------------------------ #
    def _execute(self):
        config = self.compile()
        session = self._session
        session._check_open()
        pool = session.pool
        store = session.store
        observability = session.observability

        if isinstance(self._target, _ConstraintTarget):
            if self._profile is None:
                raise ConfigurationError(
                    "quantifying a constraint set needs a usage profile "
                    "(pass one to Session.quantify, e.g. {'x': (-1, 1)})"
                )
            planned = session._constraint_plan(self._target, config.partition_and_cache, observability)
            analyzer = QCoralAnalyzer(self._profile, config, pool=pool, store=store, observability=observability)
            analyzer._adopt_plans(planned)
            analyzer._adopt_pavings(session._pavings)
            # An incremental run plans its reuse before sampling: the diff and
            # the store-coverage projection are RNG-free, so they cannot
            # perturb the estimates (the bit-identity contract of an
            # all-changed diff vs a cold run rests on exactly this).
            reuse = None
            if self._baseline is not None:
                from repro.incremental.plan import plan_reuse

                diff = self._baseline_diff(config)
                reuse = (diff, plan_reuse(diff, store, config.samples_per_query))
            result = yield from analyzer.analyze_stream(planned.constraint_set)
            report = Report.from_qcoral(result)
            if reuse is not None:
                from repro.incremental.plan import attach_reuse_summary

                report = attach_reuse_summary(report, reuse[0], reuse[1])
            self._record_run(report, self._profile)
            return report

        # Program target: bounded symbolic execution, then quantification of
        # the event's constraint set — streamed — and of the bound-hitting
        # paths (the paper's confidence measure) as a final blocking step.
        # One analyzer serves both, so factors shared between the event and
        # the bound-hitting paths are sampled once.  The session plans each
        # program once; a repeat query skips straight to sampling.
        target = self._target
        profile = self._profile if self._profile is not None else UsageProfile.uniform(target.program.input_bounds())
        declared = target.program.declared_events()
        if target.event not in declared:
            raise AnalysisError(
                f"event {target.event!r} does not occur in the program; declared events: {list(declared)}"
            )
        # A declared event that no feasible path reaches has an empty
        # constraint set, which quantifies to exactly 0 with σ 0.
        planned = session._program_plan(target, config.partition_and_cache, observability)
        analyzer = QCoralAnalyzer(profile, config, pool=pool, store=store, observability=observability)
        analyzer._adopt_plans(planned.event, planned.bounded)
        analyzer._adopt_pavings(session._pavings)
        # Pump the event stream by hand (rather than `yield from`) so the
        # consumer's stop signal is visible here: a cancelled stream must
        # not fall through into a full-budget bounded-paths analysis.
        rounds = analyzer.analyze_stream(planned.event.constraint_set)
        stopped = False
        sent: Optional[bool] = None
        try:
            while True:
                try:
                    report = rounds.send(sent)
                except StopIteration as finished:
                    result = finished.value
                    break
                sent = yield report
                stopped = stopped or bool(sent)
        finally:
            # Closing an already-finished generator is a no-op; on
            # abandonment this triggers the engine's GeneratorExit flush.
            rounds.close()
        bounded_set = planned.bounded.constraint_set
        bounded: Optional[Estimate]
        if not bounded_set.path_conditions:
            # No path hit the execution bound: exactly zero mass.
            bounded = Estimate.zero()
        elif stopped:
            # The caller cancelled the run: the bound-hitting mass was
            # never quantified, and None says so (0.0 would claim an
            # exact confidence measure that was not computed).
            bounded = None
        else:
            bounded = analyzer.analyze(bounded_set).estimate
        report = Report.from_qcoral(result, kind="program", event=target.event, bounded=bounded)
        if planned.truncated:
            diagnostic = symexec_truncated_diagnostic(planned.paths, target.max_paths)
            report = replace(report, diagnostics=report.diagnostics + (diagnostic,))
        self._record_run(report, profile)
        return report

    def _record_run(self, report: Report, profile: Optional[object]) -> None:
        """Append one finished run's provenance record to the session's ledger, if any."""
        ledger: Optional[RunLedger] = self._session.ledger
        if ledger is not None:
            ledger.append(ledger_entry_for(report, profile))
