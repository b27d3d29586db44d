"""The :class:`Session`: single entry point of the public quantification API.

A session owns the expensive, shareable resources — a sampling thread pool
and a persistent estimate store — exactly once.  Every query built from the
session borrows them, so ten analyses share one worker pool and one store
handle instead of paying ten start-up costs; closing the session (it is a context
manager, and ``close`` is idempotent) releases owned resources exactly once
and never touches instances the caller passed in.

Typical use::

    from repro import Session

    with Session(workers=4, store="estimates.db") as session:
        report = (
            session.quantify("x*x + y*y <= 1", {"x": (-1, 1), "y": (-1, 1)})
            .with_budget(100_000)
            .until(std=1e-3)
            .run()
        )
        program_report = session.analyze(source, "callSupervisor").run()

Both query shapes — direct constraint sets and symbolically executed
programs — go through the same fluent :class:`~repro.api.query.Query`, stream
the same per-round results, and return the same unified
:class:`~repro.api.report.Report`.

A session also plans each query target once: the first query of a program
or constraint set runs symbolic execution (or parsing), simplification, the
dependency partition and store keying, and later queries of the same target
take that plan from a small in-memory memo and go straight to the store and
sampling.  Stored pavings are decoded and weighed by the profile once per
session too, so a repeat whose factors the store already covers reads its
counts and reports, without building a sampler.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, TypeVar, Union

from repro.api.query import Query, _ConstraintTarget, _ProgramTarget
from repro.core.cache import LRUMemo
from repro.core.profiles import Distribution, UniformDistribution, UsageProfile, parse_distribution_spec
from repro.core.qcoral import FactorPlan, QCoralConfig
from repro.core.stratified import PAVING_MEMO_SIZE
from repro.errors import ConfigurationError, ReproError
from repro.lang.ast import ConstraintSet
from repro.obs import Observability
from repro.obs.ledger import LEDGER_BACKENDS, RunLedger, ledger_backend_for, open_ledger
from repro.lang.parser import parse_constraint_set
from repro.store.backends import STORE_BACKENDS, EstimateStore, open_store
from repro.symexec.ast import Program
from repro.symexec.parser import parse_program
from repro.symexec.symbolic import execute_program

#: What callers may pass wherever a usage profile is expected: a finished
#: profile, or a mapping of variable name → distribution / ``(lo, hi)``
#: uniform bounds / CLI-style distribution spec string.
ProfileLike = Union[UsageProfile, Mapping[str, object]]

#: Query targets (programs and constraint sets) a session keeps planned; the
#: least recently used goes first.  A served-mix pass sends 58–68 distinct
#: constraint texts, so 32 would thrash; 128 plans of the largest VolComp
#: program (ATRIAL, 2 250 paths) hold ~44 MB.
_PLAN_MEMO_SIZE = 128


@dataclass(frozen=True)
class _ProgramPlan:
    """One symbolic execution of a program, planned for one event."""

    program: Program
    event: FactorPlan
    bounded: FactorPlan
    paths: int
    truncated: bool


#: A memoised plan: a :class:`_ProgramPlan` or a constraint set's :class:`FactorPlan`.
_Plan = TypeVar("_Plan", _ProgramPlan, FactorPlan)


def _coerce_profile(profile: Optional[ProfileLike]) -> Optional[UsageProfile]:
    if profile is None or isinstance(profile, UsageProfile):
        return profile
    if isinstance(profile, Mapping):
        distributions: dict = {}
        for name, spec in profile.items():
            if isinstance(spec, Distribution):
                distributions[name] = spec
            elif isinstance(spec, str):
                try:
                    distributions[name] = parse_distribution_spec(spec)
                except ReproError as error:
                    # Malformed spec strings (e.g. ``binomial:n:p`` with
                    # non-numeric parts) must surface as a configuration
                    # problem naming the variable — a clean 400 for the
                    # server, never a bare traceback.
                    raise ConfigurationError(f"cannot interpret profile entry {name}={spec!r}: {error}") from None
            elif isinstance(spec, (tuple, list)) and len(spec) == 2:
                try:
                    low, high = float(spec[0]), float(spec[1])
                except (TypeError, ValueError):
                    raise ConfigurationError(
                        f"cannot interpret profile entry {name}={spec!r}; a (lo, hi) pair must be numeric"
                    ) from None
                distributions[name] = UniformDistribution(low, high)
            else:
                raise ConfigurationError(
                    f"cannot interpret profile entry {name}={spec!r}; expected a Distribution, "
                    f"a (lo, hi) pair, or a distribution spec string"
                )
        return UsageProfile(distributions)
    raise ConfigurationError(f"cannot interpret {profile!r} as a usage profile")


class Session:
    """Owns the sampling pool + store lifecycles and builds :class:`Query` objects.

    Args:
        workers: Threads sampling each round's chunks, shared by every query
            of this session.  1 (the default) samples in the calling thread;
            above 1 the session lazily creates one
            :class:`concurrent.futures.ThreadPoolExecutor` of that size on
            first use and shuts it down on :meth:`close`.  For a fixed seed
            the answers are bit-identical at every worker count.
        store: Persistent estimate store shared by every query — a path
            (backend inferred, or named by ``store_backend``) opened lazily
            and owned by the session, or an :class:`EstimateStore` instance,
            which is borrowed.  None runs without cross-run reuse.
        store_backend: Store backend name (``memory``/``jsonl``/``sqlite``);
            with a None ``store`` path this opens the backend without a path
            (only meaningful for ``memory``).
        store_readonly: Open the store read-only (reuse without write-back).
        defaults: Base :class:`QCoralConfig` every query starts from.
        observability: An :class:`~repro.obs.Observability` hub shared by
            every query of this session — *borrowed*, never flushed or reset
            here, so one hub can aggregate metrics across sessions.  None
            runs with observability disabled (the zero-overhead path).
        ledger: Run ledger every finished query appends its provenance
            record to — a path (backend inferred, or named by
            ``ledger_backend``) opened lazily and owned by the session, or a
            :class:`~repro.obs.ledger.RunLedger` instance, which is borrowed.
            None records nothing.
        ledger_backend: Ledger backend name (``memory``/``jsonl``/``sqlite``);
            with a None ``ledger`` path this opens the backend without a path
            (only meaningful for ``memory``).

    Plans: every query takes its plan from a memo of the last 128 targets
    this session planned.  A program given as source text is keyed by the
    exact text, the event, ``max_depth``, ``max_paths`` and the PARTCACHE
    flag, so a repeated text is parsed once; a :class:`Program` object by its
    ``repr`` (exact, unlike dataclass equality, which conflates ``0.0`` and
    ``-0.0``) and the same four.  Its plan holds the parsed program, the
    event's and the bound-hitting constraint sets, their factor layouts, the
    truncation flag, and the store keys per store context (estimator
    version, method tag, profile fingerprint).  A constraint set given as
    text is keyed by the exact text and the PARTCACHE flag, so a repeated
    text is parsed once; a :class:`ConstraintSet` object by its ``repr`` and
    the flag.  Its plan holds the set, its factor layout and its store keys.
    Stored pavings: the session also keeps each stored paving it read decoded,
    with its boxes' profile masses, keyed by store context, paving text and
    the two variable orders; the entry's counts are read afresh every run.
    Plans and pavings are pure functions of their keys, so answers, store
    rows and ledger families are bit-identical to planning afresh; factor
    states and store claims are still built per run, and samplers whenever a
    factor needs samples.  Both memos live and die with the session.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        store: Union[None, str, EstimateStore] = None,
        store_backend: Optional[str] = None,
        store_readonly: bool = False,
        defaults: Optional[QCoralConfig] = None,
        observability: Optional[Observability] = None,
        ledger: Union[None, str, RunLedger] = None,
        ledger_backend: Optional[str] = None,
    ) -> None:
        if observability is not None and not isinstance(observability, Observability):
            raise ConfigurationError(
                f"observability must be an Observability instance or None, not {type(observability).__name__}"
            )
        if not isinstance(workers, int) or workers < 1:
            raise ConfigurationError(f"workers must be a positive integer, not {workers!r}")
        if isinstance(store, EstimateStore) and store_backend is not None:
            raise ConfigurationError("store_backend only applies when the store is given as a path")
        if store_backend is not None and store_backend not in STORE_BACKENDS:
            raise ConfigurationError(f"unknown store backend {store_backend!r}; expected one of {STORE_BACKENDS}")
        if store_readonly and store is None and store_backend is None:
            raise ConfigurationError("store_readonly requires a store path or backend")
        if isinstance(ledger, RunLedger) and ledger_backend is not None:
            raise ConfigurationError("ledger_backend only applies when the ledger is given as a path")
        if ledger_backend is not None and ledger_backend not in LEDGER_BACKENDS:
            raise ConfigurationError(f"unknown ledger backend {ledger_backend!r}; expected one of {LEDGER_BACKENDS}")
        if isinstance(ledger, str) or ledger_backend is not None:
            # The ledger opens only when the first run finishes; check the
            # path/backend pair now so a bad pair fails before any sampling.
            ledger_backend_for(ledger if isinstance(ledger, str) else None, ledger_backend)
        self._defaults = defaults if defaults is not None else QCoralConfig()
        self._workers = workers
        self._store_spec = store
        self._store_backend = store_backend
        self._store_readonly = store_readonly
        self._pool: Optional[ThreadPoolExecutor] = None
        self._store: Optional[EstimateStore] = store if isinstance(store, EstimateStore) else None
        self._owns_store = False
        self._observability = observability
        self._ledger_spec = ledger
        self._ledger_backend = ledger_backend
        self._ledger: Optional[RunLedger] = ledger if isinstance(ledger, RunLedger) else None
        self._owns_ledger = False
        self._closed = False
        # Guards the lazy pool/store creation: concurrent queries (e.g. a
        # server's requests) must share one instance, never race two into
        # existence and leak the loser.
        self._lock = threading.Lock()
        self._plans = LRUMemo(_PLAN_MEMO_SIZE)
        self._pavings = LRUMemo(PAVING_MEMO_SIZE)

    # ------------------------------------------------------------------ #
    # Owned resources (lazy, borrowed by every query)
    # ------------------------------------------------------------------ #
    @property
    def pool(self) -> Optional[ThreadPoolExecutor]:
        """The session's sampling pool (created lazily; None at one worker)."""
        with self._lock:
            # _closed is checked under the same lock that guards creation and
            # close(), so a concurrent close() can never interleave with a
            # lazy creation and strand a live pool on a closed session.
            self._check_open()
            if self._pool is None and self._workers > 1:
                self._pool = ThreadPoolExecutor(max_workers=self._workers, thread_name_prefix="qcoral-sample")
            return self._pool

    @property
    def store(self) -> Optional[EstimateStore]:
        """The session's estimate store (opened lazily from a path/backend)."""
        with self._lock:
            self._check_open()
            if self._store is None and (isinstance(self._store_spec, str) or self._store_backend is not None):
                self._store = open_store(
                    self._store_spec if isinstance(self._store_spec, str) else None,
                    self._store_backend,
                    readonly=self._store_readonly,
                )
                self._owns_store = True
            return self._store

    @property
    def ledger(self) -> Optional[RunLedger]:
        """The session's run ledger (opened lazily from a path/backend)."""
        with self._lock:
            self._check_open()
            if self._ledger is None and (isinstance(self._ledger_spec, str) or self._ledger_backend is not None):
                self._ledger = open_ledger(
                    self._ledger_spec if isinstance(self._ledger_spec, str) else None,
                    self._ledger_backend,
                )
                self._owns_ledger = True
            return self._ledger

    @property
    def defaults(self) -> QCoralConfig:
        """The base configuration every query of this session starts from."""
        return self._defaults

    @property
    def observability(self) -> Optional[Observability]:
        """The borrowed observability hub shared by every query (or None)."""
        return self._observability

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Release owned resources exactly once (idempotent, thread-safe).

        Store and ledger instances passed to the constructor are borrowed and
        stay open for their owner, no matter how often this runs.  Taking the
        creation lock first means a lazy creation racing this close either
        completes (and its resource is closed here) or starts after the
        closed flag is set (and raises instead of creating).  The plan and
        paving memos are emptied too, so a closed session that is still
        referenced holds none of them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._plans.clear()
            self._pavings.clear()
            pool = self._pool
            store = self._store if self._owns_store else None
            ledger = self._ledger if self._owns_ledger else None
        if pool is not None:
            pool.shutdown(wait=True)
        if store is not None:
            store.close()
        if ledger is not None:
            ledger.close()

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        store = self._store.describe() if self._store is not None else self._store_spec
        return f"Session(workers={self._workers}, store={store!r}, closed={self._closed})"

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("this Session is closed; create a new one")

    def _plan(self, key: tuple, plan: Callable[[], _Plan], observability: Optional[Observability]) -> _Plan:
        """The memo's plan under ``key``, made by ``plan()`` on a miss.

        A hit counts ``qcoral_plan_reuse_total`` on ``observability``.
        Concurrent misses of one key each plan; the first to finish is kept.
        """
        planned, reused = self._plans.get(key, plan)
        if reused and observability is not None:
            observability.count("qcoral_plan_reuse_total")
        return planned

    def _program_plan(
        self, target: _ProgramTarget, partition_and_cache: bool, observability: Optional[Observability]
    ) -> _ProgramPlan:
        """The plan of ``target``, symbolically executing its program on a memo miss.

        Source text is keyed exactly as sent and a program by its ``repr``,
        which keeps ``0.0`` and ``-0.0`` apart, where dataclass equality does
        not.
        """

        def plan() -> _ProgramPlan:
            symbolic = execute_program(target.program, max_depth=target.max_depth, max_paths=target.max_paths)
            return _ProgramPlan(
                program=target.program,
                event=FactorPlan(symbolic.constraint_set_for(target.event), partition_and_cache),
                bounded=FactorPlan(symbolic.bounded_constraint_set(), partition_and_cache),
                paths=symbolic.path_count,
                truncated=symbolic.truncated,
            )

        source = ("program-text", target.text) if target.text is not None else ("program", repr(target.program))
        key = source + (target.event, target.max_depth, target.max_paths, partition_and_cache)
        return self._plan(key, plan, observability)

    @staticmethod
    def _constraint_key(target: _ConstraintTarget, partition_and_cache: bool) -> tuple:
        if target.text is not None:
            return ("text", target.text, partition_and_cache)
        return ("set", repr(target.constraint_set), partition_and_cache)

    def _constraint_plan(
        self, target: _ConstraintTarget, partition_and_cache: bool, observability: Optional[Observability]
    ) -> FactorPlan:
        """The plan of a constraint-set target, planning its set on a memo miss.

        Text is keyed exactly as sent and a set by its ``repr``, so
        ``x <= 0.0`` and ``x <= -0.0`` plan apart.  The plan holds the set
        it was built for: analyse that one, which equals ``target``'s.
        """
        key = self._constraint_key(target, partition_and_cache)
        return self._plan(key, lambda: FactorPlan(target.constraint_set, partition_and_cache), observability)

    def _parse_program(self, text: str, event: str, max_depth: int, max_paths: int) -> Program:
        """``text`` parsed, taken from a memoised plan of the same query target when there is one."""
        for partition_and_cache in (True, False):
            planned = self._plans.peek(("program-text", text, event, max_depth, max_paths, partition_and_cache))
            if planned is not None:
                return planned.program
        return parse_program(text)

    def _parse(self, text: str) -> ConstraintSet:
        """``text`` parsed, taken from a memoised plan of the same text when there is one."""
        for partition_and_cache in (True, False):
            planned = self._plans.peek(("text", text, partition_and_cache))
            if planned is not None:
                return planned.constraint_set
        return parse_constraint_set(text)

    # ------------------------------------------------------------------ #
    # Query builders
    # ------------------------------------------------------------------ #
    def quantify(
        self,
        constraints: Union[str, ConstraintSet],
        profile: Optional[ProfileLike] = None,
        *,
        config: Optional[QCoralConfig] = None,
    ) -> Query:
        """A query quantifying ``constraints`` directly under ``profile``.

        ``constraints`` is a :class:`ConstraintSet` or constraint-language
        text (parsed here, so syntax errors surface at build time).
        """
        self._check_open()
        if isinstance(constraints, str):
            target = _ConstraintTarget(self._parse(constraints), constraints)
        else:
            target = _ConstraintTarget(constraints)
        return Query(
            _session=self,
            _target=target,
            _profile=_coerce_profile(profile),
            _base=config if config is not None else self._defaults,
        )

    def analyze(
        self,
        program: Union[str, Program],
        event: str,
        profile: Optional[ProfileLike] = None,
        *,
        max_depth: int = 50,
        max_paths: int = 100_000,
        config: Optional[QCoralConfig] = None,
    ) -> Query:
        """A query analysing ``program`` end to end for ``event`` (Figure 1).

        ``program`` is a :class:`Program` or source text (parsed here, so
        syntax errors surface at build time).  With ``profile`` None the
        program's declared input bounds define a uniform profile.
        """
        self._check_open()
        if isinstance(program, str):
            target = _ProgramTarget(
                self._parse_program(program, event, max_depth, max_paths), event, max_depth, max_paths, program
            )
        else:
            target = _ProgramTarget(program, event, max_depth, max_paths)
        return Query(
            _session=self,
            _target=target,
            _profile=_coerce_profile(profile),
            _base=config if config is not None else self._defaults,
        )
