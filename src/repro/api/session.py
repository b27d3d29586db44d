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

A session also plans each program once: the first query of a program runs
symbolic execution, simplification, the dependency partition and store
keying, and later queries of the same program take that plan from a small
in-memory memo and go straight to sampling.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

from repro.api.query import Query, _ConstraintTarget, _ProgramTarget
from repro.core.profiles import Distribution, UniformDistribution, UsageProfile, parse_distribution_spec
from repro.core.qcoral import FactorPlan, QCoralConfig
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

#: Programs a session keeps planned; the least recently used goes first.
_PLAN_MEMO_SIZE = 32


@dataclass(frozen=True)
class _ProgramPlan:
    """One symbolic execution of a program, planned for one event."""

    event: FactorPlan
    bounded: FactorPlan
    paths: int
    truncated: bool


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
            runs with observability disabled (the zero-overhead path); a
            query-level :meth:`~repro.api.query.Query.with_tracing` overrides
            this per query.
        ledger: Run ledger every finished query appends its provenance
            record to — a path (backend inferred, or named by
            ``ledger_backend``) opened lazily and owned by the session, or a
            :class:`~repro.obs.ledger.RunLedger` instance, which is borrowed.
            None records nothing; a query-level
            :meth:`~repro.api.query.Query.with_ledger` overrides this per
            query.
        ledger_backend: Ledger backend name (``memory``/``jsonl``/``sqlite``);
            with a None ``ledger`` path this opens the backend without a path
            (only meaningful for ``memory``).

    Program plans: every :meth:`analyze` query takes its plan from a memo of
    the last 32 programs this session planned, keyed by ``repr(program)``
    (exact, unlike dataclass equality, which conflates ``0.0`` and ``-0.0``),
    the event, ``max_depth``, ``max_paths`` and the PARTCACHE flag.  A plan
    holds the event's and the bound-hitting constraint sets, their factor
    layouts, the truncation flag, and the store keys per store context
    (estimator version, method tag, profile fingerprint).  A plan is a pure
    function of its key, so answers, store rows and ledger families are
    bit-identical to planning afresh; factor states, samplers and store
    claims are still built per run.  The memo lives and dies with the
    session; constraint-set queries do not use it.
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
        # existence and leak the loser.  It guards the plan memo too.
        self._lock = threading.Lock()
        self._plans: "OrderedDict[Tuple[str, str, int, int, bool], _ProgramPlan]" = OrderedDict()

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
        closed flag is set (and raises instead of creating).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
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

    def _program_plan(
        self, target: _ProgramTarget, partition_and_cache: bool, observability: Optional[Observability]
    ) -> _ProgramPlan:
        """The plan of ``target``, symbolically executing its program on a memo miss.

        The memo key is exact: ``repr`` keeps ``0.0`` and ``-0.0`` apart,
        where dataclass equality does not.  A hit counts
        ``qcoral_plan_reuse_total`` on ``observability``.  Concurrent misses
        of one key each execute the program; the first to finish is kept.
        """
        key = (repr(target.program), target.event, target.max_depth, target.max_paths, partition_and_cache)
        with self._lock:
            planned = self._plans.get(key)
            if planned is not None:
                self._plans.move_to_end(key)
        if planned is not None:
            if observability is not None:
                observability.count("qcoral_plan_reuse_total")
            return planned
        symbolic = execute_program(target.program, max_depth=target.max_depth, max_paths=target.max_paths)
        planned = _ProgramPlan(
            event=FactorPlan(symbolic.constraint_set_for(target.event), partition_and_cache),
            bounded=FactorPlan(symbolic.bounded_constraint_set(), partition_and_cache),
            paths=symbolic.path_count,
            truncated=symbolic.truncated,
        )
        with self._lock:
            planned = self._plans.setdefault(key, planned)
            self._plans.move_to_end(key)
            if len(self._plans) > _PLAN_MEMO_SIZE:
                self._plans.popitem(last=False)
        return planned

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
        constraint_set = parse_constraint_set(constraints) if isinstance(constraints, str) else constraints
        return Query(
            _session=self,
            _target=_ConstraintTarget(constraint_set),
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

        With ``profile`` None the program's declared input bounds define a
        uniform profile.
        """
        self._check_open()
        parsed = parse_program(program) if isinstance(program, str) else program
        return Query(
            _session=self,
            _target=_ProgramTarget(parsed, event, max_depth, max_paths),
            _profile=_coerce_profile(profile),
            _base=config if config is not None else self._defaults,
        )
