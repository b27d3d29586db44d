"""Append-only run ledger: per-run provenance records for cross-run analysis.

Every finished run through the facade can append one :class:`LedgerEntry` —
the Report summary (including the metrics snapshot and run-health
diagnostics), keyed by the *constraint family* it quantified — to a ledger
file living beside the estimate store.  The family digest reuses the store's
canonical factor keys (method tag + estimator version + per-factor digests),
so two runs land in the same family exactly when the store would let them
share estimates; ``qcoral obs diff`` and ``qcoral obs history`` then compare
and render runs within a family across tool or program revisions.

Backends mirror :func:`repro.store.backends.open_store`: ``None`` /
``":memory:"`` → in-memory, ``*.jsonl`` → newline-delimited JSON, anything
else → SQLite.  All backends are append-only by design — a ledger is an audit
log, not a cache.

Import-order note: ``repro.core.stratified`` imports :mod:`repro.obs`, so
this module must not import ``repro.core.*`` / ``repro.store.*`` at module
level; the entry builder imports them lazily.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.diagnostics import Diagnostic, diagnostics_from_payload

#: Schema tag stamped on every ledger entry.
LEDGER_SCHEMA = "qcoral-ledger-1"

#: Ledger backend names (the same three as the estimate store's).
LEDGER_BACKENDS = ("memory", "jsonl", "sqlite")


def config_fingerprint(config: Any) -> str:
    """Short stable digest of a run configuration (dataclass or repr-able).

    Used both in trace headers and ledger entries so two runs can be checked
    for "same settings" without embedding the whole config.  Dataclass field
    order is definition order, so the rendering — and the digest — is stable
    across processes.  A frozen dataclass keeps its digest, so a run that
    stamps its trace header and its ledger entry renders the config once.
    """
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]
    cached = getattr(config, "__dict__", None)
    fingerprint = cached.get("_config_fingerprint") if cached is not None else None
    if fingerprint is None:
        fingerprint = hashlib.sha256(repr(dataclasses.asdict(config)).encode("utf-8")).hexdigest()[:16]
        if cached is not None and type(config).__dataclass_params__.frozen:
            object.__setattr__(config, "_config_fingerprint", fingerprint)
    return fingerprint


@dataclass(frozen=True)
class LedgerEntry:
    """One run's provenance record.

    ``family`` groups runs quantifying the same constraint set under the same
    method/estimator version; ``run_id`` is a content digest identifying this
    particular run's payload.  ``report`` is the full
    :meth:`~repro.api.report.Report.to_dict` rendering (schema-versioned, and
    carrying the metrics snapshot and diagnostics when present).  ``created``
    is an informational wall-clock stamp — never part of any determinism
    contract.
    """

    family: str
    run_id: str
    seed: Optional[int]
    method: str
    features: str
    estimator_version: str
    repro_version: str
    created: float
    factor_keys: Tuple[str, ...] = ()
    report: Mapping[str, Any] = field(default_factory=dict)

    # Convenience accessors for the CLI / analysis layers.
    @property
    def mean(self) -> float:
        return float(self.report.get("mean", 0.0))

    @property
    def std(self) -> float:
        return float(self.report.get("std", 0.0))

    @property
    def samples(self) -> int:
        return int(self.report.get("samples", 0))

    @property
    def rounds(self) -> int:
        return len(self.report.get("rounds") or ())

    @property
    def analysis_time(self) -> float:
        return float(self.report.get("time", 0.0))

    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        """Parsed diagnostics stored with the run (may be empty)."""
        payload = self.report.get("diagnostics") or ()
        return diagnostics_from_payload(payload)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": LEDGER_SCHEMA,
            "family": self.family,
            "run_id": self.run_id,
            "seed": self.seed,
            "method": self.method,
            "features": self.features,
            "estimator_version": self.estimator_version,
            "repro_version": self.repro_version,
            "created": self.created,
            "factor_keys": list(self.factor_keys),
            "report": dict(self.report),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LedgerEntry":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad payloads."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"malformed ledger entry: expected a mapping, got {type(payload).__name__}")
        schema = payload.get("schema")
        if not isinstance(schema, str) or not schema.startswith("qcoral-ledger"):
            raise ValueError(f"malformed ledger entry: unrecognised schema {schema!r}")
        for key in ("family", "run_id", "method"):
            if not isinstance(payload.get(key), str):
                raise ValueError(f"malformed ledger entry: missing or non-string {key!r}")
        report = payload.get("report")
        if not isinstance(report, Mapping):
            raise ValueError("malformed ledger entry: 'report' must be a mapping")
        seed = payload.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ValueError("malformed ledger entry: 'seed' must be an integer or null")
        return cls(
            family=payload["family"],
            run_id=payload["run_id"],
            seed=seed,
            method=payload["method"],
            features=str(payload.get("features", "")),
            estimator_version=str(payload.get("estimator_version", "")),
            repro_version=str(payload.get("repro_version", "")),
            created=float(payload.get("created", 0.0)),
            factor_keys=tuple(str(key) for key in payload.get("factor_keys", ())),
            report=dict(report),
        )


class RunLedger:
    """Base class: an append-only store of :class:`LedgerEntry` records."""

    backend = "memory"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ledger is closed")

    def append(self, entry: LedgerEntry) -> None:
        raise NotImplementedError

    def entries(self, family: Optional[str] = None) -> List[LedgerEntry]:
        """All entries in append order, optionally filtered to one family."""
        raise NotImplementedError

    def families(self) -> List[str]:
        """Distinct families in order of first appearance."""
        seen: Dict[str, None] = {}
        for entry in self.entries():
            seen.setdefault(entry.family, None)
        return list(seen)

    def latest(self, family: str) -> Optional[LedgerEntry]:
        """The most recent entry of ``family``, or None when it has none.

        The incremental CI gate uses this to fetch the comparison baseline:
        the family digest of the *baseline* constraint set resolves here to
        the last recorded run of that program version.
        """
        entries = self.entries(family)
        return entries[-1] if entries else None

    def __len__(self) -> int:
        return len(self.entries())

    def close(self) -> None:
        self._closed = True

    def describe(self) -> str:
        return self.backend

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class MemoryLedger(RunLedger):
    """Process-local ledger (tests and throwaway sessions)."""

    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._entries: List[LedgerEntry] = []

    def append(self, entry: LedgerEntry) -> None:
        with self._lock:
            self._check_open()
            self._entries.append(entry)

    def entries(self, family: Optional[str] = None) -> List[LedgerEntry]:
        with self._lock:
            self._check_open()
            if family is None:
                return list(self._entries)
            return [entry for entry in self._entries if entry.family == family]


class JsonlLedger(RunLedger):
    """Newline-delimited JSON ledger: one entry per line, pure appends."""

    backend = "jsonl"

    def __init__(self, path: str) -> None:
        super().__init__()
        self._path = path

    def append(self, entry: LedgerEntry) -> None:
        with self._lock:
            self._check_open()
            with open(self._path, "a", encoding="utf-8") as handle:
                handle.write(_entry_json(entry) + "\n")

    def entries(self, family: Optional[str] = None) -> List[LedgerEntry]:
        with self._lock:
            self._check_open()
            if not os.path.exists(self._path):
                return []
            results: List[LedgerEntry] = []
            with open(self._path, "r", encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except json.JSONDecodeError as error:
                        raise ValueError(f"{self._path}:{line_number}: not valid JSON: {error}") from None
                    entry = LedgerEntry.from_dict(payload)
                    if family is None or entry.family == family:
                        results.append(entry)
            return results

    def describe(self) -> str:
        return f"jsonl:{self._path}"


class SqliteLedger(RunLedger):
    """SQLite ledger: one append-only table, safe for concurrent readers."""

    backend = "sqlite"

    def __init__(self, path: str) -> None:
        super().__init__()
        self._path = path
        self._connection = sqlite3.connect(path, check_same_thread=False)
        with self._lock:
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS runs ("
                " id INTEGER PRIMARY KEY AUTOINCREMENT,"
                " family TEXT NOT NULL,"
                " created REAL NOT NULL,"
                " payload TEXT NOT NULL)"
            )
            self._connection.execute("CREATE INDEX IF NOT EXISTS runs_family ON runs (family)")
            self._connection.commit()

    def append(self, entry: LedgerEntry) -> None:
        with self._lock:
            self._check_open()
            self._connection.execute(
                "INSERT INTO runs (family, created, payload) VALUES (?, ?, ?)",
                (entry.family, entry.created, _entry_json(entry)),
            )
            self._connection.commit()

    def entries(self, family: Optional[str] = None) -> List[LedgerEntry]:
        with self._lock:
            self._check_open()
            if family is None:
                rows = self._connection.execute("SELECT payload FROM runs ORDER BY id").fetchall()
            else:
                rows = self._connection.execute(
                    "SELECT payload FROM runs WHERE family = ? ORDER BY id", (family,)
                ).fetchall()
        return [LedgerEntry.from_dict(json.loads(row[0])) for row in rows]

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._connection.close()
            super().close()

    def describe(self) -> str:
        return f"sqlite:{self._path}"


def ledger_backend_for(path: Optional[str], backend: Optional[str] = None) -> str:
    """The backend a ledger at ``path`` opens with, inferred when not named.

    Mirrors :func:`repro.store.backends.open_store`: ``None`` or
    ``":memory:"`` → memory, ``*.jsonl`` → JSONL, anything else → SQLite.
    Raises :class:`~repro.errors.ConfigurationError` for an unknown backend, a
    file backend without a path, and the memory backend with a file path
    (which would persist nothing).  Ledgers open lazily, after a run has
    sampled, so the facade calls this up front to fail before any work.
    """
    in_memory = path is None or path == ":memory:"
    if backend is None:
        if in_memory:
            return "memory"
        return "jsonl" if path.endswith(".jsonl") else "sqlite"
    if backend not in LEDGER_BACKENDS:
        raise ConfigurationError(f"unknown ledger backend {backend!r} (expected one of {', '.join(LEDGER_BACKENDS)})")
    if backend == "memory" and not in_memory:
        raise ConfigurationError(f"the memory ledger backend persists nothing; it takes no file path, got {path!r}")
    if backend != "memory" and in_memory:
        raise ConfigurationError(f"ledger backend {backend!r} requires a path")
    return backend


def open_ledger(path: Optional[str] = None, backend: Optional[str] = None) -> RunLedger:
    """Open a run ledger, inferring the backend from the path when omitted.

    The backend is resolved (and the combination checked) by
    :func:`ledger_backend_for`.
    """
    backend = ledger_backend_for(path, backend)
    if backend == "memory":
        return MemoryLedger()
    if backend == "jsonl":
        return JsonlLedger(path)
    return SqliteLedger(path)


def _canonical_factor_keys(report: Any, profile: Any) -> Tuple[str, Tuple[str, ...]]:
    """The (method tag, sorted factor digests) identifying a run's family.

    Reuses the estimate store's canonical keys when a usage profile is
    available (so ledger families line up with store sharing).  A run with a
    store carries each factor's key on its report; those are read as they
    are when this ledger keys under the run's own context, and any other
    factor is keyed here.  A factor the profile cannot key (it misses one of
    the factor's variables) hashes its canonical text instead.  Each distinct
    factor is keyed once: the reports of all its occurrences share one factor
    object.  Core/store imports live inside the function —
    ``repro.core.stratified`` imports ``repro.obs``, so importing the other
    direction at module level would cycle.
    """
    from repro.core.methods import store_method_tag
    from repro.store.keys import StoreContext

    config = report.config
    method_tag = report.method
    context = None
    if config is not None:
        method_tag = store_method_tag(config)
        if profile is not None:
            context = StoreContext(profile, method_tag)
    carried = context is not None and report.store_context == context
    # Keyed by object identity; the report holds every factor, so no id is
    # reused while this runs.
    digests: Dict[int, str] = {}
    for path_report in report.path_reports:
        for factor_report in path_report.factors:
            factor = factor_report.factor
            if id(factor) in digests:
                continue
            digest = None
            if carried and factor_report.key is not None:
                digest = factor_report.key.digest
            elif context is not None:
                try:
                    digest = context.key_for(factor).digest
                except Exception:  # profile missing a variable: fall back to text
                    pass
            if digest is None:
                digest = hashlib.sha256(factor.canonical().encode("utf-8")).hexdigest()
            digests[id(factor)] = digest
    return method_tag, tuple(sorted(set(digests.values())))


def family_digest(method_tag: str, factor_keys: Tuple[str, ...]) -> str:
    """The constraint-family digest of a run over ``factor_keys``.

    A pure function of the method tag, the estimator version, and the sorted
    distinct factor digests — so the family of a constraint set is computable
    *without* running it (the incremental gate derives the baseline version's
    family from a diff, then looks its last run up in the ledger).
    """
    from repro.store.keys import ESTIMATOR_VERSION

    material = "\x1f".join((method_tag, ESTIMATOR_VERSION) + tuple(sorted(set(factor_keys))))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def ledger_entry_for(report: Any, profile: Any = None, *, created: Optional[float] = None) -> LedgerEntry:
    """Build the :class:`LedgerEntry` recording one finished run.

    ``report`` is a :class:`~repro.api.report.Report`; ``profile`` the usage
    profile the run quantified under (when available, factor keys reuse the
    store's canonical digests).  ``created`` defaults to the current time.
    """
    from repro import __version__
    from repro.store.keys import ESTIMATOR_VERSION

    method_tag, factor_keys = _canonical_factor_keys(report, profile)
    family = family_digest(method_tag, factor_keys)
    payload = report.to_dict()
    fingerprint = config_fingerprint(report.config) if report.config is not None else ""
    try:
        # Encoded once: the run id hashes this text and the ledger line
        # splices it in (see _entry_json).
        payload_text: Optional[str] = json.dumps(payload, sort_keys=True)
    except TypeError:
        # Not plain JSON: the run id renders the odd values with str(), and
        # appending the entry fails as it always has.
        payload_text = None
    # The text of json.dumps({"family": family, "config": fingerprint,
    # "report": payload}, sort_keys=True, default=str).
    run_material = '{"config": %s, "family": %s, "report": %s}' % (
        json.dumps(fingerprint),
        json.dumps(family),
        payload_text if payload_text is not None else json.dumps(payload, sort_keys=True, default=str),
    )
    run_id = hashlib.sha256(run_material.encode("utf-8")).hexdigest()[:16]
    entry = LedgerEntry(
        family=family,
        run_id=run_id,
        seed=report.seed,
        method=report.method,
        features=report.feature_label,
        estimator_version=ESTIMATOR_VERSION,
        repro_version=__version__,
        created=time.time() if created is None else created,
        factor_keys=factor_keys,
        report=payload,
    )
    if payload_text is not None:
        object.__setattr__(entry, "_report_json", payload_text)
    return entry


def _entry_json(entry: LedgerEntry) -> str:
    """The ledger line of ``entry``: the text of ``json.dumps(entry.to_dict(), sort_keys=True)``.

    An entry made by :func:`ledger_entry_for` carries its report's encoding,
    which is spliced in here rather than encoded a second time.
    """
    fields = entry.to_dict()
    report_text = entry.__dict__.get("_report_json")
    if report_text is None:
        return json.dumps(fields, sort_keys=True)
    del fields["report"]
    parts = {key: json.dumps(value, sort_keys=True) for key, value in fields.items()}
    parts["report"] = report_text
    return "{" + ", ".join(f"{json.dumps(key)}: {parts[key]}" for key in sorted(parts)) + "}"


def estimate_drift_sigmas(a: LedgerEntry, b: LedgerEntry) -> float:
    """Mean drift between two runs in combined-σ units.

    Uses ``|m_a − m_b| / sqrt(σ_a² + σ_b²)`` — the z-score of the difference
    under independent estimates.  Returns ``inf`` when both σ are zero but
    the means differ (an exact result moved), 0.0 when the estimates agree.
    """
    drift = abs(a.mean - b.mean)
    combined = (a.std * a.std + b.std * b.std) ** 0.5
    if combined == 0.0:
        return 0.0 if drift == 0.0 else float("inf")
    return drift / combined


#: Phase → (metric name, kind) consulted by :func:`phase_timings`.
_PHASE_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("paving", "icp_pave_seconds", "histogram"),
    ("sampling_rounds", "qcoral_round_seconds", "histogram"),
    ("executor_chunks", "exec_chunk_seconds", "histogram"),
    ("kernel_compile", "kernel_compile_seconds_total", "counter"),
    ("store_get", "store_get_seconds", "histogram"),
    ("store_merge", "store_merge_seconds", "histogram"),
)


def phase_timings(entry: LedgerEntry) -> Dict[str, float]:
    """Per-phase wall-clock totals (seconds) from a run's stored metrics.

    Empty when the run had observability disabled (no snapshot persisted).
    """
    from repro.obs.metrics import MetricsSnapshot

    payload = entry.report.get("metrics")
    if not payload:
        return {}
    snapshot = MetricsSnapshot.from_dict(payload)
    timings: Dict[str, float] = {}
    for phase, metric, kind in _PHASE_METRICS:
        if kind == "counter":
            total = snapshot.counter_total(metric)
        else:
            total = sum(hist.total for (name, _), hist in snapshot.histograms.items() if name == metric)
        timings[phase] = total
    return timings
