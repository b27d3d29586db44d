"""The three backends of the persistent estimate store.

One :class:`EstimateStore` interface, three implementations spanning the
deployment spectrum:

* :class:`MemoryStore` — a locked dict; the L2 equivalent of the in-run
  cache, useful for tests and for sharing between analyzers in one process.
* :class:`JsonlStore` — an append-only JSONL log.  Every write appends the
  *delta* record of one run; readers fold the log per key with
  :meth:`StoreEntry.merge`.  Appends are single ``write()`` calls on a file
  opened in append mode, so concurrent writers from several processes
  interleave whole lines and the fold stays correct — the classic
  log-structured trade: cheap lock-free writes, full-file replay on open.
* :class:`SqliteStore` — a SQLite database in WAL mode.  Merge-on-write runs
  inside one ``BEGIN IMMEDIATE`` transaction (read, merge, upsert), so the
  read-modify-write is atomic under concurrent writers from any number of
  threads or processes.

All three are thread-safe behind a reentrant lock, and all three implement
**merge-on-write**: :meth:`EstimateStore.merge` folds a run's delta counts
into whatever is already stored, so two runs that sampled the same factor
pool their budgets instead of the second overwriting the first.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.store.entry import StoreEntry, StoreError

#: Backend names accepted throughout the stack (config, CLI).
STORE_BACKENDS = ("memory", "jsonl", "sqlite")


@dataclass(frozen=True)
class FactorCoverage:
    """How much stored evidence a store holds for one factor key.

    ``samples`` is the pooled sample count across every merged run;
    ``exact`` marks entries a previous run resolved without sampling
    (ICP-exact), which cover any budget outright.  Returned by
    :meth:`EstimateStore.coverage` for the incremental budget planner.
    """

    samples: int
    exact: bool

    def covers(self, budget: int) -> bool:
        """True when the stored evidence satisfies a ``budget``-sample run."""
        return self.exact or self.samples >= budget


@dataclass
class StoreStatistics:
    """Counters of one store handle's activity (exposed in analysis reports)."""

    gets: int = 0
    hits: int = 0
    merges: int = 0
    creates: int = 0
    readonly_skips: int = 0

    @property
    def misses(self) -> int:
        """Lookups that found no entry."""
        return self.gets - self.hits

    @property
    def writes(self) -> int:
        """Total write operations (merges into existing entries + creates)."""
        return self.merges + self.creates


class EstimateStore:
    """Base class of the persistent per-factor estimate stores.

    Subclasses implement :meth:`_load` and :meth:`_combine`; the public
    surface (counters, readonly gating, locking policy) lives here.  ``get``
    never mutates; ``merge`` is the only write and always *accumulates*.
    """

    #: Backend name, matching :data:`STORE_BACKENDS`.
    backend: str = "abstract"

    def __init__(self, readonly: bool = False) -> None:
        self._readonly = readonly
        self._lock = threading.RLock()
        self._statistics = StoreStatistics()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #
    @property
    def readonly(self) -> bool:
        """True when writes are silently skipped (and counted as skips)."""
        return self._readonly

    @property
    def statistics(self) -> StoreStatistics:
        """Activity counters of this handle."""
        return self._statistics

    def get(self, key: str) -> Optional[StoreEntry]:
        """The stored entry for ``key``, or None; updates the counters."""
        with self._lock:
            self._check_open()
            entry = self._load(key)
            self._statistics.gets += 1
            if entry is not None:
                self._statistics.hits += 1
            return entry

    def merge(self, key: str, delta: StoreEntry) -> StoreEntry:
        """Fold ``delta`` into the entry stored at ``key``; returns the total.

        Writers pass the *delta* of one run — only the samples that run drew
        itself, never counts it loaded from the store — so merging is never
        double counting.  On a readonly handle the write is skipped and the
        would-be total is returned, so callers need no readonly special case.
        """
        with self._lock:
            self._check_open()
            if self._readonly:
                self._statistics.readonly_skips += 1
                existing = self._load(key)
                return existing.merge(delta) if existing is not None else delta
            merged, created = self._combine(key, delta)
            if created:
                self._statistics.creates += 1
            else:
                self._statistics.merges += 1
            return merged

    def keys(self) -> List[str]:
        """All keys currently stored (snapshot)."""
        raise NotImplementedError

    def coverage(self, keys: Sequence[str]) -> Dict[str, FactorCoverage]:
        """Stored evidence per factor key, for the incremental planner.

        Returns one :class:`FactorCoverage` per *present* key (absent keys
        are simply omitted).  Reads go through the backend's ``_load`` hook
        directly rather than :meth:`get`, so planning a reuse budget does not
        distort the hit/miss statistics of the run that follows.
        """
        result: Dict[str, FactorCoverage] = {}
        with self._lock:
            self._check_open()
            for key in keys:
                entry = self._load(key)
                if entry is not None:
                    result[key] = FactorCoverage(samples=entry.samples, exact=entry.is_exact)
        return result

    def __len__(self) -> int:
        return len(self.keys())

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        self._closed = True

    def describe(self) -> str:
        """Human-readable label, e.g. ``sqlite:estimates.db``."""
        return self.backend

    def __enter__(self) -> "EstimateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(entries={len(self)}, readonly={self._readonly})"

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"store {self.describe()} is closed")

    def _load(self, key: str) -> Optional[StoreEntry]:
        raise NotImplementedError

    def _combine(self, key: str, delta: StoreEntry) -> Tuple[StoreEntry, bool]:
        """Merge ``delta`` into ``key`` and persist; returns (total, created)."""
        raise NotImplementedError


class MemoryStore(EstimateStore):
    """In-process store: a locked dict, no persistence."""

    backend = "memory"

    def __init__(self, readonly: bool = False) -> None:
        super().__init__(readonly)
        self._entries: Dict[str, StoreEntry] = {}

    def _load(self, key: str) -> Optional[StoreEntry]:
        return self._entries.get(key)

    def _combine(self, key: str, delta: StoreEntry) -> Tuple[StoreEntry, bool]:
        existing = self._entries.get(key)
        merged = existing.merge(delta) if existing is not None else delta
        self._entries[key] = merged
        return merged, existing is None

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)


class JsonlStore(EstimateStore):
    """Append-only JSONL store: one delta record per line, folded on open.

    Each line is ``{"key": ..., **entry}``.  The in-memory fold is refreshed
    lazily before reads when the file has grown (another process appended),
    so concurrent runs see each other's finished writes without any locking
    beyond POSIX append atomicity.
    """

    backend = "jsonl"

    def __init__(self, path: str, readonly: bool = False) -> None:
        super().__init__(readonly)
        self._path = path
        self._entries: Dict[str, StoreEntry] = {}
        self._folded_size = 0
        if not readonly:
            # Create the file eagerly so a concurrent reader sees a store,
            # not a missing path.
            with open(self._path, "a", encoding="utf-8"):
                pass
        self._refresh()

    def describe(self) -> str:
        return f"jsonl:{os.path.basename(self._path)}"

    def _refresh(self) -> None:
        """Fold any lines appended since the last fold into the entry map."""
        try:
            size = os.path.getsize(self._path)
        except OSError:
            return
        if size == self._folded_size:
            return
        if size < self._folded_size:
            # Truncated behind our back: refold from scratch.
            self._entries.clear()
            self._folded_size = 0
        with open(self._path, "r", encoding="utf-8") as handle:
            handle.seek(self._folded_size)
            for line in handle:
                if not line.endswith("\n"):
                    # A concurrent writer's partial line; pick it up next time.
                    break
                self._folded_size += len(line.encode("utf-8"))
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    key = payload.pop("key")
                    delta = StoreEntry.from_dict(payload)
                except (json.JSONDecodeError, KeyError, StoreError):
                    continue  # skip corrupt lines rather than poison the store
                existing = self._entries.get(key)
                self._entries[key] = existing.merge(delta) if existing is not None else delta

    def _load(self, key: str) -> Optional[StoreEntry]:
        self._refresh()
        return self._entries.get(key)

    def _combine(self, key: str, delta: StoreEntry) -> Tuple[StoreEntry, bool]:
        self._refresh()
        existing = self._entries.get(key)
        merged = existing.merge(delta) if existing is not None else delta
        record = {"key": key, **delta.to_dict()}
        line = json.dumps(record, sort_keys=True) + "\n"
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(line)
        # Our own append is folded immediately; _folded_size tracks the file,
        # so count the bytes we just wrote as folded only when nobody else
        # appended in between (otherwise the next refresh refolds cleanly).
        if os.path.getsize(self._path) == self._folded_size + len(line.encode("utf-8")):
            self._folded_size += len(line.encode("utf-8"))
            self._entries[key] = merged
        else:
            self._refresh()
            merged = self._entries.get(key, merged)
        return merged, existing is None

    def keys(self) -> List[str]:
        with self._lock:
            self._refresh()
            return list(self._entries)


class SqliteStore(EstimateStore):
    """SQLite-backed store (WAL mode) with transactional merge-on-write."""

    backend = "sqlite"

    def __init__(self, path: str, readonly: bool = False, timeout: float = 30.0) -> None:
        super().__init__(readonly)
        self._path = path
        # One connection per handle; cross-thread use is serialised by the
        # store lock, so check_same_thread can be off.
        with self._lock:
            if readonly:
                # A genuinely read-only connection: no WAL pragma (that is a
                # write), no file creation, and it works on paths the user
                # cannot write to.  A store nobody has written yet is simply
                # empty.
                try:
                    self._connection = sqlite3.connect(
                        f"file:{path}?mode=ro", uri=True, timeout=timeout, check_same_thread=False
                    )
                except sqlite3.OperationalError:
                    self._connection = sqlite3.connect(":memory:", check_same_thread=False)
                return
            self._connection = sqlite3.connect(path, timeout=timeout, check_same_thread=False)
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS estimates ("
                "  key TEXT PRIMARY KEY,"
                "  kind TEXT NOT NULL,"
                "  samples INTEGER NOT NULL,"
                "  runs INTEGER NOT NULL,"
                "  payload TEXT NOT NULL"
                ")"
            )
            self._connection.commit()

    def describe(self) -> str:
        return f"sqlite:{os.path.basename(self._path)}"

    def _row_entry(self, row: Optional[Tuple[str]]) -> Optional[StoreEntry]:
        if row is None:
            return None
        try:
            return StoreEntry.from_dict(json.loads(row[0]))
        except (json.JSONDecodeError, StoreError):
            return None

    def _select(self, key: str) -> Optional[StoreEntry]:
        try:
            cursor = self._connection.execute("SELECT payload FROM estimates WHERE key = ?", (key,))
        except sqlite3.OperationalError:
            # Readonly handle on a store nobody has written yet: no table.
            return None
        return self._row_entry(cursor.fetchone())

    def _load(self, key: str) -> Optional[StoreEntry]:
        return self._select(key)

    def _combine(self, key: str, delta: StoreEntry) -> Tuple[StoreEntry, bool]:
        # BEGIN IMMEDIATE takes the write lock up front, so the read that
        # feeds the merge cannot race another writer's upsert.
        self._connection.execute("BEGIN IMMEDIATE")
        try:
            row = self._connection.execute("SELECT payload FROM estimates WHERE key = ?", (key,)).fetchone()
            existing = self._row_entry(row)
            merged = existing.merge(delta) if existing is not None else delta
            self._connection.execute(
                "INSERT INTO estimates (key, kind, samples, runs, payload)"
                " VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT(key) DO UPDATE SET"
                "  kind = excluded.kind, samples = excluded.samples,"
                "  runs = excluded.runs, payload = excluded.payload",
                (key, merged.kind, merged.samples, merged.runs, json.dumps(merged.to_dict())),
            )
            self._connection.commit()
        except BaseException:
            self._connection.rollback()
            raise
        return merged, existing is None

    def keys(self) -> List[str]:
        with self._lock:
            self._check_open()
            try:
                cursor = self._connection.execute("SELECT key FROM estimates")
            except sqlite3.OperationalError:
                return []
            return [row[0] for row in cursor.fetchall()]

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._connection.close()
            super().close()


def open_store(
    path: Optional[str],
    backend: Optional[str] = None,
    readonly: bool = False,
) -> EstimateStore:
    """Open an estimate store, inferring the backend when not named.

    ``None`` or ``":memory:"`` paths open a :class:`MemoryStore`; a ``.jsonl``
    extension selects the JSONL log; anything else defaults to SQLite (the
    concurrency-safe choice).  An explicit ``backend`` overrides inference;
    the memory backend refuses a file path rather than silently persist
    nothing, and the file backends refuse to run without one.
    """
    if backend is not None and backend not in STORE_BACKENDS:
        raise StoreError(f"unknown store backend {backend!r}; expected one of {STORE_BACKENDS}")
    in_memory = path is None or path == ":memory:"
    if backend is None:
        if in_memory:
            backend = "memory"
        elif path.endswith(".jsonl"):
            backend = "jsonl"
        else:
            backend = "sqlite"
    if backend == "memory":
        if not in_memory:
            raise StoreError(f"the memory backend persists nothing; it takes no file path, got {path!r}")
        return MemoryStore(readonly=readonly)
    if in_memory:
        raise StoreError(f"the {backend} backend needs a file path")
    if backend == "jsonl":
        return JsonlStore(path, readonly=readonly)
    return SqliteStore(path, readonly=readonly)
