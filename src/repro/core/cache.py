"""Two-tier cache of per-factor estimates (the PARTCACHE feature, persisted).

Algorithm 2 stores the estimate computed for each independent factor (the
projection of a path condition onto one block of the variable partition) and
reuses it whenever the same factor reappears — either in another path
condition or in the same one after simplification.

The cache has two tiers:

* **L1** — the in-memory, in-run map of the paper: canonical text of the
  simplified factor → finished :class:`Estimate`.  Dies with the analyzer.
* **L2** — an optional persistent :class:`~repro.store.backends.EstimateStore`
  shared across runs and processes.  L2 keys are stronger than L1 keys
  (alpha-renamed text plus a profile/estimator fingerprint, see
  :mod:`repro.store.keys`) and L2 values are raw mergeable counts rather
  than finished estimates, so a re-run can *continue* sampling where a
  previous run stopped and independent runs pool their budgets.

The cache is thread-safe: lookups, inserts, and the counters are guarded by
one reentrant lock, so a :class:`~repro.core.qcoral.QCoralAnalyzer` (or
several) may share an instance across threads without
corrupting entries or statistics.  L2 handles carry their own lock.

Runs that share one writable L2 handle (a session's runs, a server's
requests) also sample each factor once: :meth:`EstimateCache.claim` holds the
store keys of a run's factors until the run has published its counts, and a
run that needs a key another run holds waits for that publish and then reads
the pooled entry, instead of drawing the same factor's samples a second time.
How much a concurrent run samples then no longer depends on how its requests
happen to overlap in time.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterable, Optional, Set, Tuple

from repro.core.estimate import Estimate
from repro.lang import ast
from repro.lang.simplify import simplify_path_condition
from repro.obs import Observability, ensure_observability
from repro.store.backends import EstimateStore
from repro.store.entry import StoreEntry
from repro.store.keys import FactorKey


@dataclass
class CacheStatistics:
    """Hit/miss counters of both tiers, exposed in analysis reports.

    ``hits``/``misses`` count L1 lookups exactly as before the store existed;
    the ``store_*`` counters record this run's traffic against the persistent
    tier (they stay zero when no store is configured).
    """

    hits: int = 0
    misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    warm_starts: int = 0
    store_publishes: int = 0
    store_merges: int = 0

    @property
    def lookups(self) -> int:
        """Total number of L1 lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of L1 lookups served from the cache (0 when never used)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def store_lookups(self) -> int:
        """Total number of persistent-store lookups."""
        return self.store_hits + self.store_misses

    @property
    def reused_factors(self) -> int:
        """Factors this run did not have to sample from scratch."""
        return self.hits + self.store_hits


#: Longest a run waits for other runs to publish factors it needs (seconds).
#: Past it the run samples those factors itself, as if it had not waited, so
#: a stalled or abandoned run never blocks another one for good.
CLAIM_WAIT_S = 30.0


class _Claims:
    """Store keys that runs through one store handle are sampling right now.

    A run takes all of its keys at once (:meth:`acquire`), so no run ever
    holds some keys while waiting for others and two runs cannot wait on each
    other.  Keys are owned by the thread that took them; a thread never waits
    for itself (one thread interleaving two streams of the same factor).
    """

    def __init__(self) -> None:
        self._owners: Dict[str, int] = {}
        self._changed = threading.Condition(threading.Lock())

    def acquire(self, keys: Set[str], timeout: float) -> Tuple[FrozenSet[str], bool]:
        """Wait until no other thread holds any of ``keys`` (at most ``timeout``
        seconds), then take the free ones.  Returns them and whether it waited."""
        me = threading.get_ident()
        deadline = time.monotonic() + timeout
        waited = False
        with self._changed:
            while any(self._owners.get(key, me) != me for key in keys):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                waited = True
                self._changed.wait(remaining)
            taken = frozenset(key for key in keys if key not in self._owners)
            for key in taken:
                self._owners[key] = me
        return taken, waited

    def release(self, keys: Iterable[str]) -> None:
        with self._changed:
            for key in keys:
                self._owners.pop(key, None)
            self._changed.notify_all()


#: One claim table per store handle, dropped with the handle.
_CLAIMS: "weakref.WeakKeyDictionary[EstimateStore, _Claims]" = weakref.WeakKeyDictionary()
_CLAIMS_LOCK = threading.Lock()


def _claims_for(store: EstimateStore) -> _Claims:
    with _CLAIMS_LOCK:
        claims = _CLAIMS.get(store)
        if claims is None:
            claims = _CLAIMS[store] = _Claims()
        return claims


class EstimateCache:
    """Maps canonical factor text to a previously computed :class:`Estimate`.

    Built without a store, this is exactly the paper's in-run cache.  With a
    store it becomes the L1 of a two-tier hierarchy: :meth:`fetch_entry`
    consults the persistent tier on an L1 miss, and :meth:`publish` folds a
    run's freshly drawn counts back with merge-on-write semantics.  The
    persistent tier is addressed by the caller's
    :class:`~repro.store.keys.FactorKey` (the analyzer keys each distinct
    factor once per run).
    """

    def __init__(self, store: Optional[EstimateStore] = None, observability: Optional[Observability] = None) -> None:
        self._entries: Dict[str, Estimate] = {}
        self._statistics = CacheStatistics()
        self._store = store
        self._obs = ensure_observability(observability)
        # Reentrant so get_or_compute may call get/put while holding it.
        self._lock = threading.RLock()

    @property
    def statistics(self) -> CacheStatistics:
        """Hit/miss counters accumulated so far."""
        return self._statistics

    @property
    def store(self) -> Optional[EstimateStore]:
        """The persistent tier, when one is attached."""
        return self._store

    @property
    def has_store(self) -> bool:
        """True when a persistent tier is attached."""
        return self._store is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, factor: ast.PathCondition) -> bool:
        key = self.key_for(factor)
        with self._lock:
            return key in self._entries

    @staticmethod
    def key_for(factor: ast.PathCondition) -> str:
        """Canonical L1 cache key of a factor (order-insensitive, simplified).

        The analyzer's factors are simplified when planned, so it passes
        their canonical text as ``key`` instead of simplifying again.
        """
        return simplify_path_condition(factor).canonical()

    # ------------------------------------------------------------------ #
    # L1: the in-run tier
    # ------------------------------------------------------------------ #
    def get(self, factor: ast.PathCondition, key: Optional[str] = None) -> Optional[Estimate]:
        """Cached estimate for ``factor`` or None, updating the counters.

        ``key`` is ``key_for(factor)``, when the caller already holds it.
        """
        if key is None:
            key = self.key_for(factor)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._statistics.misses += 1
            else:
                self._statistics.hits += 1
            return entry

    def put(self, factor: ast.PathCondition, estimate: Estimate, key: Optional[str] = None) -> None:
        """Store the estimate for ``factor`` (``key`` as in :meth:`get`)."""
        if key is None:
            key = self.key_for(factor)
        with self._lock:
            self._entries[key] = estimate

    def record_shared_hit(self, count: int = 1) -> None:
        """Count ``count`` reuses that bypassed the cache (in-run shared factors).

        The incremental analyzer deduplicates factors before sampling starts,
        so a factor shared by several path conditions is looked up only once;
        this keeps the hit/miss statistics equivalent to per-occurrence
        lookups.
        """
        with self._lock:
            self._statistics.hits += count

    def record_warm_start(self) -> None:
        """Count a factor that resumed sampling from stored counts."""
        with self._lock:
            self._statistics.warm_starts += 1
        self._obs.count("store_warm_starts_total")

    def get_or_compute(self, factor: ast.PathCondition, compute: Callable[[], Estimate]) -> Estimate:
        """Return the cached estimate or compute, store, and return a new one.

        ``compute`` runs outside the lock (it may sample for a long time), so
        two threads racing on the same missing factor may both compute it;
        the last store wins, which is safe because both computed the same
        factor.
        """
        cached = self.get(factor)
        if cached is not None:
            return cached
        estimate = compute()
        self.put(factor, estimate)
        return estimate

    # ------------------------------------------------------------------ #
    # L2: the persistent tier
    # ------------------------------------------------------------------ #
    def fetch_entry(self, key: FactorKey) -> Optional[StoreEntry]:
        """Stored raw counts for ``key``, updating the store counters."""
        if self._store is None:
            return None
        if self._obs.enabled:
            started = time.perf_counter()
            entry = self._store.get(key.digest)
            self._obs.observe("store_get_seconds", time.perf_counter() - started)
            self._obs.count("store_gets_total")
            if entry is not None:
                self._obs.count("store_hits_total")
        else:
            entry = self._store.get(key.digest)
        with self._lock:
            if entry is None:
                self._statistics.store_misses += 1
            else:
                self._statistics.store_hits += 1
        return entry

    def claim(self, keys: Iterable[FactorKey]) -> FrozenSet[str]:
        """Hold ``keys`` for one run; first wait while other runs hold any of them.

        Call before :meth:`fetch_entry` for a run's factors and pass the
        result to :meth:`release` once the run has published its deltas.  A
        read-only handle never publishes, so it neither claims nor waits.
        """
        if self._store is None or self._store.readonly:
            return frozenset()
        taken, waited = _claims_for(self._store).acquire({key.digest for key in keys}, CLAIM_WAIT_S)
        if waited:
            self._obs.count("store_claim_waits_total")
        return taken

    def release(self, claimed: FrozenSet[str]) -> None:
        """Give back the keys a :meth:`claim` took."""
        if claimed:
            _claims_for(self._store).release(claimed)

    def publish(self, key: FactorKey, delta: StoreEntry, merged_into_prior: bool = False) -> None:
        """Fold one run's delta counts for ``key`` into the persistent tier.

        ``delta`` must contain only the samples this run drew itself — never
        counts loaded from the store — so concurrent and sequential runs pool
        correctly.  ``merged_into_prior`` marks publishes that extend an entry
        this run loaded (warm starts), which the statistics report as merges.
        """
        if self._store is None:
            return
        if self._obs.enabled:
            started = time.perf_counter()
            self._store.merge(key.digest, delta.described(key.pc_text, key.fingerprint))
            self._obs.observe("store_merge_seconds", time.perf_counter() - started)
            self._obs.count("store_publishes_total")
        else:
            self._store.merge(key.digest, delta.described(key.pc_text, key.fingerprint))
        if self._store.readonly:
            # The backend skipped the write (counted in its own statistics);
            # reporting it as published here would misstate what persisted.
            return
        with self._lock:
            self._statistics.store_publishes += 1
            if merged_into_prior:
                self._statistics.store_merges += 1

    def clear(self) -> None:
        """Drop all L1 entries and reset the counters (the store is untouched)."""
        with self._lock:
            self._entries.clear()
            self._statistics = CacheStatistics()


class LRUMemo:
    """Thread-safe memo of values computed from their keys, bounded least recently used first.

    A key must determine its value: :meth:`get` computes a missing value
    outside the lock, so concurrent misses of one key may each compute it,
    and the first to finish is kept.  A :class:`~repro.api.session.Session`
    keeps its query plans and its decoded stored pavings in two of these.
    """

    def __init__(self, size: int) -> None:
        self._size = size
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, compute: Callable[[], Any]) -> Tuple[Any, bool]:
        """``key``'s value, now the most recently used, and whether it was memoised.

        On a miss ``compute()`` supplies the value; past the bound the least
        recently used entry goes.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key], True
        value = compute()
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            if len(self._entries) > self._size:
                self._entries.popitem(last=False)
        return value, False

    def peek(self, key: Hashable) -> Any:
        """``key``'s value, or None, without computing it or marking it used."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
