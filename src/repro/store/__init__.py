"""Persistent estimate store: cross-run compositional caching.

The PARTCACHE feature of the paper caches per-factor estimates within one
run; this package extends the idea across runs and across processes.  An
:class:`EstimateStore` keeps one mergeable :class:`StoreEntry` per canonical
factor key — alpha-renamed constraint text plus a fingerprint of the usage
profile and an estimator-version tag (:mod:`repro.store.keys`) — behind one
of three backends (:mod:`repro.store.backends`): in-memory, append-only
JSONL, and SQLite in WAL mode.

Entries hold raw Bernoulli counts rather than finished estimates, so

* two runs that sampled the same factor **merge** their sample pools instead
  of overwriting each other (:meth:`StoreEntry.merge`), and
* a re-run can **warm-start** its samplers from a stored entry and spend only
  the budget the stored entry is short of.
"""

from repro.store.backends import (
    STORE_BACKENDS,
    EstimateStore,
    JsonlStore,
    MemoryStore,
    SqliteStore,
    StoreStatistics,
    open_store,
)
from repro.store.entry import StoreEntry
from repro.store.keys import (
    ESTIMATOR_VERSION,
    FactorKey,
    StoreContext,
    distribution_fingerprint,
    mc_method,
    stratified_method,
)

__all__ = [
    "EstimateStore",
    "MemoryStore",
    "JsonlStore",
    "SqliteStore",
    "StoreStatistics",
    "STORE_BACKENDS",
    "open_store",
    "StoreEntry",
    "FactorKey",
    "StoreContext",
    "ESTIMATOR_VERSION",
    "distribution_fingerprint",
    "mc_method",
    "stratified_method",
]
