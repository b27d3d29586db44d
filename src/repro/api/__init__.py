"""Session-centric public API of the qCORAL reproduction.

The one documented way in:

* :class:`Session` — the one home of the sampling pool, store, ledger and hub,
  shared by every analysis; context-managed, close-idempotent.
* :class:`Query` — fluent, immutable builder over both direct constraint-set
  quantification and end-to-end program analysis; compiles to the engine's
  :class:`~repro.core.qcoral.QCoralConfig`.
* :class:`RoundStream` — incremental per-round results with early stop.
* :class:`Report` — the unified result type with a versioned JSON schema.
"""

from repro.api.query import Query, RoundStream
from repro.api.report import SCHEMA_VERSION, Report
from repro.api.session import Session

__all__ = [
    "Session",
    "Query",
    "RoundStream",
    "Report",
    "SCHEMA_VERSION",
]
