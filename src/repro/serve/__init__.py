"""Quantification-as-a-service: the qCORAL engine behind an HTTP/SSE server.

One shared :class:`~repro.api.session.Session` — one sampling pool, one
persistent estimate store, one run ledger, one metrics hub — answers every
client.  The contract: a served query is bit-identical to the in-process
:class:`~repro.api.query.Query` at the same seed, and a repeated identical
request is answered from the store with zero samples drawn.

Start a server with ``qcoral serve`` (or :func:`serve_in_thread` when
embedding); talk to it with :class:`ServeClient`.
"""

from repro.serve.admission import (
    DEFAULT_MAX_CONCURRENT,
    AdmissionController,
    AdmissionError,
    AdmissionLimits,
)
from repro.serve.app import QuantifyServer, ServerHandle, serve_in_thread
from repro.serve.client import ServeClient, ServeClientError, ServerEvent, SSEStream
from repro.serve.wire import QuantifySpec, WireError, parse_quantify_payload

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionLimits",
    "DEFAULT_MAX_CONCURRENT",
    "QuantifyServer",
    "QuantifySpec",
    "SSEStream",
    "ServeClient",
    "ServeClientError",
    "ServerEvent",
    "ServerHandle",
    "WireError",
    "parse_quantify_payload",
    "serve_in_thread",
]
