"""Zero-perturbation observability: spans, metrics, exporters.

One hub object, :class:`Observability`, bundles a :class:`MetricsRegistry`
and a :class:`Tracer` and is threaded through the engine (analyzer →
samplers → scheduler → cache).  The contract every instrumentation site must
honour:

* **never touch an RNG stream** — only counters and ``time.monotonic`` /
  ``time.perf_counter`` reads, so fixed-seed results are bit-identical with
  observability on, off, or at any trace sampling rate;
* **~zero cost when off** — callers hold the :data:`DISABLED` singleton,
  whose methods are no-ops and whose ``span`` reuses one null context
  manager, so the disabled path is a couple of attribute lookups.

Construction::

    obs = Observability(trace_path="run.jsonl", trace_sample_every=10)
    with Session(observability=obs) as session:
        report = session.quantify("x*x + y*y <= 1").run()
    obs.flush_trace()
    print(obs.prometheus())

The hub is borrowed: the session never flushes or resets it, so one hub can
aggregate the metrics of many sessions and writes its trace when flushed.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, ContextManager, Dict, List, Optional

from repro.obs.diagnostics import (
    Diagnostic,
    FactorHealth,
    StratumHealth,
    deterministic_diagnostics,
    diagnose_run,
)
from repro.obs.export import TRACE_SCHEMA, console_summary, lint_trace, prometheus_text, write_trace_jsonl
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LedgerEntry,
    RunLedger,
    config_fingerprint,
    ledger_entry_for,
    open_ledger,
)
from repro.obs.metrics import (
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.trace import Tracer

__all__ = [
    "Observability",
    "ensure_observability",
    "DISABLED",
    "MetricsRegistry",
    "MetricsSnapshot",
    "HistogramSnapshot",
    "Tracer",
    "prometheus_text",
    "console_summary",
    "write_trace_jsonl",
    "lint_trace",
    "TRACE_SCHEMA",
    "Diagnostic",
    "FactorHealth",
    "StratumHealth",
    "diagnose_run",
    "deterministic_diagnostics",
    "LedgerEntry",
    "RunLedger",
    "open_ledger",
    "ledger_entry_for",
    "config_fingerprint",
    "LEDGER_SCHEMA",
]


class Observability:
    """Live observability hub: one metrics registry plus one tracer.

    Instances are cheap and reusable across analyses — metrics accumulate
    until :meth:`reset`, spans buffer until :meth:`flush_trace` (or
    :meth:`drain_spans`).  Thread-safe throughout.
    """

    #: False only on the disabled singleton; instrumentation sites gate any
    #: non-trivial work (building label dicts, reading clocks) on this flag.
    enabled: bool = True

    def __init__(self, *, trace_path: Optional[str] = None, trace_sample_every: int = 1) -> None:
        self.trace_path = trace_path
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(sample_every=trace_sample_every)
        self._run_context: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attributes: Any) -> ContextManager[None]:
        """A timed, nested tracing span (see :class:`Tracer`)."""
        return self.tracer.span(name, **attributes)

    def count(self, name: str, amount: float = 1, **labels: Any) -> None:
        """Increment a counter."""
        self.metrics.count(name, amount, **labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge."""
        self.metrics.gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation (typically a latency in seconds)."""
        self.metrics.observe(name, value, **labels)

    def set_run_context(self, **context: Any) -> None:
        """Record run identity fields (seed, method, config fingerprint).

        The engine calls this at run start; the fields end up in the trace
        header so JSONL traces are self-describing.  Last write wins — a hub
        reused across runs stamps the most recent run's identity.
        """
        self._run_context.update(context)

    def trace_header(self) -> Dict[str, Any]:
        """The self-describing header record for JSONL traces."""
        from repro import __version__

        return {
            "record": "header",
            "schema": TRACE_SCHEMA,
            "repro_version": __version__,
            "seed": self._run_context.get("seed"),
            "method": self._run_context.get("method"),
            "config_fingerprint": self._run_context.get("config_fingerprint"),
        }

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of the current metrics."""
        return self.metrics.snapshot()

    def drain_spans(self) -> List[Dict[str, Any]]:
        """Buffered span records, clearing the buffer."""
        return self.tracer.drain()

    def flush_trace(self, path: Optional[str] = None) -> int:
        """Append buffered spans to ``path`` (default: the configured
        ``trace_path``); returns the number written (0 when no path)."""
        target = path if path is not None else self.trace_path
        spans = self.drain_spans()
        if target is None or not spans:
            return 0
        return write_trace_jsonl(spans, target, append=True, header=self.trace_header())

    def prometheus(self) -> str:
        """Current metrics in the Prometheus text exposition format."""
        return prometheus_text(self.snapshot())

    def console_summary(self) -> str:
        """Current metrics as a human-readable console block."""
        return console_summary(self.snapshot())

    def reset(self) -> None:
        """Drop accumulated metrics (the tracer's buffer is left alone)."""
        self.metrics.reset()


class _DisabledObservability(Observability):
    """Null object: every operation is a no-op, ``span`` costs ~nothing."""

    enabled = False
    _NULL_SPAN: ContextManager[None] = nullcontext()

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str, **attributes: Any) -> ContextManager[None]:
        return self._NULL_SPAN

    def count(self, name: str, amount: float = 1, **labels: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **labels: Any) -> None:
        pass

    def set_run_context(self, **context: Any) -> None:
        pass


#: Shared disabled hub; ``ensure_observability(None)`` returns this.
DISABLED: Observability = _DisabledObservability()


def ensure_observability(obs: Optional[Observability]) -> Observability:
    """Normalise an optional hub to a usable one (None → :data:`DISABLED`)."""
    return obs if obs is not None else DISABLED
