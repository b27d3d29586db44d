"""Admission control of the quantification service.

A long-lived shared engine dies by a thousand oversized requests, so the
server gates every run *before* it reaches the engine:

* **concurrency** — at most ``max_concurrent`` engine runs in flight; the
  controller rejects the excess immediately with 429 (no hidden queue: a
  client that wants to wait can retry with backoff, a client that queued
  silently would see unbounded latency).
* **budget** — a request asking for more than ``max_budget`` samples is a
  413; the client is told the ceiling so it can re-ask within it.
* **wall clock** — ``max_seconds`` bounds each run's sampling time.  It is
  enforced cooperatively through the round stream's early-stop hook (the
  same mechanism client disconnects use), so a deadline run still finalises,
  publishes its store deltas, and returns the partial report.
* **drain** — once :meth:`AdmissionController.begin_drain` runs, every new
  run is a 503 while in-flight runs finish (early-stopped by the server).

All verdicts are recorded on the metrics hub (``serve_rejections_total`` by
reason, the ``serve_in_flight`` gauge), so ``GET /metrics`` shows admission
pressure live.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.obs import DISABLED, Observability, ensure_observability
from repro.serve.wire import WireError

#: Default cap on concurrent engine runs (and the worker-pool size).
DEFAULT_MAX_CONCURRENT = 4


class AdmissionError(WireError):
    """A request the server refused to run, with the HTTP status and reason."""

    def __init__(self, message: str, *, status: int, reason: str) -> None:
        self.reason = reason
        super().__init__(message, status=status)


@dataclass(frozen=True)
class AdmissionLimits:
    """The server's admission-control knobs.

    ``max_concurrent`` bounds in-flight engine runs (429 beyond it);
    ``max_budget`` bounds per-request sample budgets (413 beyond it; None =
    unlimited); ``max_seconds`` is the per-run wall-clock ceiling enforced
    via early stop (None = unlimited); ``drain_timeout`` bounds how long a
    graceful shutdown waits for early-stopped in-flight runs to finalise.
    """

    max_concurrent: int = DEFAULT_MAX_CONCURRENT
    max_budget: Optional[int] = None
    max_seconds: Optional[float] = None
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ConfigurationError(f"max_concurrent must be >= 1, got {self.max_concurrent}")
        if self.max_budget is not None and self.max_budget < 1:
            raise ConfigurationError(f"max_budget must be >= 1, got {self.max_budget}")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ConfigurationError(f"max_seconds must be > 0, got {self.max_seconds}")
        if self.drain_timeout < 0:
            raise ConfigurationError(f"drain_timeout must be >= 0, got {self.drain_timeout}")


class AdmissionTicket:
    """One admitted run's slot; release exactly once (context-managed)."""

    def __init__(self, controller: "AdmissionController") -> None:
        self._controller = controller
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release()

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class AdmissionController:
    """Thread-safe gate every quantify request passes before running."""

    def __init__(self, limits: AdmissionLimits, observability: Optional[Observability] = None) -> None:
        self.limits = limits
        self._obs = ensure_observability(observability)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._draining = False

    @property
    def in_flight(self) -> int:
        """Engine runs currently holding a slot."""
        with self._lock:
            return self._in_flight

    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` ran; new runs are refused (503)."""
        with self._lock:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new runs (idempotent)."""
        with self._lock:
            self._draining = True

    def admit(self, *, budget: int, route: str = "quantify") -> AdmissionTicket:
        """Claim a run slot or raise :class:`AdmissionError` (429/413/503)."""
        limits = self.limits
        if limits.max_budget is not None and budget > limits.max_budget:
            self._reject("budget")
            raise AdmissionError(
                f"requested budget {budget} exceeds the server's ceiling {limits.max_budget}; "
                f"re-ask with 'budget' <= {limits.max_budget}",
                status=413,
                reason="budget",
            )
        with self._lock:
            if self._draining:
                rejected = "draining"
            elif self._in_flight >= limits.max_concurrent:
                rejected = "capacity"
            else:
                self._in_flight += 1
                if self._obs is not DISABLED:
                    self._obs.gauge("serve_in_flight", self._in_flight)
                return AdmissionTicket(self)
        self._reject(rejected)
        if rejected == "draining":
            raise AdmissionError(
                "the server is draining and no longer accepts new runs",
                status=503,
                reason="draining",
            )
        raise AdmissionError(
            f"all {limits.max_concurrent} run slots are busy; retry with backoff",
            status=429,
            reason="capacity",
        )

    def deadline_seconds(self, requested: Optional[float]) -> Optional[float]:
        """The effective wall-clock ceiling: min(client ask, server limit)."""
        ceiling = self.limits.max_seconds
        if requested is None:
            return ceiling
        if ceiling is None:
            return requested
        return min(requested, ceiling)

    def _release(self) -> None:
        with self._lock:
            self._in_flight -= 1
            remaining = self._in_flight
        if self._obs is not DISABLED:
            self._obs.gauge("serve_in_flight", remaining)

    def _reject(self, reason: str) -> None:
        if self._obs is not DISABLED:
            self._obs.count("serve_rejections_total", reason=reason)
