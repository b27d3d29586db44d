"""Quantification-as-a-service: the asyncio server on the Session facade.

One long-lived :class:`~repro.api.session.Session` — one sampling pool, one
persistent estimate store, one run ledger, one metrics hub — answers every
client, which is the paper's economics made infrastructure: repeated traffic
on popular constraint families becomes store hits that draw **zero** samples,
so the marginal cost of a popular query tends to a dictionary lookup.

Endpoints:

* ``POST /v1/quantify`` — a JSON body mirroring :class:`~repro.api.query.Query`
  (constraints, domains, method, budget, target_std, seed, ...); the response
  body is exactly :meth:`Report.to_dict() <repro.api.report.Report.to_dict>`.
  A served run is bit-identical to the in-process query at the same seed.
* ``GET /v1/quantify/stream`` — the same request (JSON body or URL query
  parameters), answered as Server-Sent Events: one ``round`` event per
  adaptive round, then ``report`` and ``done``.  A client disconnect flips
  the engine's early-stop hook, so sampling ends mid-run and the partial
  result still publishes its store deltas.
* ``GET /metrics`` — Prometheus text exposition of the shared hub (engine
  counters and request-level ``serve_*`` metrics side by side).
* ``GET /healthz`` and ``GET /v1/store/stats``.

The engine is synchronous by design (NumPy-bound sampling loops); requests
run it via ``run_in_executor`` on a worker pool sized to the admission
limit, while the event loop stays free to answer health checks and detect
disconnects.  SIGTERM/SIGINT trigger a graceful drain: stop accepting,
early-stop in-flight streams, wait for them to finalise (each run publishes
its store deltas and ledger entry in finalisation), then close the session.
"""

from __future__ import annotations

import asyncio
import functools
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Set, Tuple, Union

from repro.api.query import Query
from repro.api.report import Report
from repro.api.session import Session
from repro.core.qcoral import QCoralConfig
from repro.errors import AnalysisError, ReproError
from repro.obs import Observability
from repro.obs.ledger import RunLedger
from repro.serve.admission import AdmissionController, AdmissionLimits
from repro.serve.routes import (
    HttpProtocolError,
    HttpRequest,
    read_request,
    start_sse,
    write_json,
    write_text,
)
from repro.serve.wire import (
    QuantifySpec,
    WireError,
    build_query,
    error_body,
    error_status,
    parse_quantify_payload,
    payload_from_query_params,
    round_payload,
    sse_event,
)
from repro.store.backends import EstimateStore

#: Seconds a connection may take to deliver its request head + body.
REQUEST_READ_TIMEOUT = 30.0


class QuantifyServer:
    """The HTTP/SSE quantification service around one shared session.

    Construction mirrors :class:`~repro.api.session.Session` (worker count /
    store / ledger specs are passed through); ``limits`` configures
    admission control and ``observability`` the shared metrics hub (one is
    created when not given, so ``/metrics`` always works).  Without a store
    spec the server opens an in-memory store — cross-request reuse is the
    service's headline behaviour, so it is on by default; pass a path to
    make it durable.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 1,
        store: Union[None, str, EstimateStore] = None,
        store_backend: Optional[str] = None,
        store_readonly: bool = False,
        ledger: Union[None, str, RunLedger] = None,
        ledger_backend: Optional[str] = None,
        defaults: Optional[QCoralConfig] = None,
        limits: Optional[AdmissionLimits] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.limits = limits if limits is not None else AdmissionLimits()
        self.observability = observability if observability is not None else Observability()
        if store is None and store_backend is None:
            store_backend = "memory"
        self.session = Session(
            workers=workers,
            store=store,
            store_backend=store_backend,
            store_readonly=store_readonly,
            defaults=defaults,
            observability=self.observability,
            ledger=ledger,
            ledger_backend=ledger_backend,
        )
        self.admission = AdmissionController(self.limits, self.observability)
        self._pool = ThreadPoolExecutor(
            max_workers=self.limits.max_concurrent, thread_name_prefix="qcoral-serve"
        )
        self._stops: Set[threading.Event] = set()
        self._stops_lock = threading.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self._drain_started = False
        self._routes: Dict[Tuple[str, str], Callable] = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/v1/store/stats"): self._handle_store_stats,
            ("POST", "/v1/quantify"): self._handle_quantify,
            ("GET", "/v1/quantify/stream"): self._handle_stream,
            ("POST", "/v1/quantify/stream"): self._handle_stream,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port — read the actual one from the
        return value (or :attr:`address`).
        """
        if self._server is not None:
            raise AnalysisError("this server has already been started")
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` of a started server."""
        if self._server is None or not self._server.sockets:
            raise AnalysisError("the server is not listening; call start() first")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def draining(self) -> bool:
        return self._drain_started

    async def drain(self) -> None:
        """Graceful shutdown: refuse new runs, early-stop in-flight ones,
        wait for them to finalise (bounded by ``limits.drain_timeout``),
        then flush and close the shared session (store + ledger included).

        Idempotent; also the SIGTERM/SIGINT handler of :meth:`run`.
        """
        if self._drain_started:
            return
        self._drain_started = True
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
        with self._stops_lock:
            for stop in list(self._stops):
                stop.set()
        deadline = time.monotonic() + self.limits.drain_timeout
        while self.admission.in_flight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, functools.partial(self._pool.shutdown, True))
        self.session.close()
        if self._stopped is not None:
            self._stopped.set()

    def request_drain(self) -> None:
        """Thread-safe drain trigger (used by tests and embedding code)."""
        if self._loop is not None and not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(self.drain(), self._loop)

    async def _main(
        self,
        *,
        install_signal_handlers: bool,
        announce: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        host, port = await self.start()
        if announce is not None:
            announce(host, port)
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, lambda: asyncio.ensure_future(self.drain()))
                except (NotImplementedError, RuntimeError):  # pragma: no cover - platform dependent
                    pass
        assert self._stopped is not None
        await self._stopped.wait()

    def run(
        self,
        *,
        install_signal_handlers: bool = True,
        announce: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Blocking entry point of ``qcoral serve``: serve until drained."""
        asyncio.run(self._main(install_signal_handlers=install_signal_handlers, announce=announce))

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(read_request(reader), REQUEST_READ_TIMEOUT)
            except asyncio.TimeoutError:
                return
            except HttpProtocolError as error:
                await write_json(writer, 400, error_body(400, str(error)))
                return
            if request is None:
                return
            await self._dispatch(request, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        except asyncio.CancelledError:  # loop shutdown
            raise
        except Exception as error:  # defensive: one bad request must not kill the server
            try:
                await write_json(writer, 500, error_body(500, f"{type(error).__name__}: {error}"))
            except (ConnectionError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: HttpRequest, reader, writer) -> None:
        handler = self._routes.get((request.method, request.path))
        route = request.path if (request.method, request.path) in self._routes else "unknown"
        started = time.perf_counter()
        if handler is None:
            known_paths = {path for _, path in self._routes}
            if request.path in known_paths:
                status = 405
                await write_json(writer, status, error_body(status, f"{request.method} not allowed on {request.path}"))
            else:
                status = 404
                await write_json(writer, status, error_body(status, f"no route for {request.method} {request.path}"))
        else:
            try:
                status = await handler(request, reader, writer)
            except ReproError as error:
                status = error_status(error)
                await write_json(writer, status, error_body(status, str(error)))
        self.observability.count("serve_requests_total", route=route, status=status)
        self.observability.observe("serve_request_seconds", time.perf_counter() - started, route=route)

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    async def _handle_healthz(self, request: HttpRequest, reader, writer) -> int:
        from repro import __version__

        store = self.session.store
        payload = {
            "status": "draining" if self._drain_started else "ok",
            "accepting": not self._drain_started,
            "in_flight": self.admission.in_flight,
            "max_concurrent": self.limits.max_concurrent,
            "version": __version__,
            "store": store.describe() if store is not None else None,
        }
        await write_json(writer, 200, payload)
        return 200

    async def _handle_metrics(self, request: HttpRequest, reader, writer) -> int:
        await write_text(
            writer,
            200,
            self.observability.prometheus(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )
        return 200

    async def _handle_store_stats(self, request: HttpRequest, reader, writer) -> int:
        store = self.session.store
        if store is None:
            await write_json(writer, 200, {"store": None, "statistics": None})
            return 200
        statistics = store.statistics
        payload = {
            "store": store.describe(),
            "statistics": {
                "gets": statistics.gets,
                "hits": statistics.hits,
                "misses": statistics.misses,
                "merges": statistics.merges,
                "creates": statistics.creates,
                "writes": statistics.writes,
                "readonly_skips": statistics.readonly_skips,
            },
        }
        await write_json(writer, 200, payload)
        return 200

    def _parse_request_spec(self, request: HttpRequest) -> QuantifySpec:
        payload = request.json_body()
        if payload is None:
            payload = payload_from_query_params(request.query)
            if not payload:
                raise WireError("send the quantify request as a JSON body (or as URL query parameters)")
        return parse_quantify_payload(payload, defaults=self.session.defaults)

    async def _handle_quantify(self, request: HttpRequest, reader, writer) -> int:
        spec = self._parse_request_spec(request)
        with self.admission.admit(budget=spec.budget, route="quantify"):
            query = build_query(self.session, spec)
            deadline = self.admission.deadline_seconds(spec.max_seconds)
            stop = self._register_stop()
            loop = asyncio.get_running_loop()
            try:
                report, stopped = await loop.run_in_executor(
                    self._pool, functools.partial(self._drive, query, stop, deadline, None)
                )
            finally:
                self._unregister_stop(stop)
        headers = {"X-Qcoral-Stopped": stopped} if stopped is not None else None
        await write_json(writer, 200, report.to_dict(), headers=headers)
        return 200

    async def _handle_stream(self, request: HttpRequest, reader, writer) -> int:
        spec = self._parse_request_spec(request)
        with self.admission.admit(budget=spec.budget, route="stream"):
            query = build_query(self.session, spec)
            deadline = self.admission.deadline_seconds(spec.max_seconds)
            stop = self._register_stop()
            loop = asyncio.get_running_loop()
            queue: "asyncio.Queue[Tuple[Optional[str], Any]]" = asyncio.Queue()

            def emit(event: Optional[str], data: Any) -> None:
                loop.call_soon_threadsafe(queue.put_nowait, (event, data))

            def worker() -> None:
                try:
                    report, stopped = self._drive(
                        query, stop, deadline, lambda r: emit("round", round_payload(r))
                    )
                except ReproError as error:
                    emit("error", error_body(error_status(error), str(error))["error"])
                except Exception as error:  # defensive; surfaces in the stream
                    emit("error", {"status": 500, "message": f"{type(error).__name__}: {error}"})
                else:
                    emit("report", report.to_dict())
                    emit("done", {"stopped": stopped})
                emit(None, None)

            counted = False

            def client_gone() -> None:
                # The watcher and the write path both run on the event loop;
                # whichever notices the disconnect first counts it, once.
                nonlocal counted
                if not counted:
                    counted = True
                    self.observability.count("serve_stream_disconnects_total")
                stop.set()

            await start_sse(writer)
            watcher = asyncio.ensure_future(self._watch_disconnect(reader, client_gone))
            future = loop.run_in_executor(self._pool, worker)
            try:
                while True:
                    event, data = await queue.get()
                    if event is None:
                        break
                    try:
                        writer.write(sse_event(event, data))
                        await writer.drain()
                    except (ConnectionError, OSError):
                        client_gone()
                        break
            finally:
                watcher.cancel()
                await future
                self._unregister_stop(stop)
        return 200

    async def _watch_disconnect(self, reader: asyncio.StreamReader, client_gone: Callable[[], None]) -> None:
        """Call ``client_gone`` (which stops the run) when the SSE client goes away."""
        try:
            while True:
                chunk = await reader.read(1024)
                if not chunk:
                    break
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            return
        client_gone()

    # ------------------------------------------------------------------ #
    # The blocking engine driver (runs in the worker pool)
    # ------------------------------------------------------------------ #
    def _drive(
        self,
        query: Query,
        stop: threading.Event,
        deadline_seconds: Optional[float],
        on_round: Optional[Callable],
    ) -> Tuple[Report, Optional[str]]:
        """Drive one run's round stream, honouring stop events and deadlines.

        Both the disconnect/drain signal (``stop``) and the wall-clock
        ceiling use the round stream's early-stop hook, so a truncated run
        finalises normally — caches and store deltas are published, the
        ledger records the partial run — and the report reflects exactly the
        rounds drawn.  Returns the report and the stop reason (None when the
        run finished on its own).
        """
        started = time.monotonic()
        stream = query.stream()
        stopped: Optional[str] = None
        for round_report in stream:
            if on_round is not None:
                on_round(round_report)
            if stopped is None and stop.is_set():
                stopped = "cancelled"
                stream.stop()
            elif stopped is None and deadline_seconds is not None:
                if time.monotonic() - started >= deadline_seconds:
                    stopped = "deadline"
                    stream.stop()
        if stopped is not None:
            self.observability.count("serve_early_stops_total", reason=stopped)
        return stream.report, stopped

    def _register_stop(self) -> threading.Event:
        stop = threading.Event()
        with self._stops_lock:
            self._stops.add(stop)
            if self._drain_started:
                stop.set()
        return stop

    def _unregister_stop(self, stop: threading.Event) -> None:
        with self._stops_lock:
            self._stops.discard(stop)


# --------------------------------------------------------------------- #
# In-thread embedding (tests, the quickstart, the benchmark)
# --------------------------------------------------------------------- #
class ServerHandle:
    """A running server on a background thread; ``stop()`` drains it."""

    def __init__(self, server: QuantifyServer, thread: threading.Thread) -> None:
        self.server = server
        self._thread = thread

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the server and join its thread (idempotent)."""
        self.server.request_drain()
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_thread(*, start_timeout: float = 30.0, **kwargs: Any) -> ServerHandle:
    """Start a :class:`QuantifyServer` on a daemon thread and wait for bind.

    ``kwargs`` go to the :class:`QuantifyServer` constructor (use ``port=0``
    for an ephemeral port).  Returns a context-managed :class:`ServerHandle`
    whose exit drains the server gracefully — the same code path as SIGTERM.
    """
    kwargs.setdefault("port", 0)
    server = QuantifyServer(**kwargs)
    ready = threading.Event()
    failure: Dict[str, BaseException] = {}

    async def main() -> None:
        try:
            await server.start()
        except BaseException as error:
            failure["error"] = error
            ready.set()
            raise
        ready.set()
        assert server._stopped is not None
        await server._stopped.wait()

    def target() -> None:
        try:
            asyncio.run(main())
        except BaseException:
            ready.set()

    thread = threading.Thread(target=target, name="qcoral-serve", daemon=True)
    thread.start()
    if not ready.wait(start_timeout):
        raise AnalysisError("the server did not start within the timeout")
    if "error" in failure:
        raise AnalysisError(f"the server failed to start: {failure['error']}") from failure["error"]
    return ServerHandle(server, thread)
