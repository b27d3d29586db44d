"""Tests of the quantification service: wire format, admission, HTTP/SSE.

The integration tests run a real server on an ephemeral port via
:func:`repro.serve.serve_in_thread` and talk to it with the stdlib
:class:`~repro.serve.client.ServeClient` — the same pair the quickstart and
the CI smoke job use.  The contract under test is the ISSUE's: a served
query is bit-identical to the in-process Query at the same seed, a repeated
identical request draws zero samples, a client disconnect stops sampling
early, and a graceful drain flushes store and ledger.
"""

import asyncio
import json
import threading
import time

import pytest

from repro import Session
from repro.errors import ConfigurationError, ParseError, UsageError
from repro.obs import Observability
from repro.obs.diagnostics import deterministic_diagnostics, diagnostics_from_payload
from repro.obs.ledger import open_ledger
from repro.serve import (
    AdmissionController,
    AdmissionError,
    AdmissionLimits,
    ServeClient,
    ServeClientError,
    WireError,
    parse_quantify_payload,
    serve_in_thread,
)
from repro.serve.app import QuantifyServer
from repro.serve.routes import HttpRequest
from repro.serve.wire import build_query, error_status, payload_from_query_params, sse_event

CIRCLE = "x*x + y*y <= 1"
DOMAINS = {"x": "-1:1", "y": "-1:1"}


def _metric_value(metrics_text, prefix):
    """The value of the first exposition line starting with ``prefix``."""
    for line in metrics_text.splitlines():
        if line.startswith(prefix):
            return float(line.rsplit(" ", 1)[1])
    return None


# --------------------------------------------------------------------- #
# Wire format (no sockets)
# --------------------------------------------------------------------- #
class TestWireFormat:
    def test_parse_minimal_payload(self):
        spec = parse_quantify_payload({"constraints": CIRCLE, "domains": DOMAINS})
        assert spec.constraints == CIRCLE
        assert spec.domains == DOMAINS
        assert spec.budget == 30_000  # engine default
        assert spec.max_seconds is None

    def test_parse_full_payload(self):
        spec = parse_quantify_payload(
            {
                "constraints": CIRCLE,
                "domains": {"x": [-1, 1], "y": "-1:1"},
                "method": "importance",
                "budget": 5000,
                "target_std": 1e-3,
                "max_rounds": 4,
                "initial_fraction": 0.5,
                "allocation": "neyman",
                "seed": 7,
                "features": {"stratified": True, "partition_and_cache": False},
                "max_seconds": 2.5,
            }
        )
        settings = spec.settings_dict()
        assert settings["method"] == "importance"
        assert settings["samples_per_query"] == 5000
        assert settings["seed"] == 7
        assert settings["stratified"] is True
        assert settings["partition_and_cache"] is False
        assert spec.budget == 5000
        assert spec.max_seconds == 2.5

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ([], "JSON object"),
            ({"domains": DOMAINS}, "constraints"),
            ({"constraints": CIRCLE}, "domains"),
            ({"constraints": CIRCLE, "domains": {}}, "domains"),
            ({"constraints": CIRCLE, "domains": DOMAINS, "sed": 1}, "unknown request keys"),
            ({"constraints": CIRCLE, "domains": DOMAINS, "budget": 1, "samples": 1}, "aliases"),
            ({"constraints": CIRCLE, "domains": DOMAINS, "budget": True}, "integer"),
            ({"constraints": CIRCLE, "domains": DOMAINS, "budget": 0}, ">= 1"),
            ({"constraints": CIRCLE, "domains": DOMAINS, "seed": "7"}, "integer"),
            ({"constraints": CIRCLE, "domains": DOMAINS, "target_std": -1.0}, "> 0"),
            ({"constraints": CIRCLE, "domains": {"x": [1, 2, 3]}}, "domain 'x'"),
            ({"constraints": CIRCLE, "domains": DOMAINS, "features": {"turbo": True}}, "unknown feature"),
            ({"constraints": CIRCLE, "domains": DOMAINS, "features": {"stratified": 1}}, "boolean"),
            ({"constraints": CIRCLE, "domains": DOMAINS, "max_seconds": 0}, "> 0"),
        ],
    )
    def test_parse_rejections(self, payload, fragment):
        with pytest.raises(WireError) as excinfo:
            parse_quantify_payload(payload)
        assert fragment in str(excinfo.value)
        assert excinfo.value.status == 400

    def test_query_params_payload(self):
        params = {
            "constraints": [CIRCLE],
            "domain": ["x=-1:1", "y=-1:1"],
            "seed": ["7"],
            "budget": ["1000"],
            "target_std": ["0.01"],
            "method": ["hit-or-miss"],
        }
        payload = payload_from_query_params(params)
        spec = parse_quantify_payload(payload)
        assert spec.domains == {"x": "-1:1", "y": "-1:1"}
        assert spec.settings_dict()["seed"] == 7
        assert spec.budget == 1000

    def test_query_params_rejections(self):
        with pytest.raises(WireError, match="name=SPEC"):
            payload_from_query_params({"domain": ["oops"]})
        with pytest.raises(WireError, match="not a valid int"):
            payload_from_query_params({"seed": ["x"]})
        with pytest.raises(WireError, match="unknown query parameters"):
            payload_from_query_params({"sed": ["1"]})
        with pytest.raises(WireError, match="more than once"):
            payload_from_query_params({"seed": ["1", "2"]})

    def test_error_status_mapping(self):
        assert error_status(ConfigurationError("x")) == 400
        assert error_status(ParseError("x")) == 400
        assert error_status(UsageError("x")) == 400
        assert error_status(WireError("x", status=413)) == 413
        from repro.errors import AnalysisError

        assert error_status(AnalysisError("x")) == 500

    def test_build_query_surfaces_validation_eagerly(self):
        with Session() as session:
            spec = parse_quantify_payload(
                {"constraints": CIRCLE, "domains": DOMAINS, "method": "importance", "seed": 3}
            )
            query = build_query(session, spec)
            assert query.compile().method == "importance"
            bad = parse_quantify_payload({"constraints": CIRCLE, "domains": {"x": "binomial:n:p", "y": "-1:1"}})
            with pytest.raises(ConfigurationError, match="binomial:n:p"):
                build_query(session, bad)

    def test_sse_event_rendering(self):
        frame = sse_event("round", {"round": 1}).decode("utf-8")
        assert frame == 'event: round\ndata: {"round": 1}\n\n'


# --------------------------------------------------------------------- #
# Admission control (no sockets)
# --------------------------------------------------------------------- #
class TestAdmission:
    def test_limit_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionLimits(max_concurrent=0)
        with pytest.raises(ConfigurationError):
            AdmissionLimits(max_budget=0)
        with pytest.raises(ConfigurationError):
            AdmissionLimits(max_seconds=0.0)

    def test_capacity_and_budget_rejections(self):
        hub = Observability()
        controller = AdmissionController(AdmissionLimits(max_concurrent=1, max_budget=100), hub)
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(budget=101)
        assert excinfo.value.status == 413
        ticket = controller.admit(budget=10)
        assert controller.in_flight == 1
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(budget=10)
        assert excinfo.value.status == 429
        ticket.release()
        ticket.release()  # idempotent
        assert controller.in_flight == 0
        controller.admit(budget=10).release()
        controller.begin_drain()
        with pytest.raises(AdmissionError) as excinfo:
            controller.admit(budget=10)
        assert excinfo.value.status == 503
        text = hub.prometheus()
        assert 'serve_rejections_total{reason="budget"} 1' in text
        assert 'serve_rejections_total{reason="capacity"} 1' in text
        assert 'serve_rejections_total{reason="draining"} 1' in text

    def test_deadline_is_min_of_client_and_server(self):
        controller = AdmissionController(AdmissionLimits(max_seconds=5.0))
        assert controller.deadline_seconds(None) == 5.0
        assert controller.deadline_seconds(2.0) == 2.0
        assert controller.deadline_seconds(9.0) == 5.0
        unlimited = AdmissionController(AdmissionLimits())
        assert unlimited.deadline_seconds(None) is None
        assert unlimited.deadline_seconds(3.0) == 3.0


# --------------------------------------------------------------------- #
# The served endpoints (real server, ephemeral port)
# --------------------------------------------------------------------- #
class TestServedEndpoints:
    def test_health_metrics_and_routing(self):
        with serve_in_thread() as handle:
            client = ServeClient(handle.url)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["accepting"] is True
            assert health["store"] == "memory"
            stats = client.store_stats()
            assert stats["store"] == "memory"
            assert stats["statistics"]["gets"] == 0
            metrics = client.metrics()
            assert "serve_requests_total" in metrics
            with pytest.raises(ServeClientError) as excinfo:
                client._json_request("GET", "/nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServeClientError) as excinfo:
                client._json_request("GET", "/v1/quantify")
            assert excinfo.value.status == 405

    @pytest.mark.parametrize("method", ["hit-or-miss", "importance"])
    def test_served_result_is_bit_identical_to_in_process(self, method):
        request = dict(seed=11, budget=4000, method=method)
        with serve_in_thread() as handle:
            served = ServeClient(handle.url).quantify(CIRCLE, DOMAINS, **request)
        with Session(store_backend="memory", observability=Observability()) as session:
            local = (
                session.quantify(CIRCLE, DOMAINS)
                .configure(samples_per_query=request["budget"], seed=request["seed"], method=method)
                .run()
                .to_dict()
            )
        # Timing, the shared hub's metrics, and wall-clock-derived
        # diagnostics are the only run-dependent fields; every
        # estimate-bearing field must match bit for bit.
        for volatile in ("time", "metrics"):
            served.pop(volatile, None)
            local.pop(volatile, None)

        def deterministic_codes(report):
            diagnostics = diagnostics_from_payload(report.pop("diagnostics", []))
            return [diagnostic.code for diagnostic in deterministic_diagnostics(diagnostics)]

        assert deterministic_codes(served) == deterministic_codes(local)
        assert served == local

    def test_repeated_request_draws_zero_samples(self):
        with serve_in_thread() as handle:
            client = ServeClient(handle.url)
            cold = client.quantify(CIRCLE, DOMAINS, seed=5, budget=3000)
            warm = client.quantify(CIRCLE, DOMAINS, seed=5, budget=3000)
            assert cold["samples"] == 3000
            assert warm["samples"] == 0
            assert warm["mean"] == cold["mean"]
            stats = client.store_stats()["statistics"]
            assert stats["hits"] >= 1
            assert stats["creates"] >= 1

    def test_parallel_clients_pool_the_store(self):
        # Satellite: N parallel requests on one constraint family merge
        # their deltas; a follow-up request is answered without sampling.
        with serve_in_thread() as handle:
            url = handle.url
            reports, errors = [], []

            def hit(seed):
                try:
                    reports.append(ServeClient(url).quantify(CIRCLE, DOMAINS, seed=seed, budget=2000))
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=hit, args=(seed,)) for seed in (1, 2, 3, 4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert len(reports) == 4
            client = ServeClient(url)
            stats = client.store_stats()["statistics"]
            # Every request either sampled (and published a create or a
            # merge into the shared family) or arrived after the family
            # already covered its budget and drew nothing at all.
            sampled = [report for report in reports if report["samples"] > 0]
            assert sampled  # someone had to pay the cold cost exactly once
            assert stats["creates"] >= 1
            assert stats["creates"] + stats["merges"] == len(sampled)
            follow_up = client.quantify(CIRCLE, DOMAINS, seed=9, budget=2000)
            assert follow_up["samples"] == 0

    def test_streamed_rounds_then_report_and_done(self):
        with serve_in_thread() as handle:
            client = ServeClient(handle.url)
            events = list(
                client.stream(CIRCLE, DOMAINS, seed=3, budget=2000, max_rounds=3, target_std=1e-9)
            )
            kinds = [event.event for event in events]
            assert kinds[-2:] == ["report", "done"]
            rounds = [event for event in events if event.event == "round"]
            assert rounds and rounds[0].data["round"] == 1
            assert events[-1].data["stopped"] is None
            report = events[-2].data
            assert report["samples"] == rounds[-1].data["cumulative"]

    def test_stream_accepts_query_parameters(self):
        with serve_in_thread() as handle:
            client = ServeClient(handle.url)
            connection = client._connect()
            connection.request(
                "GET",
                "/v1/quantify/stream?constraints=x*x%20%2B%20y*y%20%3C%3D%201"
                "&domain=x%3D-1:1&domain=y%3D-1:1&seed=3&budget=1000",
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "text/event-stream"
            body = response.read().decode("utf-8")
            connection.close()
            assert "event: report" in body
            assert "event: done" in body

    def test_disconnect_stops_sampling_early(self, tmp_path):
        ledger_path = str(tmp_path / "serve.jsonl")
        budget = 50_000_000
        with serve_in_thread(ledger=ledger_path) as handle:
            client = ServeClient(handle.url)
            with client.stream(
                CIRCLE, DOMAINS, seed=9, budget=budget, max_rounds=500, target_std=1e-12, initial_fraction=0.001
            ) as rounds:
                for event in rounds:
                    if event.event == "round" and event.data["round"] >= 2:
                        break  # closing the stream drops the connection
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if _metric_value(client.metrics(), "serve_in_flight") == 0:
                    break
                time.sleep(0.05)
            metrics = client.metrics()
            assert _metric_value(metrics, "serve_stream_disconnects_total") == 1
            assert _metric_value(metrics, 'serve_early_stops_total{reason="cancelled"}') == 1
        # The early-stopped run still published: the ledger has the partial
        # run with far fewer samples than the requested budget.
        with open_ledger(ledger_path, "jsonl") as ledger:
            entries = ledger.entries()
        assert len(entries) == 1
        assert 0 < entries[0].samples < budget // 10

    def test_wall_clock_ceiling_truncates_a_run(self):
        with serve_in_thread(limits=AdmissionLimits(max_seconds=0.15)) as handle:
            client = ServeClient(handle.url)
            budget = 50_000_000
            report = client.quantify(
                CIRCLE, DOMAINS, seed=9, budget=budget, max_rounds=500, target_std=1e-12, initial_fraction=0.001
            )
            assert 0 < report["samples"] < budget
            assert _metric_value(client.metrics(), 'serve_early_stops_total{reason="deadline"}') == 1

    def test_busy_server_answers_429(self):
        with serve_in_thread(limits=AdmissionLimits(max_concurrent=1)) as handle:
            client = ServeClient(handle.url)
            stream = client.stream(
                CIRCLE, DOMAINS, seed=9, budget=50_000_000, max_rounds=500, target_std=1e-12, initial_fraction=0.001
            )
            try:
                next(iter(stream))  # the run holds the only slot now
                with pytest.raises(ServeClientError) as excinfo:
                    client.quantify(CIRCLE, DOMAINS, seed=1, budget=1000)
                assert excinfo.value.status == 429
            finally:
                stream.close()

    def test_oversized_budget_answers_413(self):
        with serve_in_thread(limits=AdmissionLimits(max_budget=10_000)) as handle:
            client = ServeClient(handle.url)
            with pytest.raises(ServeClientError) as excinfo:
                client.quantify(CIRCLE, DOMAINS, budget=10_001)
            assert excinfo.value.status == 413
            assert "10000" in str(excinfo.value)
            report = client.quantify(CIRCLE, DOMAINS, seed=1, budget=10_000)
            assert report["samples"] == 10_000

    def test_client_errors_answer_400(self):
        with serve_in_thread() as handle:
            client = ServeClient(handle.url)
            cases = [
                dict(constraints=CIRCLE, domains={"x": "binomial:n:p", "y": "-1:1"}),
                dict(constraints="x >= 0 &&", domains={"x": "-1:1"}),
                dict(constraints=CIRCLE, domains=DOMAINS, method="nope"),
                dict(constraints=CIRCLE, domains=DOMAINS, sed=1),
            ]
            for case in cases:
                with pytest.raises(ServeClientError) as excinfo:
                    client.quantify(case.pop("constraints"), case.pop("domains"), **case)
                assert excinfo.value.status == 400, case
            # Malformed JSON bodies are a 400 too, not a connection reset.
            status, _, raw = client._raw_request("POST", "/v1/quantify")
            connection = client._connect()
            connection.request(
                "POST", "/v1/quantify", body=b"{nope", headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"JSON" in response.read()
            connection.close()

    def test_graceful_drain_flushes_store_and_ledger(self, tmp_path):
        ledger_path = str(tmp_path / "drain.jsonl")
        store_path = str(tmp_path / "drain.db")
        handle = serve_in_thread(store=store_path, ledger=ledger_path)
        client = ServeClient(handle.url)
        client.quantify(CIRCLE, DOMAINS, seed=5, budget=2000)
        stream = client.stream(
            CIRCLE, DOMAINS, seed=9, budget=50_000_000, max_rounds=500, target_std=1e-12, initial_fraction=0.001
        )
        next(iter(stream))  # the long run is in flight now
        handle.stop()  # the same code path as SIGTERM: drain, flush, exit
        stream.close()
        assert handle.server.session.closed
        # No lost entries: both the finished run and the drain-cancelled one
        # are in the ledger, and the store kept the finished run's samples.
        with open_ledger(ledger_path, "jsonl") as ledger:
            entries = ledger.entries()
        assert len(entries) == 2
        assert entries[0].samples == 2000
        assert 0 < entries[1].samples < 50_000_000
        with Session(store=store_path) as session:
            warm = session.quantify(CIRCLE, DOMAINS).configure(samples_per_query=2000, seed=5).run()
        assert warm.total_samples == 0
        # New connections are refused after the drain.
        with pytest.raises(ServeClientError):
            client.healthz()


class _SilentReader:
    """A client connection that never reports EOF: only a failed write can reveal its loss."""

    async def read(self, size):
        await asyncio.Event().wait()
        return b""


class _BrokenPipeWriter:
    """Takes the SSE head, then fails every later drain, as a vanished client's socket does."""

    def __init__(self):
        self.drains = 0

    def write(self, data):
        pass

    async def drain(self):
        self.drains += 1
        if self.drains > 1:
            raise ConnectionResetError("client went away")


def test_disconnect_noticed_by_the_write_path_is_counted_once():
    hub = Observability()
    server = QuantifyServer(observability=hub)
    payload = {
        "constraints": CIRCLE,
        "domains": DOMAINS,
        "seed": 9,
        "budget": 50_000_000,
        "max_rounds": 500,
        "target_std": 1e-12,
        "initial_fraction": 0.001,
    }
    request = HttpRequest("POST", "/v1/quantify/stream", body=json.dumps(payload).encode("utf-8"))
    writer = _BrokenPipeWriter()
    try:
        assert asyncio.run(server._handle_stream(request, _SilentReader(), writer)) == 200
    finally:
        asyncio.run(server.drain())
    # The head went out, the first event's drain failed, and the run stopped.
    assert writer.drains == 2
    metrics = hub.snapshot()
    assert metrics.counter("serve_stream_disconnects_total") == 1
    assert metrics.counter("serve_early_stops_total", reason="cancelled") == 1
