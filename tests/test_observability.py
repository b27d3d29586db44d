"""Tests of the zero-perturbation observability layer.

The contract under test, in order of importance:

1. **Bit-identity.**  With a fixed master seed, estimates and per-factor hit
   counts are identical with observability disabled, enabled, or tracing at
   any sampling rate — in the calling thread and on sampling pools.
2. **Merge determinism.**  The deterministic counters (rounds, draws, hits,
   allocations, chunk totals) are identical across worker counts; only
   timing histograms and per-worker labels may differ.
3. **Export formats.**  Prometheus text output lints, the metrics JSON block
   round-trips through ``MetricsSnapshot.from_dict``, and the ``Report``
   schema-v2 ``metrics`` block matches its golden file.

Regenerate the metrics golden file after an intentional change with::

    QCORAL_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_observability.py
"""

import contextlib
import dataclasses
import decimal
import hashlib
import json
import logging
import os
import re
import sqlite3

import pytest

from repro.api import Session
from repro.core.qcoral import QCoralConfig
from repro.errors import ConfigurationError
from repro.lang.kernel import kernel_cache_info
from repro.obs import DISABLED, Observability, ensure_observability
from repro.obs.diagnostics import Diagnostic, deterministic_diagnostics
from repro.obs.export import TRACE_SCHEMA, lint_trace, prometheus_text, write_trace_jsonl
from repro.obs.ledger import config_fingerprint, estimate_drift_sigmas, ledger_entry_for, open_ledger, phase_timings
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, render_key
from repro.obs.trace import Tracer

METRICS_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "report_metrics_golden.json")

CONSTRAINTS = "x <= 0 - y && y <= x"
BOUNDS = {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}
SAMPLES = 2000
SEED = 1

#: Counters that must be identical across observability modes and worker
#: counts.  Excluded: ``kernel_*`` (process-global deltas depend on what
#: earlier tests left in the in-process LRU) and ``exec_worker_*`` (labelled
#: by thread name).
_DETERMINISTIC_RE = re.compile(
    r"^(qcoral_|sampler_|icp_|store_|importance_|exec_chunks_|exec_samples_|exec_hits_)"
)


def _run(workers=1, observability=None, trace_path=None, sample_every=1, store_backend=None):
    """One fixed-seed run; with ``trace_path`` on a session hub that writes its trace there."""
    config = QCoralConfig(samples_per_query=SAMPLES, seed=SEED)
    if trace_path is not None:
        observability = Observability(trace_path=str(trace_path), trace_sample_every=sample_every)
    with Session(
        workers=workers,
        observability=observability,
        store_backend=store_backend,
    ) as session:
        report = session.quantify(CONSTRAINTS, BOUNDS, config=config).run()
    if trace_path is not None:
        observability.flush_trace()
    return report


def _deterministic_counters(snapshot: MetricsSnapshot):
    return {
        render_key(name, labels): value
        for (name, labels), value in snapshot.counters.items()
        if _DETERMINISTIC_RE.match(name)
    }


# --------------------------------------------------------------------------- #
# 1. Bit-identity: observability must never perturb an RNG stream
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("executor,workers", [(None, None), ("thread", 2), ("thread", 4)])
def test_bit_identity_across_observability_modes(executor, workers, tmp_path):
    workers = workers or 1
    baseline = _run(workers=workers)
    observed = _run(workers=workers, observability=Observability())
    traced = _run(
        workers=workers,
        trace_path=tmp_path / "trace.jsonl",
        sample_every=3,
    )
    for report in (observed, traced):
        assert report.mean == baseline.mean
        assert report.std == baseline.std
        assert report.total_samples == baseline.total_samples
        assert [round_report.mean for round_report in report.round_reports] == [
            round_report.mean for round_report in baseline.round_reports
        ]
    assert baseline.metrics is None
    assert observed.metrics is not None and traced.metrics is not None
    # Same draws and hits whether fully observed or trace-sampled.
    assert _deterministic_counters(observed.metrics) == _deterministic_counters(traced.metrics)
    assert observed.metrics.counter_total("sampler_hits_total") > 0


def test_metrics_merge_deterministic_across_worker_counts():
    counters = []
    for workers in (2, 3, 4):
        report = _run(workers=workers, observability=Observability())
        counters.append(_deterministic_counters(report.metrics))
    assert counters[0] == counters[1] == counters[2]
    # The pool's chunk timings really reached the hub through the scheduler.
    assert counters[0]["exec_samples_total"] == SAMPLES
    assert counters[0]["exec_chunks_total"] > 0


def test_backends_agree_on_engine_counters():
    # Every pool size, and the default that samples in the calling thread,
    # runs the same keyed chunks, so every engine counter — including raw hit
    # counts — must match.  ``exec_*`` counters describe a pool's dispatch
    # and are recorded only when the chunks run on one.
    threaded = _run(workers=2, observability=Observability())
    wider = _run(workers=4, observability=Observability())
    assert _deterministic_counters(threaded.metrics) == _deterministic_counters(wider.metrics)
    default = _run(observability=Observability())
    engine = {
        key: value for key, value in _deterministic_counters(threaded.metrics).items() if not key.startswith("exec_")
    }
    assert _deterministic_counters(default.metrics) == engine
    assert default.metrics.counter_total("sampler_draws_total") == SAMPLES
    assert (default.mean, default.std) == (threaded.mean, threaded.std)


# --------------------------------------------------------------------------- #
# 2. Tracing spans
# --------------------------------------------------------------------------- #
def test_tracer_nesting_and_deterministic_sampling():
    tracer = Tracer(sample_every=2)
    for index in range(4):
        with tracer.span("outer", index=index):
            with tracer.span("inner"):
                pass
    spans = tracer.drain()
    # 1-in-2 per span name, counter-based: occurrences 0 and 2 are kept.
    names = sorted(span["name"] for span in spans)
    assert names == ["inner", "inner", "outer", "outer"]
    inner = [span for span in spans if span["name"] == "inner"]
    outer_ids = {span["span_id"] for span in spans if span["name"] == "outer"}
    assert all(span["parent_id"] in outer_ids or span["parent_id"] is not None for span in inner)
    assert all(span["duration"] >= 0.0 for span in spans)
    assert tracer.drain() == []
    with pytest.raises(ValueError):
        Tracer(sample_every=0)


def test_trace_jsonl_lines_parse(tmp_path):
    path = tmp_path / "spans.jsonl"
    report = _run(trace_path=path)
    assert report.metrics is not None
    lines = path.read_text().strip().splitlines()
    assert lines
    # Line 1 is the self-describing header; the rest are spans.
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert header["schema"] == TRACE_SCHEMA
    assert header["seed"] == SEED
    assert header["method"] == "hit-or-miss"
    assert header["config_fingerprint"]
    for line in lines[1:]:
        span = json.loads(line)
        assert {"span_id", "name", "start", "duration"} <= set(span)
    assert any(json.loads(line)["name"] == "qcoral.round" for line in lines[1:])
    # Appends accumulate across flushes and never repeat the header.
    extra = write_trace_jsonl([{"span_id": 9999, "name": "manual", "start": 0.0, "duration": 0.0}], str(path))
    assert extra == 1
    assert len(path.read_text().strip().splitlines()) == len(lines) + 1
    assert sum(1 for line in path.read_text().splitlines() if '"record"' in line) == 1
    assert lint_trace(str(path)) == []


def test_lint_trace_flags_problems(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("")
    assert lint_trace(str(path)) == [f"{path}: empty trace (missing header record)"]
    # First record must be the header.
    path.write_text(json.dumps({"span_id": 1, "name": "s", "start": 0.0, "duration": 0.1}) + "\n")
    assert any("first record must be the trace header" in problem for problem in lint_trace(str(path)))
    header = {
        "record": "header",
        "schema": TRACE_SCHEMA,
        "repro_version": "0",
        "seed": 1,
        "method": "hit-or-miss",
        "config_fingerprint": "abc",
    }
    bad_lines = [
        json.dumps(header),
        "not json",
        json.dumps({"span_id": 1, "name": "s", "start": -1.0, "duration": 0.1}),
        json.dumps({"name": "missing-id", "start": 0.0, "duration": 0.0}),
        json.dumps({"span_id": 1, "name": "dup-in-segment", "start": 0.0, "duration": 0.0}),
        json.dumps(header),
    ]
    path.write_text("\n".join(bad_lines) + "\n")
    problems = lint_trace(str(path))
    assert any("not valid JSON" in problem for problem in problems)
    assert any("'start' must be a non-negative number" in problem for problem in problems)
    assert any("span missing 'span_id'" in problem for problem in problems)
    assert any("duplicate span_id 1" in problem for problem in problems)
    assert any("duplicate header record" in problem for problem in problems)
    # Span ids restart when a later run appends: non-increasing id = new
    # segment, never a duplicate; an in-segment repeat is still flagged.
    path.write_text(
        "\n".join(
            [
                json.dumps(header),
                json.dumps({"span_id": 1, "name": "a", "start": 0.0, "duration": 0.0}),
                json.dumps({"span_id": 2, "name": "b", "start": 0.0, "duration": 0.0}),
                json.dumps({"span_id": 1, "name": "a", "start": 1.0, "duration": 0.0}),
                json.dumps({"span_id": 2, "name": "b", "start": 1.0, "duration": 0.0}),
            ]
        )
        + "\n"
    )
    assert lint_trace(str(path)) == []


# --------------------------------------------------------------------------- #
# 3. Export formats
# --------------------------------------------------------------------------- #
_SAMPLE_LINE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})? \S+$")


def test_prometheus_output_lints():
    registry = MetricsRegistry()
    registry.count("qcoral_rounds_total", 3)
    registry.count("sampler_draws_total", 100, method="stratified")
    registry.gauge("qcoral_estimate_std", 0.25)
    registry.observe("qcoral_round_seconds", 0.002)
    registry.observe("qcoral_round_seconds", 7.5)  # lands in +Inf
    text = prometheus_text(registry.snapshot())
    assert text.endswith("\n")
    seen_types = {}
    for line in text.splitlines():
        if line.startswith("# TYPE"):
            _, _, name, kind = line.split(" ", 3)
            seen_types[name] = kind
        elif line.startswith("# HELP"):
            continue
        else:
            assert _SAMPLE_LINE.match(line), f"unparseable sample line: {line!r}"
    assert seen_types["qcoral_rounds_total"] == "counter"
    assert seen_types["qcoral_estimate_std"] == "gauge"
    assert seen_types["qcoral_round_seconds"] == "histogram"
    # Histogram buckets are cumulative and end at +Inf == _count.
    buckets = re.findall(r'qcoral_round_seconds_bucket\{le="([^"]+)"\} (\d+)', text)
    counts = [int(count) for _, count in buckets]
    assert counts == sorted(counts)
    assert buckets[-1][0] == "+Inf"
    assert counts[-1] == 2
    assert "qcoral_round_seconds_count 2" in text
    assert 'sampler_draws_total{method="stratified"} 100' in text


def test_metrics_snapshot_round_trips_through_dict():
    report = _run(observability=Observability())
    snapshot = report.metrics
    payload = snapshot.to_dict()
    restored = MetricsSnapshot.from_dict(json.loads(json.dumps(payload)))
    assert restored.to_dict() == payload
    assert restored.counter("sampler_draws_total", method="stratified") == snapshot.counter(
        "sampler_draws_total", method="stratified"
    )


def _normalised_metrics_block():
    """The deterministic part of a fixed-seed run's Report.metrics block.

    Timings are nondeterministic, so histograms are reduced to their
    observation counts; ``kernel_*`` counters depend on what earlier tests
    left in the process-global kernel cache and are dropped.
    """
    report = _run(observability=Observability())
    block = report.to_dict()["metrics"]
    return {
        "counters": {key: value for key, value in block["counters"].items() if not key.startswith("kernel_")},
        "gauges": block["gauges"],
        "histogram_counts": {key: value["count"] for key, value in block["histograms"].items()},
    }


def test_report_metrics_block_matches_golden():
    payload = _normalised_metrics_block()
    if os.environ.get("QCORAL_UPDATE_GOLDEN"):
        os.makedirs(os.path.dirname(METRICS_GOLDEN_PATH), exist_ok=True)
        with open(METRICS_GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    with open(METRICS_GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert payload == golden


# --------------------------------------------------------------------------- #
# 4. Report / store / kernel surfacing
# --------------------------------------------------------------------------- #
def test_store_statistics_and_metrics_in_report():
    report = _run(observability=Observability(), store_backend="memory")
    payload = report.to_dict()
    assert payload["store_stats"] is not None
    assert payload["store_stats"]["gets"] >= 1
    assert report.metrics.counter_total("store_gets_total") >= 1
    # Without a store the block is null, not absent.
    bare = _run(observability=Observability())
    assert bare.to_dict()["store_stats"] is None
    assert set(bare.to_dict()) == set(payload)


def test_kernel_cache_info_shape():
    info = kernel_cache_info()
    assert set(info) == {"memory", "codegens", "compile_seconds"}
    assert {"hits", "misses", "evictions", "size", "capacity"} <= set(info["memory"])
    assert info["memory"]["size"] <= info["memory"]["capacity"]
    assert info["compile_seconds"] >= 0.0


def test_disabled_hub_is_inert_singleton():
    assert ensure_observability(None) is DISABLED
    assert DISABLED.enabled is False
    hub = Observability()
    assert ensure_observability(hub) is hub
    with DISABLED.span("anything", label=1):
        DISABLED.count("x")
        DISABLED.observe("y", 1.0)
        DISABLED.gauge("z", 2.0)
    assert DISABLED.snapshot().counters == {}
    assert DISABLED.drain_spans() == []


def test_repro_logger_has_null_handler():
    logger = logging.getLogger("repro")
    assert any(isinstance(handler, logging.NullHandler) for handler in logger.handlers)


# --------------------------------------------------------------------------- #
# 5. Run-health diagnostics: deterministic for a fixed seed
# --------------------------------------------------------------------------- #
def _diagnostics_bytes(report):
    """Canonical serialisation of the deterministic diagnostic records."""
    records = deterministic_diagnostics(report.diagnostics)
    return json.dumps([record.to_dict() for record in records], sort_keys=True).encode("utf-8")


@pytest.mark.parametrize("executor,workers", [(None, None), ("thread", 2), ("thread", 4)])
def test_diagnostics_bit_identical_across_observability_modes(executor, workers, tmp_path):
    workers = workers or 1
    baseline = _run(workers=workers)
    observed = _run(workers=workers, observability=Observability())
    traced = _run(workers=workers, trace_path=tmp_path / "trace.jsonl", sample_every=2)
    expected = _diagnostics_bytes(baseline)
    assert expected != b"[]"
    assert _diagnostics_bytes(observed) == expected
    assert _diagnostics_bytes(traced) == expected
    # Timing diagnostics only exist with observability enabled, and are the
    # only records the enabled runs may add.
    assert not any(record.timing for record in baseline.diagnostics)


def test_diagnostics_bit_identical_across_worker_counts():
    expected = _diagnostics_bytes(_run())
    assert _diagnostics_bytes(_run(workers=2)) == _diagnostics_bytes(_run(workers=4)) == expected


def test_diagnostics_shape_and_round_trip():
    report = _run(observability=Observability())
    assert report.diagnostics
    for record in report.diagnostics:
        assert record.severity in ("info", "warning", "error")
        assert record.code
        assert Diagnostic.from_dict(json.loads(json.dumps(record.to_dict()))) == record
    codes = {record.code for record in report.diagnostics}
    assert codes & {"CONVERGENCE_OK", "CONVERGENCE_DEGRADED"}
    # The report JSON schema carries the same records.
    payload = report.to_dict()["diagnostics"]
    assert payload == [record.to_dict() for record in report.diagnostics]
    with pytest.raises(ValueError):
        Diagnostic.from_dict({"severity": "fatal", "code": "X", "message": "bad severity"})


def test_time_capped_paving_is_reported():
    import dataclasses

    from repro.icp.config import ICPConfig

    capped = dataclasses.replace(
        QCoralConfig(samples_per_query=SAMPLES, seed=SEED), icp=ICPConfig(max_boxes=1000, time_budget=1e-9)
    )
    hub = Observability()
    with Session(observability=hub) as session:
        report = session.quantify("x * x + y * y <= 1", BOUNDS, config=capped).run()
    (record,) = [record for record in report.diagnostics if record.code == "PAVING_TIME_CAPPED"]
    assert record.severity == "warning" and record.timing
    assert dict(record.evidence) == {"capped_factors": 1, "factors": "0"}
    assert record not in deterministic_diagnostics(report.diagnostics)
    assert hub.snapshot().counter("icp_time_capped_total") == 1
    # An uncapped run reports neither.
    assert "PAVING_TIME_CAPPED" not in {record.code for record in _run().diagnostics}


#: Truth 1: the four quadrants of the unit square.  Under PARTCACHE the two
#: halves of each axis are sampled as separate factors, shared by two path
#: conditions each, so the composed mean can land on either side of 1.
QUADRANTS = "x <= 0.5 && y <= 0.5 || x <= 0.5 && y > 0.5 || x > 0.5 && y <= 0.5 || x > 0.5 && y > 0.5"


def _quadrants(seed):
    with Session() as session:
        query = session.quantify(QUADRANTS, {"x": (0, 1), "y": (0, 1)}).features(stratified=False)
        return query.with_budget(1000).seed(seed).run()


def test_mean_outside_the_unit_interval_is_reported_not_clamped():
    report = _quadrants(0)
    assert report.mean > 1.0
    (record,) = [record for record in report.diagnostics if record.code == "MEAN_OUT_OF_RANGE"]
    assert record.severity == "warning" and not record.timing
    assert dict(record.evidence) == {"mean": report.mean, "std": report.std}
    assert record in deterministic_diagnostics(report.diagnostics)
    # An in-range run reports nothing.
    in_range = _quadrants(3)
    assert 0.0 <= in_range.mean <= 1.0
    assert "MEAN_OUT_OF_RANGE" not in {record.code for record in in_range.diagnostics}


def test_metrics_from_dict_rejects_malformed_payloads():
    good = _run(observability=Observability()).metrics.to_dict()
    assert MetricsSnapshot.from_dict(good) is not None
    with pytest.raises(ValueError, match="expected a mapping"):
        MetricsSnapshot.from_dict([])  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="'counters' must be a mapping"):
        MetricsSnapshot.from_dict({**good, "counters": 3})
    bad_counter = {**good, "counters": {**good["counters"], "x_total": "fast"}}
    with pytest.raises(ValueError, match=r"counters\['x_total'\] is not a number"):
        MetricsSnapshot.from_dict(bad_counter)
    histogram_key = next(iter(good["histograms"]))
    broken = json.loads(json.dumps(good))
    del broken["histograms"][histogram_key]["buckets"]["+Inf"]
    with pytest.raises(ValueError, match=r"buckets missing '\+Inf'"):
        MetricsSnapshot.from_dict(broken)
    broken = json.loads(json.dumps(good))
    bound = next(iter(broken["histograms"][histogram_key]["buckets"]))
    broken["histograms"][histogram_key]["buckets"][bound] = 1.5
    with pytest.raises(ValueError, match="is not an integer count"):
        MetricsSnapshot.from_dict(broken)


# --------------------------------------------------------------------------- #
# 6. Run ledger: append-only provenance, families, drift
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("suffix,backend", [("ledger.jsonl", "jsonl"), ("ledger.db", "sqlite")])
def test_ledger_round_trips_runs(tmp_path, suffix, backend):
    path = str(tmp_path / suffix)
    for _ in range(2):
        report = _run()
        with open_ledger(path) as ledger:
            ledger.append(ledger_entry_for(report))
    with open_ledger(path) as ledger:
        assert ledger.backend == backend
        entries = ledger.entries()
        assert len(entries) == 2
        first, second = entries
        assert first.family == second.family
        assert ledger.families() == [first.family]
        assert ledger.entries(family=first.family) == entries
    assert first.seed == SEED
    assert first.mean == second.mean
    assert first.run_id == second.run_id or first.analysis_time != second.analysis_time
    assert estimate_drift_sigmas(first, second) == 0.0
    parsed = second.diagnostics()
    assert parsed and all(isinstance(record, Diagnostic) for record in parsed)
    # No metrics snapshot stored (observability off) => no phase timings.
    assert phase_timings(second) == {}


@pytest.mark.parametrize("suffix", ["ledger.jsonl", "ledger.db"])
def test_ledger_encodes_the_report_once_with_unchanged_bytes(tmp_path, suffix, monkeypatch):
    report = _run(observability=Observability())  # a report carrying its metrics
    payload_text = json.dumps(report.to_dict(), sort_keys=True)
    encoded = []
    dumps = json.dumps

    def counting_dumps(value, *args, **kwargs):
        text = dumps(value, *args, **kwargs)
        if payload_text in text:
            encoded.append(text)
        return text

    monkeypatch.setattr(json, "dumps", counting_dumps)
    entry = ledger_entry_for(report, created=1.0)
    path = str(tmp_path / suffix)
    with open_ledger(path) as ledger:
        ledger.append(entry)
    monkeypatch.undo()
    assert len(encoded) == 1
    # The run id and the stored line are the bytes of the two full encodings.
    material = json.dumps(
        {"family": entry.family, "config": config_fingerprint(report.config), "report": report.to_dict()},
        sort_keys=True,
        default=str,
    )
    assert entry.run_id == hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
    line = json.dumps(entry.to_dict(), sort_keys=True)
    if suffix.endswith(".jsonl"):
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == line + "\n"
    else:
        with contextlib.closing(sqlite3.connect(path)) as connection:
            assert connection.execute("SELECT payload FROM runs").fetchall() == [(line,)]


def test_ledger_run_id_of_a_report_that_is_not_plain_json(tmp_path):
    report = dataclasses.replace(_run(), seed=decimal.Decimal(7))
    entry = ledger_entry_for(report, created=1.0)
    material = json.dumps(
        {"family": entry.family, "config": config_fingerprint(report.config), "report": report.to_dict()},
        sort_keys=True,
        default=str,
    )
    assert entry.run_id == hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
    with open_ledger(str(tmp_path / "ledger.jsonl")) as ledger:
        with pytest.raises(TypeError):
            ledger.append(entry)


def test_session_level_ledgers(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    config = QCoralConfig(samples_per_query=SAMPLES, seed=SEED)
    with Session(ledger=path) as session:
        session.quantify(CONSTRAINTS, BOUNDS, config=config).run()
    with open_ledger(path) as ledger:
        assert len(ledger.entries()) == 1
    # Different constraints land in a different family.
    with Session(ledger=path) as session:
        session.quantify("x <= 0.5", {"x": (-1.0, 1.0)}, config=config).run()
    with open_ledger(path) as ledger:
        assert len(ledger.families()) == 2


def test_ledger_backend_needs_a_path_before_any_run(tmp_path):
    with pytest.raises(ConfigurationError, match="^ledger backend 'sqlite' requires a path$"):
        open_ledger(None, "sqlite")
    with pytest.raises(ConfigurationError, match="^unknown ledger backend 'nope'"):
        open_ledger(str(tmp_path / "runs.db"), "nope")
    # A Session rejects the pair at construction, before any sampling.
    with pytest.raises(ConfigurationError, match="^ledger backend 'sqlite' requires a path$"):
        Session(ledger_backend="sqlite")


def test_memory_ledger_refuses_a_file_path(tmp_path):
    path = tmp_path / "runs.db"
    with pytest.raises(ConfigurationError, match="takes no file path"):
        open_ledger(str(path), "memory")
    with pytest.raises(ConfigurationError, match="takes no file path"):
        Session(ledger=str(path), ledger_backend="memory")
    assert not path.exists()
    for in_memory in (None, ":memory:"):
        with open_ledger(in_memory, "memory") as ledger:
            assert ledger.backend == "memory"


def test_ledger_drift_in_sigma_units():
    report = _run()
    base = ledger_entry_for(report, created=1.0)
    shifted_payload = dict(base.report)
    shifted_payload["mean"] = base.mean + 5.0 * base.std
    shifted = base.__class__.from_dict({**base.to_dict(), "report": shifted_payload})
    drift = estimate_drift_sigmas(base, shifted)
    assert drift == pytest.approx(5.0 / (2.0**0.5), rel=1e-9)
    assert estimate_drift_sigmas(base, base) == 0.0
