"""Pluggable exporters: JSONL traces, Prometheus text format, console summary.

Exporters are pure functions over drained span lists and
:class:`~repro.obs.metrics.MetricsSnapshot` values — they hold no state and
run strictly *after* analysis, so they cannot perturb results no matter what
they do.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.metrics import HistogramSnapshot, LabelItems, MetricsSnapshot

#: Schema tag stamped on the header record of every JSONL trace.
TRACE_SCHEMA = "qcoral-trace-1"

#: Keys a trace header record must carry (``qcoral obs lint-trace`` enforces
#: this; the values may be null when the producer did not know them).
TRACE_HEADER_KEYS = ("schema", "repro_version", "seed", "method", "config_fingerprint")

#: Keys every span record must carry.
TRACE_SPAN_KEYS = ("span_id", "name", "start", "duration")

#: ``# HELP`` strings for the engine's well-known metrics (exporter-side so
#: the hot path never carries help text around).
METRIC_HELP: Mapping[str, str] = {
    "qcoral_rounds_total": "Adaptive sampling rounds executed",
    "qcoral_samples_total": "Samples spent by the adaptive round loop",
    "qcoral_round_seconds": "Wall-clock duration of one adaptive round",
    "qcoral_factor_allocated_total": "Samples allocated to one factor by the budget allocator",
    "qcoral_factor_sigma": "Latest per-factor standard deviation estimate",
    "qcoral_store_outright_reuse_total": "Factors answered exactly from the store without sampling",
    "qcoral_store_warm_freeze_total": "Warm-started factors frozen without further sampling",
    "qcoral_store_paving_reuse_total": "Factors whose strata were rebuilt from a stored paving instead of ICP",
    "qcoral_plan_reuse_total": (
        "Queries planned from the session's memo instead of parsing or symbolic execution, "
        "simplification, partitioning and keying"
    ),
    "qcoral_samplers_built_total": "Factor samplers built (a fully covered stored factor needs none)",
    "qcoral_paving_decodes_total": "Stored pavings decoded and weighed by the profile (once per memo miss)",
    "sampler_draws_total": "Samples drawn, labelled by estimation method",
    "sampler_hits_total": "Satisfying samples, labelled by estimation method",
    "importance_refinement_splits_total": "Upfront mass-driven paving splits",
    "importance_adaptive_splits_total": "Adaptive mid-run stratum refinements",
    "importance_discarded_samples_total": "Samples discarded by adaptive refinement",
    "icp_boxes_explored_total": "Boxes popped by the ICP paving solver",
    "icp_contraction_passes_total": "Contraction passes run by the ICP solver",
    "icp_time_capped_total": "ICP pavings cut short by the wall-clock budget",
    "icp_pave_seconds": "Wall-clock duration of one ICP paving",
    "exec_chunks_total": "Sampling chunks executed",
    "exec_samples_total": "Samples drawn inside pooled sampling chunks",
    "exec_hits_total": "Satisfying samples inside pooled sampling chunks",
    "exec_chunk_seconds": "Wall-clock duration of one sampling chunk",
    "exec_queue_wait_seconds": "Delay between chunk dispatch and execution start",
    "exec_worker_busy_seconds_total": "Busy time accumulated per worker",
    "exec_worker_chunks_total": "Chunks executed per worker",
    "store_gets_total": "Persistent-store lookups",
    "store_hits_total": "Persistent-store lookups that found an entry",
    "store_publishes_total": "Delta publications into the persistent store",
    "store_warm_starts_total": "Factors warm-started from a store entry",
    "store_claim_waits_total": "Runs that waited for another run to publish factors they need",
    "store_get_seconds": "Latency of one persistent-store get",
    "store_merge_seconds": "Latency of one persistent-store merge",
    "kernel_lookups_total": "Kernel cache lookups during the analysis",
    "kernel_memory_hits_total": "Kernel lookups served from the in-process LRU",
    "kernel_codegens_total": "Kernel sources generated from scratch",
    "kernel_evictions_total": "Kernels evicted from the in-process LRU",
    "kernel_compile_seconds_total": "Time spent generating and compiling kernels",
}


def write_trace_jsonl(
    spans: Iterable[Mapping[str, Any]],
    path: str,
    append: bool = True,
    header: Optional[Mapping[str, Any]] = None,
) -> int:
    """Write span records as JSON Lines; returns the number of *spans* written.

    When ``header`` is given and the target file is new (or ``append`` is
    False), a self-describing header record is written first — schema tag,
    repro version, seed, method, config fingerprint — so a trace file can be
    interpreted without the producing process (``qcoral obs lint-trace``
    requires it).  Appending to an existing non-empty file never repeats the
    header.
    """
    mode = "a" if append else "w"
    fresh = mode == "w" or not os.path.exists(path) or os.path.getsize(path) == 0
    written = 0
    with open(path, mode, encoding="utf-8") as handle:
        if header is not None and fresh:
            handle.write(json.dumps(dict(header), sort_keys=True) + "\n")
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
            written += 1
    return written


def lint_trace(path: str) -> List[str]:
    """Validate a JSONL trace file; returns a list of problems (empty = ok).

    Checks: the file parses line-by-line as JSON objects, line 1 is a header
    record carrying every :data:`TRACE_HEADER_KEYS` with a recognised schema
    tag, every later line is a span record with the :data:`TRACE_SPAN_KEYS`,
    non-negative start/duration, and unique span ids.  Span ids are assigned
    sequentially per producing run and restart when a later run appends to
    the same file, so uniqueness is scoped to each monotone run segment — a
    strictly decreasing id starts a new segment rather than flagging a
    duplicate.
    """
    problems: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        return [f"{path}: cannot read: {error}"]
    if not lines:
        return [f"{path}: empty trace (missing header record)"]
    seen_ids: set = set()
    previous_id: Optional[float] = None
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            problems.append(f"{path}:{line_number}: blank line")
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            problems.append(f"{path}:{line_number}: not valid JSON: {error}")
            continue
        if not isinstance(record, dict):
            problems.append(f"{path}:{line_number}: expected a JSON object")
            continue
        if line_number == 1:
            if record.get("record") != "header":
                problems.append(f"{path}:1: first record must be the trace header (record='header')")
                continue
            for key in TRACE_HEADER_KEYS:
                if key not in record:
                    problems.append(f"{path}:1: header missing {key!r}")
            schema = record.get("schema")
            if isinstance(schema, str) and not schema.startswith("qcoral-trace"):
                problems.append(f"{path}:1: unrecognised trace schema {schema!r}")
            continue
        if record.get("record") == "header":
            problems.append(f"{path}:{line_number}: duplicate header record")
            continue
        missing = [key for key in TRACE_SPAN_KEYS if key not in record]
        if missing:
            problems.append(f"{path}:{line_number}: span missing {', '.join(repr(key) for key in missing)}")
            continue
        for key in ("start", "duration"):
            value = record[key]
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{path}:{line_number}: {key!r} must be a non-negative number")
        span_id = record["span_id"]
        if isinstance(span_id, (int, float)) and previous_id is not None and span_id < previous_id:
            seen_ids.clear()
        if span_id in seen_ids:
            problems.append(f"{path}:{line_number}: duplicate span_id {span_id!r}")
        seen_ids.add(span_id)
        if isinstance(span_id, (int, float)):
            previous_id = span_id
    return problems


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: LabelItems, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = labels + extra
    if not items:
        return ""
    return "{" + ",".join(f'{key}="{value}"' for key, value in items) + "}"


def _grouped(metrics: Mapping[Tuple[str, LabelItems], Any]) -> Dict[str, List[Tuple[LabelItems, Any]]]:
    groups: Dict[str, List[Tuple[LabelItems, Any]]] = {}
    for (name, labels), value in sorted(metrics.items()):
        groups.setdefault(name, []).append((labels, value))
    return groups


def prometheus_text(snapshot: MetricsSnapshot) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []

    for name, rows in _grouped(snapshot.counters).items():
        help_text = METRIC_HELP.get(name, f"Counter {name}")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} counter")
        for labels, value in rows:
            lines.append(f"{name}{_render_labels(labels)} {_format_value(value)}")

    for name, rows in _grouped(snapshot.gauges).items():
        help_text = METRIC_HELP.get(name, f"Gauge {name}")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")
        for labels, value in rows:
            lines.append(f"{name}{_render_labels(labels)} {_format_value(value)}")

    for name, rows in _grouped(snapshot.histograms).items():
        help_text = METRIC_HELP.get(name, f"Histogram {name}")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} histogram")
        for labels, hist in rows:
            cumulative = 0
            for bound, count in zip(hist.buckets, hist.counts):
                cumulative += count
                le = (("le", _format_value(bound)),)
                lines.append(f"{name}_bucket{_render_labels(labels, le)} {cumulative}")
            cumulative += hist.counts[-1]
            lines.append(f'{name}_bucket{_render_labels(labels, (("le", "+Inf"),))} {cumulative}')
            lines.append(f"{name}_sum{_render_labels(labels)} {repr(hist.total)}")
            lines.append(f"{name}_count{_render_labels(labels)} {hist.count}")

    return "\n".join(lines) + "\n" if lines else ""


def _histogram_line(name: str, hist: HistogramSnapshot) -> str:
    return (
        f"  {name}: n={hist.count} mean={hist.mean * 1000.0:.3f}ms "
        f"min={hist.minimum * 1000.0:.3f}ms max={hist.maximum * 1000.0:.3f}ms"
    )


def console_summary(snapshot: MetricsSnapshot) -> str:
    """Human-readable one-screen summary of a snapshot."""
    lines: List[str] = []
    counters = snapshot.to_dict()["counters"]
    gauges = snapshot.to_dict()["gauges"]
    if counters:
        lines.append("counters:")
        lines.extend(f"  {key}: {_format_value(value)}" for key, value in counters.items())
    if gauges:
        lines.append("gauges:")
        lines.extend(f"  {key}: {value:.6g}" for key, value in gauges.items())
    histograms = sorted(snapshot.histograms.items())
    if histograms:
        lines.append("latencies:")
        from repro.obs.metrics import render_key

        lines.extend(_histogram_line(render_key(name, labels), hist) for (name, labels), hist in histograms)
    if not lines:
        return "no metrics recorded\n"
    return "\n".join(lines) + "\n"
