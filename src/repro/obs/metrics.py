"""Metrics registry: counters, gauges, and histograms with mergeable snapshots.

Design constraints, in order of importance:

1. **Zero perturbation.**  Nothing here draws random numbers or reads
   wall-clock time on its own; the registry only stores what callers hand it.
   With a fixed master seed, results are bit-identical whether a registry is
   attached or not.
2. **Mergeable.**  :class:`MetricsSnapshot` values merge, so per-run
   snapshots can be aggregated across runs.  Sampling-pool threads never
   touch the registry: the scheduler records their chunk timings from the
   calling thread, in task order.
3. **Cheap.**  One lock, dict updates, no string formatting on the hot path.
   Label sets are normalised to sorted tuples once per call.

Metric identity is ``(name, sorted label items)``; exporters render that as
the Prometheus-style ``name{key="value"}`` string.  Histograms use one fixed
latency bucket ladder (sub-millisecond to seconds) — enough resolution for
chunk/store/compile latencies without per-metric configuration.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

#: Histogram bucket upper bounds (seconds); ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

#: A normalised label set: items sorted by key.
LabelItems = Tuple[Tuple[str, str], ...]

#: A metric identity: name plus normalised labels.
MetricKey = Tuple[str, LabelItems]


def label_items(labels: Mapping[str, Any]) -> LabelItems:
    """Normalise a label mapping to its canonical sorted-items form."""
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def render_key(name: str, labels: LabelItems) -> str:
    """Render a metric key as ``name`` or ``name{k="v",...}`` (Prometheus style)."""
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable state of one histogram: fixed buckets plus running moments."""

    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]  # one slot per bucket bound, plus a final +Inf slot
    total: float
    count: int
    minimum: float
    maximum: float

    def merged(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two histograms of the same metric (bucket counts add)."""
        if self.buckets != other.buckets:
            raise ValueError("cannot merge histograms with different bucket ladders")
        return HistogramSnapshot(
            buckets=self.buckets,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            count=self.count + other.count,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (per-bucket counts keyed by upper bound)."""
        bucket_counts = {str(bound): count for bound, count in zip(self.buckets, self.counts)}
        bucket_counts["+Inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "buckets": bucket_counts,
        }


class _Histogram:
    """Mutable histogram cell inside a registry (no lock of its own)."""

    __slots__ = ("counts", "total", "count", "minimum", "maximum")

    def __init__(self) -> None:
        self.counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        self.total = 0.0
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        slot = len(DEFAULT_BUCKETS)
        for index, bound in enumerate(DEFAULT_BUCKETS):
            if value <= bound:
                slot = index
                break
        self.counts[slot] += 1
        self.total += value
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            buckets=DEFAULT_BUCKETS,
            counts=tuple(self.counts),
            total=self.total,
            count=self.count,
            minimum=self.minimum if self.count else 0.0,
            maximum=self.maximum if self.count else 0.0,
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable view of a registry at one instant; merges across runs."""

    counters: Mapping[MetricKey, float] = field(default_factory=dict)
    gauges: Mapping[MetricKey, float] = field(default_factory=dict)
    histograms: Mapping[MetricKey, HistogramSnapshot] = field(default_factory=dict)

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots: counters add, gauges last-write-wins,
        histograms merge bucket-wise."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0.0) + value
        gauges = dict(self.gauges)
        gauges.update(other.gauges)
        histograms = dict(self.histograms)
        for key, hist in other.histograms.items():
            existing = histograms.get(key)
            histograms[key] = existing.merged(hist) if existing is not None else hist
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)

    def counter(self, name: str, **labels: Any) -> float:
        """Value of one counter (0.0 when never incremented)."""
        return self.counters.get((name, label_items(labels)), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of one counter over every label set."""
        return sum(value for (metric, _), value in self.counters.items() if metric == name)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form with Prometheus-style string keys, sorted."""
        return {
            "counters": {render_key(name, labels): value for (name, labels), value in sorted(self.counters.items())},
            "gauges": {render_key(name, labels): value for (name, labels), value in sorted(self.gauges.items())},
            "histograms": {
                render_key(name, labels): hist.to_dict() for (name, labels), hist in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsSnapshot":
        """Inverse of :meth:`to_dict` (labels are parsed back out of the keys).

        Validates the payload shape — snapshots persisted by ledgers travel
        across versions, so malformed input raises a ``ValueError`` naming the
        offending key instead of a bare ``KeyError``/``TypeError``.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"malformed metrics snapshot: expected a mapping, got {type(payload).__name__}")
        counters = _validated_scalar_section(payload, "counters")
        gauges = _validated_scalar_section(payload, "gauges")
        raw_histograms = payload.get("histograms", {})
        if not isinstance(raw_histograms, Mapping):
            raise ValueError("malformed metrics snapshot: 'histograms' must be a mapping")
        histograms = {}
        for key, hist in raw_histograms.items():
            histograms[_parse_key(key)] = _histogram_from_dict(key, hist)
        return cls(counters=counters, gauges=gauges, histograms=histograms)


def _validated_scalar_section(payload: Mapping[str, Any], section: str) -> Dict[MetricKey, float]:
    """Parse one ``counters``/``gauges`` block, rejecting non-numeric values."""
    raw = payload.get(section, {})
    if not isinstance(raw, Mapping):
        raise ValueError(f"malformed metrics snapshot: {section!r} must be a mapping")
    values: Dict[MetricKey, float] = {}
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"malformed metrics snapshot: {section}[{key!r}] is not a number")
        values[_parse_key(key)] = float(value)
    return values


def _histogram_from_dict(key: str, hist: Any) -> HistogramSnapshot:
    """Parse one serialised histogram, naming the offending key on failure."""
    where = f"histograms[{key!r}]"
    if not isinstance(hist, Mapping):
        raise ValueError(f"malformed metrics snapshot: {where} must be a mapping")
    raw_buckets = hist.get("buckets")
    if not isinstance(raw_buckets, Mapping):
        raise ValueError(f"malformed metrics snapshot: {where}.buckets must be a mapping")
    if "+Inf" not in raw_buckets:
        raise ValueError(f"malformed metrics snapshot: {where}.buckets missing '+Inf'")
    try:
        buckets = tuple(sorted(float(bound) for bound in raw_buckets if bound != "+Inf"))
    except (TypeError, ValueError):
        raise ValueError(f"malformed metrics snapshot: {where}.buckets has a non-numeric bound") from None
    counts = []
    for bound in tuple(str(bound) for bound in buckets) + ("+Inf",):
        value = raw_buckets[bound]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"malformed metrics snapshot: {where}.buckets[{bound!r}] is not an integer count")
        counts.append(value)
    fields = {}
    for name, caster in (("sum", float), ("count", int), ("min", float), ("max", float)):
        value = hist.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"malformed metrics snapshot: {where}.{name} is not a number")
        fields[name] = caster(value)
    return HistogramSnapshot(
        buckets=buckets,
        counts=tuple(counts),
        total=fields["sum"],
        count=fields["count"],
        minimum=fields["min"],
        maximum=fields["max"],
    )


def _parse_key(rendered: str) -> MetricKey:
    """Parse ``name{k="v",...}`` back into a :data:`MetricKey`."""
    if "{" not in rendered:
        return rendered, ()
    name, _, rest = rendered.partition("{")
    body = rest.rstrip("}")
    items = []
    for part in body.split(","):
        if not part:
            continue
        key, _, value = part.partition("=")
        items.append((key, value.strip('"')))
    return name, tuple(sorted(items))


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, _Histogram] = {}

    def count(self, name: str, amount: float = 1, **labels: Any) -> None:
        """Increment a monotonically growing counter."""
        key = (name, label_items(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a point-in-time gauge (last write wins)."""
        key = (name, label_items(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into a latency histogram."""
        key = (name, label_items(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = _Histogram()
            histogram.observe(float(value))

    def snapshot(self) -> MetricsSnapshot:
        """An immutable copy of the current state."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={key: histogram.snapshot() for key, histogram in self._histograms.items()},
            )

    def reset(self) -> None:
        """Drop every recorded value (snapshots already taken are unaffected)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
