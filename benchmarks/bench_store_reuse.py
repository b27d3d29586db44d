"""Cross-run reuse through the persistent estimate store.

The scenario the store exists for — re-analysis of an evolving program — has
three phases:

* **cold** — an empty store: every factor pays its full sampling cost and the
  counts are written back;
* **warm** — the identical program re-analysed: every factor is served from
  the store, zero samples are drawn (reuse fraction 1.0) and nothing is
  re-paved — stratified factors rebuild their strata from the stored paving;
* **mutated** — one branch condition of the program changed: factors touched
  by the mutation are re-sampled, everything else is still served.

Each phase records the factors reused vs sampled, the samples drawn, the
``ICPSolver.pave`` calls, and the wall-clock time, for both file-backed store
backends (JSONL and SQLite).  The
machine-readable summary lands in ``benchmarks/BENCH_store.json``.

Run directly (``python benchmarks/bench_store_reuse.py``) for the table, or
via pytest for the assertion-checked reduced version.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time

import pytest

try:
    from benchmarks.conftest import FULL_SCALE, record_bench, write_bench_summary
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import FULL_SCALE, record_bench, write_bench_summary
from repro.analysis.results import Table
from repro.api import Session
from repro.core.qcoral import QCoralConfig
from repro.icp.solver import ICPSolver
from repro.subjects import programs

#: Summary file of this benchmark family.
SUMMARY = "BENCH_store.json"

#: Per-factor budget (paper scale when QCORAL_BENCH_FULL=1).
BUDGET = 100_000 if FULL_SCALE else 10_000

#: The subject program and a one-constraint mutation of it (the changed branch
#: is the sampled flap-angle factor; the altitude factors are untouched).
SUBJECT = programs.SAFETY_MONITOR
MUTATED = programs.SAFETY_MONITOR.replace("sin(headFlap * tailFlap) > 0.25", "sin(headFlap * tailFlap) > 0.3")
EVENT = programs.SAFETY_MONITOR_EVENT


@contextlib.contextmanager
def counting_paves():
    """Count ``ICPSolver.pave`` calls inside the block (yields a one-item list)."""
    calls = [0]
    original = ICPSolver.pave

    def pave(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    ICPSolver.pave = pave
    try:
        yield calls
    finally:
        ICPSolver.pave = original


def run_phase(source: str, store_path: str, backend: str, seed: int) -> dict:
    """One program analysis against the store; returns reuse metrics."""
    config = QCoralConfig(samples_per_query=BUDGET, seed=seed)
    started = time.perf_counter()
    with counting_paves() as paves, Session(store=store_path, store_backend=backend) as session:
        report = session.analyze(source, EVENT, config=config).run()
    elapsed = time.perf_counter() - started
    stats = report.cache_statistics
    lookups = stats.store_lookups
    return {
        "mean": report.mean,
        "std": report.std,
        "samples": report.total_samples,
        "factors": lookups,
        "reused": stats.store_hits,
        "warm_starts": stats.warm_starts,
        "published": stats.store_publishes,
        "merged": stats.store_merges,
        "reuse_fraction": (stats.store_hits / lookups) if lookups else 0.0,
        "pave_calls": paves[0],
        "time": elapsed,
    }


def collect_results(backend: str, seed: int = 17) -> dict:
    """Cold → warm → mutated sequence on one backend, registered for the dump."""
    suffix = ".jsonl" if backend == "jsonl" else ".db"
    handle, store_path = tempfile.mkstemp(suffix=suffix)
    os.close(handle)
    os.remove(store_path)
    try:
        cold = run_phase(SUBJECT, store_path, backend, seed)
        warm = run_phase(SUBJECT, store_path, backend, seed)
        mutated = run_phase(MUTATED, store_path, backend, seed)
    finally:
        if os.path.exists(store_path):
            os.remove(store_path)
    payload = {
        "backend": backend,
        "budget": BUDGET,
        "cold": cold,
        "warm": warm,
        "mutated": mutated,
        "wall_clock_saved": cold["time"] - warm["time"],
    }
    record_bench(f"store_reuse_{backend}", payload, summary=SUMMARY)
    return payload


def generate_table() -> Table:
    table = Table(
        f"Persistent-store reuse at {BUDGET} samples/factor (safety monitor)",
        ("phase", "samples", "factors", "reused", "fraction", "paves", "time"),
    )
    for backend in ("jsonl", "sqlite"):
        payload = collect_results(backend)
        for phase in ("cold", "warm", "mutated"):
            row = payload[phase]
            table.add_row(
                f"{backend}/{phase}",
                phase,
                row["samples"],
                row["factors"],
                row["reused"],
                row["reuse_fraction"],
                row["pave_calls"],
                f"{row['time']:.3f}s",
            )
    return table


@pytest.mark.parametrize("backend", ("jsonl", "sqlite"))
def test_store_reuse(backend):
    payload = collect_results(backend)
    cold, warm, mutated = payload["cold"], payload["warm"], payload["mutated"]

    # Cold run pays full price and publishes every sampled/exact factor.
    assert cold["reused"] == 0
    assert cold["samples"] > 0
    assert cold["published"] == cold["factors"]

    # Warm re-run of the unchanged subject re-samples zero factors.
    assert warm["reuse_fraction"] == 1.0
    assert warm["samples"] == 0
    assert warm["mean"] == cold["mean"]
    # ...and re-paves nothing: stratified factors rebuild from the stored paving.
    assert cold["pave_calls"] > 0
    assert warm["pave_calls"] == 0

    # After a one-constraint mutation only the affected factor is re-sampled.
    assert 0.0 < mutated["reuse_fraction"] < 1.0
    assert mutated["reused"] == mutated["factors"] - 1
    assert 0 < mutated["samples"] <= BUDGET


def main() -> None:
    print(generate_table().render())
    path = write_bench_summary(SUMMARY)
    print(f"\nbenchmark summary written to {path}")


if __name__ == "__main__":
    main()
