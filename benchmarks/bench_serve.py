"""Served vs in-process quantification: latency, warm hits, throughput.

The service's pitch is that HTTP adds bounded overhead on cold runs and
*removes* nearly all cost on repeated ones (the store answers without
sampling).  This benchmark measures that directly against a real
`qcoral serve` instance on an ephemeral port:

* **cold latency** — the same constraint families quantified in-process on
  a plain :class:`Session` and served over HTTP at the same seed/budget;
  the ratio is the transport + admission overhead.  The cold pass doubles
  as the bit-identity contract check: every served report must equal its
  in-process twin field for field (timing excluded).
* **warm latency** — the identical request repeated against the warm store:
  must draw zero samples and answer in a fraction of the cold time.  The
  server's counters must show that every repeat took its plan from the
  session's memo, that none built a sampler, and that no repeat after the
  first decoded a stored paving again.
* **throughput** — distinct-family request floods at 1/4/8 concurrent
  clients against one shared server (recorded for trajectory, not gated:
  shared-runner scheduling noise dominates).

The summary lands in ``benchmarks/BENCH_serve.json`` and is gated by
``benchmarks/check_regression.py`` (hard gates on bit identity, zero-sample
warm hits and the warm reuse counters; a loose ceiling on the warm/cold
latency ratio).

Run directly (``python benchmarks/bench_serve.py``) for the table, or via
pytest for the assertion-checked version.
"""

from __future__ import annotations

import threading
import time

try:
    from benchmarks.conftest import FULL_SCALE, record_bench, write_bench_summary
except ImportError:  # executed directly: benchmarks/ is sys.path[0]
    from conftest import FULL_SCALE, record_bench, write_bench_summary
from repro.analysis.results import Table
from repro.api import Session
from repro.serve import AdmissionLimits, ServeClient, serve_in_thread

#: Summary file of this benchmark family.
SUMMARY = "BENCH_serve.json"

#: Per-request sampling budget.  Big enough that sampling dominates the
#: HTTP roundtrip, so the warm/cold ratio measures the store's win and not
#: connection-setup noise.
BUDGET = 2_000_000 if FULL_SCALE else 1_000_000

#: Cold-pass families (one request each, in-process and served).
COLD_FAMILIES = 8 if FULL_SCALE else 4

#: Warm-hit repetitions of one identical request.
WARM_REPEATS = 20 if FULL_SCALE else 8

#: Concurrent-client sweep: (clients, requests per client).
CLIENT_SWEEP = ((1, 8), (4, 4), (8, 2)) if FULL_SCALE else ((1, 4), (4, 2), (8, 1))

SEED = 17

DOMAINS = {"x": "-1:1", "y": "-1:1"}


def _family(index: int) -> str:
    # Distinct radii make distinct constraint families, so every request in
    # a cold pass actually samples instead of warm-hitting its predecessor.
    return f"x*x + y*y <= {0.5 + index * 0.01}"


#: Server counters read around the warm repeats.
REUSE_COUNTERS = ("qcoral_plan_reuse_total", "qcoral_samplers_built_total", "qcoral_paving_decodes_total")


def _reuse_counters(handle) -> dict:
    snapshot = handle.server.observability.snapshot()
    return {name: int(snapshot.counter(name)) for name in REUSE_COUNTERS}


def _strip_volatile(report: dict) -> dict:
    clean = {key: value for key, value in report.items() if key not in ("time", "metrics", "diagnostics")}
    return clean


def run_benchmark() -> dict:
    """Measure the three served scenarios; returns the summary payload."""
    # In-process reference: one session, one memory store, same configs.
    in_process_reports = []
    started = time.perf_counter()
    with Session(store_backend="memory") as session:
        for index in range(COLD_FAMILIES):
            report = (
                session.quantify(_family(index), DOMAINS)
                .configure(samples_per_query=BUDGET, seed=SEED)
                .run()
                .to_dict()
            )
            in_process_reports.append(report)
    in_process_seconds = time.perf_counter() - started

    with serve_in_thread(limits=AdmissionLimits(max_concurrent=8)) as handle:
        client = ServeClient(handle.url)

        served_reports = []
        started = time.perf_counter()
        for index in range(COLD_FAMILIES):
            served_reports.append(client.quantify(_family(index), DOMAINS, seed=SEED, budget=BUDGET))
        served_seconds = time.perf_counter() - started

        bit_identical = all(
            _strip_volatile(served) == _strip_volatile(local)
            for served, local in zip(served_reports, in_process_reports)
        )

        # Warm hits: the identical request against the now-warm store.
        warm_samples = []
        before = _reuse_counters(handle)
        started = time.perf_counter()
        for repeat in range(WARM_REPEATS):
            warm_samples.append(client.quantify(_family(0), DOMAINS, seed=SEED, budget=BUDGET)["samples"])
            if repeat == 0:
                after_first = _reuse_counters(handle)
        warm_seconds_each = (time.perf_counter() - started) / WARM_REPEATS
        warm_zero_samples = all(samples == 0 for samples in warm_samples)
        after = _reuse_counters(handle)

        # Throughput: distinct families per request so every run samples.
        throughput = []
        family_offset = COLD_FAMILIES
        for clients, per_client in CLIENT_SWEEP:
            errors: list = []

            def flood(base: int, count: int) -> None:
                worker = ServeClient(handle.url)
                for request in range(count):
                    try:
                        worker.quantify(_family(base + request), DOMAINS, seed=SEED, budget=BUDGET)
                    except Exception as error:  # noqa: BLE001 - recorded below
                        errors.append(error)

            threads = [
                threading.Thread(target=flood, args=(family_offset + worker * per_client, per_client))
                for worker in range(clients)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            family_offset += clients * per_client
            requests = clients * per_client
            throughput.append(
                {
                    "clients": clients,
                    "requests": requests,
                    "errors": len(errors),
                    "seconds": round(elapsed, 4),
                    "requests_per_second": round(requests / elapsed, 2),
                }
            )

    cold_each = served_seconds / COLD_FAMILIES
    return {
        "budget": BUDGET,
        "cold_requests": COLD_FAMILIES,
        "bit_identical": bit_identical,
        "warm_zero_samples": warm_zero_samples,
        "in_process_seconds_each": round(in_process_seconds / COLD_FAMILIES, 4),
        "served_seconds_each": round(cold_each, 4),
        "served_overhead_ratio": round(served_seconds / in_process_seconds, 3),
        "warm_seconds_each": round(warm_seconds_each, 4),
        "warm_over_cold_ratio": round(warm_seconds_each / cold_each, 3),
        "warm_requests": WARM_REPEATS,
        "warm_plan_reuse": after["qcoral_plan_reuse_total"] - before["qcoral_plan_reuse_total"],
        "warm_samplers_built": after["qcoral_samplers_built_total"] - before["qcoral_samplers_built_total"],
        "warm_paving_decodes_after_first": (
            after["qcoral_paving_decodes_total"] - after_first["qcoral_paving_decodes_total"]
        ),
        "throughput": throughput,
    }


def test_serve_latency_and_throughput():
    payload = run_benchmark()
    # The two hard contracts; latency ratios are gated by check_regression.
    assert payload["bit_identical"], "served reports diverged from in-process runs"
    assert payload["warm_zero_samples"], "a repeated identical request drew samples"
    assert payload["warm_plan_reuse"] == payload["warm_requests"], payload
    assert payload["warm_samplers_built"] == 0, payload
    assert payload["warm_paving_decodes_after_first"] == 0, payload
    assert payload["warm_over_cold_ratio"] < 0.75, payload
    assert all(row["errors"] == 0 for row in payload["throughput"]), payload
    record_bench("serve", payload, summary=SUMMARY)


def main() -> None:
    payload = run_benchmark()
    table = Table(
        title=f"Served vs in-process quantification (budget {BUDGET}, seed {SEED})",
        headers=("seconds/request", "note"),
    )
    table.add_row("in-process cold", f"{payload['in_process_seconds_each']:.4f}", "plain Session")
    table.add_row(
        "served cold", f"{payload['served_seconds_each']:.4f}", f"overhead x{payload['served_overhead_ratio']:.2f}"
    )
    table.add_row(
        "served warm", f"{payload['warm_seconds_each']:.4f}", f"{payload['warm_over_cold_ratio']:.0%} of cold, 0 samples"
    )
    print(table.render())
    print(f"bit identical: {payload['bit_identical']}   warm zero samples: {payload['warm_zero_samples']}")
    print(
        f"warm repeats: {payload['warm_plan_reuse']}/{payload['warm_requests']} plans reused, "
        f"{payload['warm_samplers_built']} samplers built, "
        f"{payload['warm_paving_decodes_after_first']} paving decodes after the first"
    )
    for row in payload["throughput"]:
        print(
            f"{row['clients']} client(s): {row['requests']} requests in {row['seconds']:.2f}s "
            f"= {row['requests_per_second']:.1f} req/s ({row['errors']} errors)"
        )
    record_bench("serve", payload, summary=SUMMARY)
    print(f"\nsummary written to {write_bench_summary(SUMMARY)}")


if __name__ == "__main__":
    main()
