"""Quickstart: quantify the solution space of a constraint set with qCORAL.

This walks through the public Session API, from lowest to highest level:

1. quantify a constraint set written directly in the constraint language,
   through the fluent query builder;
2. compare the qCORAL feature configurations evaluated in the paper (Table 4);
3. run the full pipeline of Figure 1 on a small program: symbolic execution
   followed by probabilistic analysis of a target event;
4. stream an adaptive run round by round (with early stop in reach), with
   live engine metrics from a zero-perturbation Observability hub;
5. fan the sampling out over a pool of worker threads and check that the
   estimate is bit-identical at every worker count for one master seed;
6. persist per-factor estimates in a store and re-run warm: the second run
   reuses every stored factor and draws zero samples;
7. record runs in a ledger, read back the health diagnostics every run
   finishes with, and measure the estimate drift between two runs in sigma
   units (what ``qcoral obs diff`` automates).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import os
import tempfile

from repro import Observability, QCoralConfig, Session

BOUNDS = {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}


def quantify_a_constraint_set() -> None:
    """Estimate P(x <= -y and y <= x) for x, y uniform over [-1, 1] (exact: 0.25)."""
    print("=" * 72)
    print("1. Quantifying a constraint set (the fluent query builder)")
    print("=" * 72)

    with Session() as session:
        query = session.quantify("x <= 0 - y && y <= x", BOUNDS)
        report = query.with_budget(30_000).seed(1).run()
    lower, upper = report.estimate.chebyshev_interval(0.95)
    print(f"estimate:            {report.mean:.6f}   (exact value: 0.25)")
    print(f"standard deviation:  {report.std:.3e}")
    print(f"95% Chebyshev bound: [{lower:.4f}, {upper:.4f}]")
    print(f"analysis time:       {report.analysis_time:.2f}s")
    print()


def compare_feature_configurations() -> None:
    """The ablation of Table 4 on a non-linear constraint with shared factors."""
    print("=" * 72)
    print("2. Feature configurations (Monte Carlo vs STRAT vs STRAT+PARTCACHE)")
    print("=" * 72)

    constraints = "x * x + y * y <= 4 && z <= 2 || x * x + y * y <= 4 && z > 2 && z <= 5"
    profile = {"x": (-3.0, 3.0), "y": (-3.0, 3.0), "z": (0.0, 10.0)}

    with Session() as session:
        for config in (
            QCoralConfig(samples_per_query=10_000, stratified=False, partition_and_cache=False, seed=7),
            QCoralConfig(samples_per_query=10_000, partition_and_cache=False, seed=7),
            QCoralConfig(samples_per_query=10_000, seed=7),
        ):
            report = session.quantify(constraints, profile, config=config).run()
            print(
                f"{report.feature_label:28s} estimate={report.mean:.6f} "
                f"std={report.std:.3e} samples={report.total_samples:6d} "
                f"time={report.analysis_time:.2f}s"
            )
    print()


def analyze_a_program() -> None:
    """Figure 1 end to end: the paper's autopilot safety monitor (Section 4.4)."""
    print("=" * 72)
    print("3. Full pipeline on the safety-monitor program")
    print("=" * 72)

    from repro.subjects import programs

    with Session() as session:
        report = (
            session.analyze(programs.SAFETY_MONITOR, programs.SAFETY_MONITOR_EVENT)
            .with_budget(30_000)
            .seed(3)
            .run()
        )
    print(f"paths reaching the event: {report.paths}")
    print(f"P(callSupervisor) = {report.mean:.6f}   (paper's exact value: 0.737848)")
    print(f"standard deviation: {report.std:.3e}")
    print(report.confidence_note)
    print()


def stream_an_adaptive_run() -> None:
    """Per-round streaming: watch convergence, stop early whenever you like.

    An Observability hub attached to the session streams live engine metrics
    next to the round stream — zero-perturbation, so the estimates below are
    bit-identical to a run without the hub.
    """
    print("=" * 72)
    print("4. Streaming an adaptive run (target sigma 5e-4) with live metrics")
    print("=" * 72)

    obs = Observability()
    with Session(observability=obs) as session:
        query = session.quantify("x * x + y * y <= 1", BOUNDS).with_budget(200_000).seed(5)
        query = query.until(std=5e-4, rounds=8)
        stream = query.stream()
        for round_report in stream:
            metrics = obs.snapshot()
            print(
                f"round {round_report.round_index}: +{round_report.allocated:6d} samples "
                f"-> estimate={round_report.mean:.6f} sigma={round_report.std:.2e}  "
                f"[draws={metrics.counter_total('sampler_draws_total'):.0f} "
                f"hits={metrics.counter_total('sampler_hits_total'):.0f}]"
            )
        report = stream.report
    status = "met" if report.met_target else "budget exhausted"
    print(f"final: {report.mean:.6f} after {report.total_samples} samples ({status})")
    print(f"the same snapshot rides on the report: {report.metrics.counter_total('qcoral_rounds_total'):.0f} rounds")
    print()


def run_in_parallel() -> None:
    """The workers knob: same seed, same estimate, any worker count."""
    print("=" * 72)
    print("5. Parallel execution (1, 2 and 4 sampling workers)")
    print("=" * 72)

    results = {}
    for workers in (1, 2, 4):
        with Session(workers=workers) as session:
            query = session.quantify("x * x + y * y <= 1", BOUNDS)
            report = query.with_budget(200_000).seed(11).run()
        label = f"workers={workers}"
        results[label] = report
        print(f"{label:12s} estimate={report.mean:.6f} std={report.std:.3e} " f"time={report.analysis_time:.2f}s")
    estimates = {(r.mean, r.variance) for r in results.values()}
    print(f"bit-identical across worker counts: {len(estimates) == 1}")
    print()


def reuse_across_runs() -> None:
    """The persistent store: a cold run pays, the warm re-run is free."""
    print("=" * 72)
    print("6. Persistent estimate store (cold run, then warm re-run)")
    print("=" * 72)

    from repro.analysis.results import reuse_summary
    from repro.subjects import programs

    handle, store_path = tempfile.mkstemp(suffix=".db")
    os.close(handle)
    os.remove(store_path)
    try:
        for label in ("cold", "warm"):
            with Session(store=store_path) as session:
                report = (
                    session.analyze(programs.SAFETY_MONITOR, programs.SAFETY_MONITOR_EVENT)
                    .with_budget(30_000)
                    .seed(1)
                    .run()
                )
            print(
                f"{label:5s} P = {report.mean:.6f}  samples drawn = "
                f"{report.total_samples:6d}  ({reuse_summary(report.cache_statistics)})"
            )
        print("warm re-run reused every stored factor: no sampling at all")
    finally:
        if os.path.exists(store_path):
            os.remove(store_path)
    print()


def diagnostics_and_the_ledger() -> None:
    """Run health + the run ledger: provenance and drift across runs."""
    print("=" * 72)
    print("7. Run-health diagnostics and the run ledger")
    print("=" * 72)

    from repro.obs.ledger import estimate_drift_sigmas, open_ledger

    handle, ledger_path = tempfile.mkstemp(suffix=".jsonl")
    os.close(handle)
    try:
        # Two runs of the same constraint family, recorded in the session's
        # ledger (every query of a session appends to it).
        with Session(ledger=ledger_path) as session:
            for seed in (21, 22):
                report = session.quantify("x * x + y * y <= 1", BOUNDS).with_budget(20_000).seed(seed).run()
        # Every report carries structured health diagnostics (schema v3).
        for diagnostic in report.diagnostics:
            print(f"[{diagnostic.severity}] {diagnostic.code}: {diagnostic.message}")
        with open_ledger(ledger_path) as ledger:
            first, second = ledger.entries()
        print(f"ledger family {first.family}: seeds {first.seed} and {second.seed}")
        drift = estimate_drift_sigmas(first, second)
        print(f"estimate drift between the runs: {drift:.2f} sigma (3+ would flag `qcoral obs diff`)")
    finally:
        if os.path.exists(ledger_path):
            os.remove(ledger_path)
    print()


def incremental_requantification() -> None:
    """Diff two program versions, reuse the unchanged factors' estimates."""
    print("=" * 72)
    print("8. Incremental re-quantification (the engine behind `qcoral ci`)")
    print("=" * 72)

    from repro.subjects import evolution

    profile = evolution.evolution_profile()
    handle, store_path = tempfile.mkstemp(suffix=".db")
    os.close(handle)
    os.remove(store_path)
    try:
        with Session(store=store_path) as session:
            cold = session.quantify(evolution.EVOLUTION_V1, profile).with_budget(5_000).seed(3).run()
            print(f"v1 cold:        P = {cold.mean:.6f}  samples = {cold.total_samples}")
            # The v1 -> v2 edit touches one of the five factors; the diff
            # classifies the rest unchanged and the plan reuses them outright.
            query = session.quantify(evolution.EVOLUTION_V2, profile).with_budget(5_000).seed(3)
            query = query.against_baseline(evolution.EVOLUTION_V1)
            print(f"reuse plan:     {query.reuse_plan().summary()}")
            incremental = query.run()
            print(f"v2 incremental: P = {incremental.mean:.6f}  samples = {incremental.total_samples}")
        ratio = incremental.total_samples / cold.total_samples
        print(f"the incremental run drew {ratio:.0%} of the cold run's samples")
        print(f"(exact v2 probability: {evolution.EXACT_V2:.6f})")
    finally:
        if os.path.exists(store_path):
            os.remove(store_path)
    print()


def quantification_as_a_service() -> None:
    """Serve the engine over HTTP and reuse the store across clients."""
    print("=" * 72)
    print("9. Quantification as a service (the engine behind `qcoral serve`)")
    print("=" * 72)

    from repro.serve import ServeClient, serve_in_thread

    # One shared session answers every client; `qcoral serve` runs the same
    # server as a process with SIGTERM drain.  Port 0 = ephemeral.
    with serve_in_thread() as handle:
        client = ServeClient(handle.url)
        print(f"serving on {handle.url}  (health: {client.healthz()['status']})")
        cold = client.quantify("x * x + y * y <= 1", {"x": "-1:1", "y": "-1:1"}, seed=7, budget=20_000)
        print(f"served cold:  P = {cold['mean']:.6f}  samples = {cold['samples']}")
        # The same request again is answered from the shared store: the
        # paper's reuse economics mean the repeat draws zero samples.
        warm = client.quantify("x * x + y * y <= 1", {"x": "-1:1", "y": "-1:1"}, seed=7, budget=20_000)
        print(f"served warm:  P = {warm['mean']:.6f}  samples = {warm['samples']}")
        with client.stream(
            "x * x + y * y <= 1", {"x": "-1:1", "y": "-1:1"}, seed=9, budget=40_000, max_rounds=4, target_std=1e-6
        ) as rounds:
            for event in rounds:
                if event.event == "round":
                    data = event.data
                    print(f"SSE round {data['round']}: mean = {data['mean']:.6f} after {data['cumulative']} samples")
                # Closing the iterator early would cancel sampling server-side.
        hits = [line for line in client.metrics().splitlines() if line.startswith("store_hits_total")]
        if hits:
            print(f"hub metric:   {hits[0]}")
    print()


def main() -> None:
    quantify_a_constraint_set()
    compare_feature_configurations()
    analyze_a_program()
    stream_an_adaptive_run()
    run_in_parallel()
    reuse_across_runs()
    diagnostics_and_the_ledger()
    incremental_requantification()
    quantification_as_a_service()


if __name__ == "__main__":
    main()
