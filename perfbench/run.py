"""The repository benchmark: four workloads on the public Session/Query path.

Run one workload (the last stdout line is a JSON result)::

    python3 perfbench/run.py --workload paving-heavy --seed 1 --seconds 24 --trace 0

or every workload, printing each end-to-end metric with its unit::

    python3 perfbench/run.py --all [--trace 1]

With ``--trace 0`` the run reports end-to-end metrics with tracing off.  With
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``tracer.py`` and ``README.md``).
Every repetition starts cold: a fresh store, ledger and kernel cache
directory, and an emptied in-process kernel cache.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import queue
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: An answer fails when it is further from its reference than
#: max(TOLERANCE_SIGMAS x combined sigma, ABSOLUTE_FLOOR).  The floor exists
#: because the engine under-reports sigma when PARTCACHE shares factors across
#: many path conditions; answers beyond 4 sigma but inside the floor are
#: counted separately (``answers.beyond_4sigma``), not as failures.  EXACT_SLACK
#: absorbs floating-point rounding of answers ICP resolves exactly (sigma 0).
TOLERANCE_SIGMAS = 4.0
ABSOLUTE_FLOOR = 1e-3
EXACT_SLACK = 1e-9
SETUP_PROBES = 3
#: At least one repetition a run (two when traced: one untraced, one traced);
#: more only while the predicted end of the next one stays inside --seconds,
#: so a run lasts at most --seconds or its minimum repetitions, whichever is
#: longer (a paving-heavy or many-paths repetition takes 9-16 s).
MIN_REPETITIONS = 1
REJECTED_STATUSES = (413, 429, 503)
#: Host-speed calibration.  The benchmark shares a few cores of a host whose
#: speed switches between a fast and a slow state (30-60% apart) for seconds
#: to minutes at a time, and the program's interpreter-bound work slows in
#: step with a fixed pure-Python loop.  So the benchmark times that loop before
#: and after every in-process query and set-up probe, and every
#: SAMPLE_PERIOD_S inside it, and rescales the interval by
#: REFERENCE_CALIBRATION_S / (mean loop time): the end-to-end times are
#: seconds on a host that runs the loop in REFERENCE_CALIBRATION_S.
#: served-mix latency is half thread handoffs and follows that loop only
#: loosely, so its repetitions are calibrated with HANDOFF_ROUND_TRIPS
#: one-byte round trips to a thread over a socket pair instead, and the run is
#: rescaled by REFERENCE_HANDOFF_S / (median handoff time; see run_served).
#: A calibration is the fastest of CALIBRATION_RUNS timings, which drops
#: one-off preemptions.
CALIBRATION_ITERATIONS = 5_000
REFERENCE_CALIBRATION_S = 0.0008
HANDOFF_ROUND_TRIPS = 100
REFERENCE_HANDOFF_S = 0.0012
CALIBRATION_RUNS = 3
SAMPLE_PERIOD_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_pass_s": "s",
    "warm_pass_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Answer:
    ok: bool
    beyond_sigmas: bool


def calibration_loop() -> float:
    started = time.perf_counter()
    total, table = 0, {}
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - started


def handoff_loop() -> float:
    ours, theirs = socket.socketpair()

    def echo() -> None:
        while theirs.recv(1) == b"x":
            theirs.sendall(b"x")

    thread = threading.Thread(target=echo)
    thread.start()
    try:
        started = time.perf_counter()
        for _ in range(HANDOFF_ROUND_TRIPS):
            ours.sendall(b"x")
            ours.recv(1)
        return time.perf_counter() - started
    finally:
        ours.sendall(b"q")
        thread.join()
        ours.close()
        theirs.close()


@dataclass
class Interval:
    #: Wall-clock seconds, without the calibrations taken inside the interval.
    seconds: float = 0.0
    #: The same at the reference host speed.
    scaled: float = 0.0


class HostClock:
    """Times intervals in wall-clock seconds and at the reference host speed.

    A calibration times ``loop``, which takes ``reference`` seconds on the
    reference host.  ``with clock.measure(sample) as interval:`` calibrates
    before and after
    the block.  With ``sample`` it also calibrates every SAMPLE_PERIOD_S
    inside the block, from a SIGALRM handler on the main thread, so a speed
    change in the middle of a long query is seen; the handler's own time is
    left out of ``interval.seconds``.  Sampling needs the block to run on the
    main thread alone, since the handler would otherwise time the other
    threads too.  :meth:`median_factor` instead rescales by the median of
    many calibrations, for intervals that cannot be sampled.
    """

    def __init__(self, loop=calibration_loop, reference: float = REFERENCE_CALIBRATION_S) -> None:
        self.calibrations: List[float] = []
        self._loop = loop
        self.reference = reference
        self._samples: List[float] = []
        self._spent = 0.0

    def _calibrate(self) -> float:
        seconds = min(self._loop() for _ in range(CALIBRATION_RUNS))
        self.calibrations.append(seconds)
        return seconds

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self._samples.append(self._calibrate())
        self._spent += time.perf_counter() - started

    @contextlib.contextmanager
    def measure(self, sample: bool):
        interval = Interval()
        self._samples, self._spent = [self._calibrate()], 0.0
        if sample:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        started = time.perf_counter()
        try:
            yield interval
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            interval.seconds = time.perf_counter() - started - self._spent
            self._samples.append(self._calibrate())
            interval.scaled = interval.seconds * self.reference / statistics.mean(self._samples)

    def median_factor(self) -> float:
        """The factor given by the median of every calibration so far."""
        return self.reference / statistics.median(self.calibrations)


@dataclass
class Repetition:
    #: Wall-clock seconds of each pass.
    pass_s: Dict[str, float] = field(default_factory=lambda: {"cold": 0.0, "warm": 0.0})
    #: Rescaled seconds of each query (served-mix: each batch) of each pass, in order.
    units: Dict[str, List[float]] = field(default_factory=lambda: {"cold": [], "warm": []})
    #: (pass, query index or None for a served request, rescaled seconds).
    latencies: List[Tuple[str, Optional[int], float]] = field(default_factory=list)
    #: Wall-clock latency summed over every query or request.
    latency_s: float = 0.0
    answers: List[Answer] = field(default_factory=list)
    rejected: int = 0
    warm_draws: int = 0

    def scaled(self, phase: str) -> float:
        return sum(self.units[phase])


def check(mean: float, std: float, reference) -> Answer:
    distance = abs(mean - reference.mean)
    allowed = TOLERANCE_SIGMAS * math.hypot(std, reference.std) + EXACT_SLACK
    return Answer(ok=distance <= max(allowed, ABSOLUTE_FLOOR), beyond_sigmas=distance > allowed)


def fresh_kernel_cache(directory: str) -> None:
    """Point the kernel disk cache at an empty directory and empty both tiers."""
    from repro.lang.kernel import clear_kernel_cache

    os.environ["QCORAL_KERNEL_CACHE_DIR"] = os.path.join(directory, "kernels")
    clear_kernel_cache(disk=True)


# --------------------------------------------------------------------------- #
# In-process workloads: Session.analyze / Session.quantify, cold then warm
# --------------------------------------------------------------------------- #
def build_query(session, query):
    from workloads import ALLOCATION, MAX_ROUNDS, SAMPLES_PER_QUERY, SAMPLING_BOUND_SAMPLES, ProgramQuery

    if isinstance(query, ProgramQuery):
        built = session.analyze(query.source, "target", max_depth=query.max_depth).with_budget(SAMPLES_PER_QUERY)
    else:
        built = session.quantify(query.constraint_set, query.profile).with_budget(SAMPLING_BOUND_SAMPLES)
    return built.until(rounds=MAX_ROUNDS).allocation(ALLOCATION).seed(query.seed)


def run_in_process(queries, directory: str, tracer, clock: HostClock) -> Repetition:
    """A cold and a warm pass; a pass's time is the sum of its queries' times.

    Each query is timed on its own.  Untraced, the host is calibrated inside
    it too; traced, only before and after it, outside its root span, so
    calibration time is never attributed to a layer.
    """
    from repro import Session

    repetition = Repetition()
    fresh_kernel_cache(directory)
    root = tracer.span if tracer is not None else (lambda _layer: contextlib.nullcontext())
    with Session(
        store=os.path.join(directory, "store.db"), ledger=os.path.join(directory, "ledger.jsonl")
    ) as session:
        for phase in ("cold", "warm"):
            if tracer is not None:
                tracer.phase = phase
            for number, query in enumerate(queries):
                report = None
                with clock.measure(sample=tracer is None) as interval, root("pass"):
                    try:
                        report = build_query(session, query).run()
                    except Exception:
                        traceback.print_exc()
                repetition.pass_s[phase] += interval.seconds
                repetition.units[phase].append(interval.scaled)
                repetition.latency_s += interval.seconds
                if report is None:
                    repetition.answers.append(Answer(ok=False, beyond_sigmas=True))
                    continue
                repetition.latencies.append((phase, number, interval.scaled))
                repetition.answers.append(check(report.mean, report.std, query.reference))
                if phase == "warm":
                    repetition.warm_draws += report.total_samples
    return repetition


# --------------------------------------------------------------------------- #
# served-mix: an in-thread qcoral serve driven by closed-loop clients
# --------------------------------------------------------------------------- #
def start_server(directory: str):
    from repro.serve.app import serve_in_thread

    return serve_in_thread(
        store=os.path.join(directory, "store.db"), ledger=os.path.join(directory, "ledger.jsonl")
    )


def run_served(requests, directory: str, tracer, clock: HostClock) -> Repetition:
    """A cold and a warm pass, each sent in batches with a calibration between them.

    The clients drain each batch before the next starts, so no request is in
    flight while the host is calibrated (``clock`` times thread handoffs).
    The times stay wall-clock here: :func:`run_workload` rescales the whole
    run by its median calibration, which removes drift between runs but not
    the jitter within one.
    """
    from repro.serve.client import ServeClient, ServeClientError
    from repro.subjects.evolution import EVOLUTION_DOMAINS
    from workloads import SERVED_BATCH, SERVED_CLIENTS

    repetition = Repetition()
    lock = threading.Lock()
    fresh_kernel_cache(directory)
    handle = start_server(directory)
    try:
        client = ServeClient(handle.url)
        for phase in ("cold", "warm"):
            if tracer is not None:
                tracer.phase = phase
            for first in range(0, len(requests), SERVED_BATCH):
                pending: "queue.Queue" = queue.Queue()
                for request in requests[first : first + SERVED_BATCH]:
                    pending.put(request)
                latencies: List[float] = []

                def closed_loop() -> None:
                    while True:
                        try:
                            request = pending.get_nowait()
                        except queue.Empty:
                            return
                        asked = time.perf_counter()
                        try:
                            response = client.quantify(request.constraints, EVOLUTION_DOMAINS, **request.payload())
                        except ServeClientError as error:
                            with lock:
                                repetition.rejected += error.status in REJECTED_STATUSES
                                repetition.answers.append(Answer(ok=False, beyond_sigmas=True))
                            continue
                        latency = time.perf_counter() - asked
                        answer = check(response["mean"], response["std"], request.reference)
                        with lock:
                            latencies.append(latency)
                            repetition.answers.append(answer)
                            if phase == "warm":
                                repetition.warm_draws += response["samples"]

                with clock.measure(sample=False) as interval:
                    clients = [threading.Thread(target=closed_loop) for _ in range(SERVED_CLIENTS)]
                    for thread in clients:
                        thread.start()
                    for thread in clients:
                        thread.join()
                repetition.pass_s[phase] += interval.seconds
                repetition.units[phase].append(interval.seconds)
                repetition.latency_s += sum(latencies)
                repetition.latencies.extend((phase, None, latency) for latency in latencies)
    finally:
        handle.stop()
    return repetition


def rescale(repetition: Repetition, factor: float) -> None:
    """Set a served repetition's rescaled times from its wall-clock ones."""
    repetition.units = {phase: [seconds * factor for seconds in units] for phase, units in repetition.units.items()}
    repetition.latencies = [(phase, number, latency * factor) for phase, number, latency in repetition.latencies]


# --------------------------------------------------------------------------- #
# Set-up, measured in fresh processes
# --------------------------------------------------------------------------- #
def set_up(workload: str, seed: int, directory: str):
    """Imports, input generation, store/ledger open or server boot."""
    import workloads

    from repro import Session

    inputs = workloads.make_inputs(workload, seed)
    os.makedirs(directory, exist_ok=True)
    if workload == "served-mix":
        start_server(directory).stop()
    else:
        store, ledger = os.path.join(directory, "store.db"), os.path.join(directory, "ledger.jsonl")
        with Session(store=store, ledger=ledger) as session:
            session.store
            session.ledger
    return inputs


def probe_setup(args, clock: HostClock) -> float:
    """Seconds of one set-up in a fresh process, at the reference host speed."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe"]
    command += ["--workload", args.workload, "--seed", str(args.seed)]
    with clock.measure(sample=True) as interval:
        # No timeout: with one, the wait polls and rounds the time to 50 ms steps.
        completed = subprocess.run(command, stdout=subprocess.DEVNULL)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {completed.returncode}")
    return interval.scaled


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def latency_percentiles(repetitions: List[Repetition], served: bool) -> Tuple[float, float]:
    """The p50 and p95 latency in rescaled seconds of the cold pass.

    The cold pass carries each workload's designed mix (served-mix: 60%
    repeats, 40% new families); warm latencies form a separate, faster
    cluster, and a percentile over both would sit in the gap between them.
    served-mix: the percentiles over the cold requests of every repetition
    together; with only 10 requests beyond p95 in one repetition, a
    percentile per repetition varies more than the pooled one.  In-process, a
    run repeats the same few queries, so each query's cold latency is first
    its median over the repetitions, and the percentiles are taken over those.
    """
    if served:
        cold = [seconds for rep in repetitions for phase, _, seconds in rep.latencies if phase == "cold"]
        cuts = statistics.quantiles(cold, n=20, method="inclusive")
        return cuts[9], cuts[18]
    by_query: Dict[Optional[int], List[float]] = {}
    for rep in repetitions:
        for phase, number, seconds in rep.latencies:
            if phase == "cold":
                by_query.setdefault(number, []).append(seconds)
    cuts = statistics.quantiles([statistics.median(values) for values in by_query.values()], n=20, method="inclusive")
    return cuts[9], cuts[18]


def pass_time(repetitions: List[Repetition], phase: str) -> float:
    """Rescaled seconds of a pass: each query's (served-mix: each batch's) median
    over the repetitions, summed, so one slow query or batch moves it little."""
    return sum(statistics.median(times) for times in zip(*(rep.units[phase] for rep in repetitions)))


def end_to_end(repetitions: List[Repetition], setup_times: List[float], served: bool) -> Dict[str, float]:
    """Every end-to-end metric, from times rescaled to the reference host speed."""
    p50, p95 = latency_percentiles(repetitions, served)
    cold, warm = pass_time(repetitions, "cold"), pass_time(repetitions, "warm")
    return {
        "setup_s": statistics.median(setup_times),
        "cold_pass_s": cold,
        "warm_pass_s": warm,
        "latency_p50_ms": 1e3 * p50,
        "latency_p95_ms": 1e3 * p95,
        "throughput_rps": statistics.median(len(rep.latencies) for rep in repetitions) / (cold + warm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(
    tracer, traced: List[Repetition], untraced: List[Repetition], kernel: Dict[str, float], clock: HostClock, served: bool
):
    count = len(traced)

    def each(value: float) -> float:
        return value / count

    metrics: Dict[str, Any] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    put("symexec.s", each(tracer.layer_self("symexec")), "s")
    put("symexec.paths", each(tracer.counter("symexec.paths")), "count")
    put("lang.simplify.s", each(tracer.layer_self("lang.simplify")), "s")
    put("lang.simplify.calls", each(tracer.layer_calls("lang.simplify")), "count")
    put("partition.s", each(tracer.layer_self("partition")), "s")
    put("keys.s", each(tracer.layer_self("keys")), "s")
    put("icp.pave.s", each(tracer.layer_self("icp.pave")), "s")
    put("icp.pave.calls", each(tracer.layer_calls("icp.pave")), "count")
    put("icp.boxes_explored", each(tracer.counter("icp.boxes_explored")), "count")
    put("icp.contraction_passes", each(tracer.counter("icp.contraction_passes")), "count")
    put("icp.time_capped", each(tracer.counter("icp.time_capped")), "count")
    factors = tracer.counter("icp.factors")
    put("icp.exact_frac", tracer.counter("icp.exact") / factors if factors else 0.0, "ratio")
    put("kernel.s", each(tracer.layer_self("kernel")), "s")
    put("kernel.lookups", each(kernel["lookups"]), "count")
    put("kernel.hit_frac", kernel["hits"] / kernel["lookups"] if kernel["lookups"] else 0.0, "ratio")
    sampling_s = tracer.layer_self("sampling")
    draws = tracer.counter("sampling.draws")
    put("sampling.s", each(sampling_s), "s")
    put("sampling.draws", each(draws), "count")
    put("sampling.ns_per_draw", 1e9 * sampling_s / draws if draws else 0.0, "ns")
    put("qcoral.self_s", each(tracer.layer_self("qcoral")), "s")
    put("qcoral.rounds", each(tracer.counter("qcoral.rounds")), "count")
    gets = tracer.layer_calls("store.get")
    put("store.get.s", each(tracer.layer_self("store.get")), "s")
    put("store.gets", each(gets), "count")
    put("store.hit_frac", tracer.counter("store.hits") / gets if gets else 0.0, "ratio")
    put("store.merge.s", each(tracer.layer_self("store.merge")), "s")
    put("store.merges", each(tracer.layer_calls("store.merge")), "count")
    put("store.warm_draws", each(sum(rep.warm_draws for rep in traced)), "count")
    put("obs.ledger.s", each(tracer.layer_self("obs.ledger")), "s")
    put("obs.diagnose.s", each(tracer.layer_self("obs.diagnose")), "s")
    put("report.s", each(tracer.layer_self("report")), "s")
    if served:
        total = sum(rep.latency_s for rep in traced)
        unattributed = tracer.layer_self("serve.query")
        serve_self = total - tracer.roots()
    else:
        total = sum(sum(rep.pass_s.values()) for rep in traced)
        unattributed = tracer.layer_self("pass")
        serve_self = 0.0
    put("serve.self_s", each(serve_self), "s")
    put("serve.rejected", each(sum(rep.rejected for rep in traced)), "count")
    put("attributed_frac", 1.0 - unattributed / total if total else 0.0, "ratio")
    put("unattributed_s", each(unattributed), "s")
    put("answers.beyond_4sigma", each(sum(a.beyond_sigmas for rep in traced for a in rep.answers)), "count")
    overhead = pass_time(traced, "cold") - pass_time(untraced, "cold")
    put("trace.overhead_s", overhead, "s")
    put("host.calibration_ms", 1e3 * statistics.median(clock.calibrations), "ms")
    return metrics


def layer_table(tracer, traced: List[Repetition], served: bool) -> str:
    """Human-readable breakdown of self time per repetition, by pass when in-process."""
    from tracer import LAYERS, ROOT as PASS_ROOT

    if served:
        total = sum(rep.latency_s for rep in traced)
        views = [(None, "summed request latency, both passes", total)]
    else:
        views = [(phase, f"{phase} pass", sum(rep.pass_s[phase] for rep in traced)) for phase in ("cold", "warm")]
    lines = []
    for phase, label, total in views:
        lines.append(f"-- {label}: {total / len(traced):.4f} s per repetition")
        rows = [(layer, tracer.layer_self(layer, phase)) for layer in LAYERS]
        if served:
            rows.append(("serve (self)", total - tracer.roots()))
        else:
            rows.append(("(unattributed)", tracer.layer_self(PASS_ROOT, phase)))
        for name, seconds in sorted(rows, key=lambda row: -row[1]):
            if seconds > 0:
                lines.append(f"   {name:<16} {seconds / len(traced):9.4f} s  {100.0 * seconds / total:5.1f}%")
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Running a workload
# --------------------------------------------------------------------------- #
def run_workload(args) -> Dict[str, Any]:
    served = args.workload == "served-mix"
    setup_clock = HostClock()
    setup_times = [] if args.trace else [probe_setup(args, setup_clock) for _ in range(SETUP_PROBES)]
    clock = HostClock(handoff_loop, REFERENCE_HANDOFF_S) if served else setup_clock
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    os.environ["QCORAL_KERNEL_CACHE_DIR"] = os.path.join(run_dir, "kernels")
    try:
        inputs = set_up(args.workload, args.seed, os.path.join(run_dir, "setup"))
        runner = run_served if served else run_in_process
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        from repro.lang.kernel import kernel_cache_stats

        traced: List[Repetition] = []
        untraced: List[Repetition] = []
        kernel = {"lookups": 0.0, "hits": 0.0}
        started = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - started
            if index >= MIN_REPETITIONS + args.trace and elapsed + elapsed / index > args.seconds:
                break
            directory = os.path.join(run_dir, f"rep{index}")
            os.makedirs(directory)
            trace_this = tracer is not None and index % 2 == 1
            if trace_this:
                tracer.install()
            try:
                repetition = runner(inputs, directory, tracer if trace_this else None, clock)
            finally:
                if trace_this:
                    tracer.uninstall()
            rescaled = "" if served else (
                f"; rescaled cold {repetition.scaled('cold'):.4f} s, warm {repetition.scaled('warm'):.4f} s"
            )
            print(
                f"repetition {index}{' (traced)' if trace_this else ''}: wall clock cold "
                f"{repetition.pass_s['cold']:.4f} s, warm {repetition.pass_s['warm']:.4f} s{rescaled}",
                file=sys.stderr,
            )
            if trace_this:
                stats = kernel_cache_stats()
                kernel["lookups"] += stats.lookups
                kernel["hits"] += stats.memory_hits + stats.disk_hits
                traced.append(repetition)
            else:
                untraced.append(repetition)
            shutil.rmtree(directory, ignore_errors=True)
            index += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    repetitions = traced + untraced
    if served:
        factor = clock.median_factor()
        for repetition in repetitions:
            rescale(repetition, factor)
    answers = [answer for rep in repetitions for answer in rep.answers]
    failed = sum(not answer.ok for answer in answers)
    if tracer is not None:
        metrics = per_layer(tracer, traced, untraced, kernel, clock, served)
        print(layer_table(tracer, traced, served), file=sys.stderr)
    else:
        values = end_to_end(repetitions, setup_times, served)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    print(
        f"{args.workload}: {len(repetitions)} repetitions, {len(answers)} answers, "
        f"failed_frac {failed / len(answers):.4f}, median calibration "
        f"{1e3 * statistics.median(clock.calibrations):.3f} ms (reference {1e3 * clock.reference:g} ms)",
        file=sys.stderr,
    )
    return {"correct": failed == 0, "attempted": len(answers), "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{workload}: FAILED (exit {completed.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}  failed_frac={result['failed'] / result['attempted']:.4f} ({result['failed']}/{result['attempted']})")
        for name, metric in result["metrics"].items():
            print(f"  {name:<24} {metric['value']:>14.6g} {metric['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="qCORAL repository benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print a metric table")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    if args.setup_probe:
        directory = tempfile.mkdtemp(prefix="probe-", dir=WORK)
        os.environ["QCORAL_KERNEL_CACHE_DIR"] = os.path.join(directory, "kernels")
        try:
            set_up(args.workload, args.seed, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return 0
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
