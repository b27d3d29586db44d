"""Sampling tasks and the budget-sharding scheduler.

A :class:`SamplingTask` is the self-contained unit of work the executors ship
around: one hit-or-miss run of a path condition over a (sub-box of a) usage
profile with its own spawned seed.  Tasks carry everything a worker needs —
including the seed — so they can execute in another thread or another process
and return nothing but raw counts, which the caller merges positionally.

Two properties make the scheme deterministic:

* :func:`shard_budget` cuts a budget into chunks as a pure function of the
  budget and the chunk size — never of the worker count — so the task list of
  a plan is identical on every backend;
* each task draws from its own :class:`numpy.random.SeedSequence`, so the
  samples it sees are a function of the plan position only.

Workers compile each distinct predicate once through the fused-kernel cache
(:func:`repro.lang.kernel.get_kernel`) — compiled kernels do not pickle, so
they cannot travel with the task; each worker process compiles its own.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.exec.executor import Executor, SerialExecutor
from repro.intervals.box import Box
from repro.lang import ast
from repro.lang.kernel import get_kernel
from repro.obs.metrics import DeltaBuilder, MetricsDelta

if TYPE_CHECKING:  # pragma: no cover - deferred to avoid a core<->exec cycle
    from repro.core.profiles import UsageProfile
    from repro.obs import Observability

#: Default samples per task: large enough that NumPy batch evaluation (and,
#: for the process backend, pickling) is amortised, small enough that a
#: typical per-round budget still splits across several workers.
DEFAULT_CHUNK_SIZE = 25_000


@dataclass(frozen=True)
class SamplingTask:
    """One shard of a sampling plan: a seeded hit-or-miss run."""

    pc: ast.PathCondition
    profile: UsageProfile
    samples: int
    seed: np.random.SeedSequence
    box: Optional[Box] = None
    variables: Optional[Tuple[str, ...]] = None
    batch_size: int = 100_000

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ConfigurationError("a sampling task needs a positive sample count")


def shard_budget(budget: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> List[int]:
    """Split ``budget`` samples into chunks of at most ``chunk_size``.

    The split depends only on the two arguments (all chunks full-sized except
    a smaller trailing remainder), so the same plan is produced regardless of
    the backend or worker count executing it — the cornerstone of
    reproducibility across executors.
    """
    if budget < 0:
        raise ConfigurationError("budget may not be negative")
    if chunk_size <= 0:
        raise ConfigurationError("chunk size must be positive")
    full, remainder = divmod(budget, chunk_size)
    chunks = [chunk_size] * full
    if remainder:
        chunks.append(remainder)
    return chunks


def execute_sampling_task(task: SamplingTask) -> Tuple[int, int]:
    """Run one task and return its raw ``(hits, samples)`` counts.

    Module-level (hence picklable by reference) so the process backend can
    dispatch it.  The generator is instantiated here, worker-side, from the
    task's spawned seed.
    """
    from repro.core.montecarlo import hit_or_miss

    result = hit_or_miss(
        task.pc,
        task.profile,
        task.samples,
        np.random.default_rng(task.seed),
        box=task.box,
        variables=task.variables,
        predicate=get_kernel(task.pc),
        batch_size=task.batch_size,
    )
    return result.hits, result.samples


def _worker_label() -> str:
    """Stable-ish identity of the executing worker: ``pid:threadname``."""
    return f"{os.getpid()}:{threading.current_thread().name}"


def execute_sampling_task_observed(task: SamplingTask, dispatched: float) -> Tuple[int, int, MetricsDelta]:
    """Observed variant of :func:`execute_sampling_task`.

    Returns the same raw counts plus a :class:`MetricsDelta` of worker-side
    counters and latencies — the delta rides back on the result exactly like
    the sample counts, so the process backend needs no side channel and the
    scheduler can merge deltas in deterministic task order.  ``dispatched`` is
    the driver's ``time.monotonic()`` at submission; queue wait is clamped at
    zero because process workers may have a different monotonic epoch.
    """
    started = time.monotonic()
    hits, samples = execute_sampling_task(task)
    elapsed = time.monotonic() - started
    worker = _worker_label()
    delta = DeltaBuilder()
    delta.count("exec_chunks_total")
    delta.count("exec_samples_total", samples)
    delta.count("exec_hits_total", hits)
    delta.count("exec_worker_chunks_total", worker=worker)
    delta.count("exec_worker_busy_seconds_total", elapsed, worker=worker)
    delta.observe("exec_chunk_seconds", elapsed)
    delta.observe("exec_queue_wait_seconds", max(0.0, started - dispatched))
    return hits, samples, delta.build()


def run_sampling_tasks(
    executor: Optional[Executor],
    tasks: Sequence[SamplingTask],
    observability: Optional["Observability"] = None,
) -> List[Tuple[int, int]]:
    """Execute ``tasks`` on ``executor`` (serial when None), in task order.

    When an enabled ``observability`` hub is given, tasks run through the
    observed wrapper; the worker-side metric deltas it returns are merged into
    the hub here, in task order, and the plain ``(hits, samples)`` list is
    returned either way — callers never see the deltas.
    """
    if not tasks:
        return []
    backend = executor if executor is not None else SerialExecutor()
    if observability is None or not observability.enabled:
        return backend.map(execute_sampling_task, tasks)
    observed = functools.partial(execute_sampling_task_observed, dispatched=time.monotonic())
    results = backend.map(observed, tasks)
    counts: List[Tuple[int, int]] = []
    for hits, samples, delta in results:
        observability.merge_delta(delta)
        counts.append((hits, samples))
    return counts
