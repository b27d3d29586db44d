"""Sampling tasks, counter-keyed chunk seeds, and the budget-sharding scheduler.

A :class:`SamplingTask` is the self-contained unit of work the executors ship
around: one hit-or-miss run of a path condition over a (sub-box of a) usage
profile with its own seed.  Tasks carry everything a worker needs — including
the seed — so they can execute in the calling thread, another thread or
another process and return nothing but raw counts, which the caller merges
positionally.  Every sampling round of the stack goes through
:func:`plan_chunks` and :func:`run_sampling_tasks`.

Two properties make the scheme deterministic:

* :func:`shard_budget` cuts a budget into chunks as a pure function of the
  budget and the chunk size — never of the worker count — so the task list of
  a plan is identical on every backend;
* each chunk's seed is *keyed*, not spawned (:func:`chunk_seed`): it is a
  function of the master seed, the factor, the stratum's box, and how many
  samples that stratum already holds.  Any chunk is addressable in O(1), the
  samples it sees never depend on the order factors were created in or on
  where the chunk runs, and a continuation from stored counts starts past
  them instead of replaying them.

A task carries the planner's compiled predicate, which the calling thread
and thread workers use as is.  Compiled kernels do not pickle, so the
predicate is dropped when a task crosses to a worker process, which compiles
its own once through the fused-kernel cache
(:func:`repro.lang.kernel.get_kernel`).
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.exec.executor import Executor
from repro.intervals.box import Box
from repro.lang import ast
from repro.lang.compiler import CompiledPredicate
from repro.lang.kernel import get_kernel
from repro.obs.metrics import DeltaBuilder, MetricsDelta

if TYPE_CHECKING:  # pragma: no cover - deferred to avoid a core<->exec cycle
    from repro.core.profiles import UsageProfile
    from repro.obs import Observability

#: Default samples per task: large enough that NumPy batch evaluation (and,
#: for the process backend, pickling) is amortised, small enough that a
#: typical per-round budget still splits across several workers.
DEFAULT_CHUNK_SIZE = 25_000


def digest_word(text: str) -> int:
    """A 64-bit digest of ``text`` (one word of a chunk-seed key)."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


def _halves(word: int) -> Tuple[int, int]:
    return word & 0xFFFFFFFF, word >> 32


def factor_seed(entropy: int, key: str) -> np.random.SeedSequence:
    """The seed of one factor: the master entropy keyed by the factor's digest."""
    return np.random.SeedSequence(entropy, spawn_key=_halves(digest_word(key)))


def chunk_seed(seed: np.random.SeedSequence, stratum: int, offset: int) -> np.random.SeedSequence:
    """The seed of the chunk that starts ``offset`` samples into ``stratum``.

    ``seed`` is the factor's seed (:func:`factor_seed`, or any
    ``SeedSequence``); its spawn key is extended by the 64-bit stratum word
    and the 64-bit offset.  Every word enters as two 32-bit halves, because
    ``SeedSequence`` flattens its key into 32-bit words and a variable-width
    word would let two different keys collide.
    """
    return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + _halves(stratum) + _halves(offset))


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
    predicate: Optional[CompiledPredicate] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ConfigurationError("a sampling task needs a positive sample count")

    def __getstate__(self) -> dict:
        # Compiled kernels do not pickle; a process worker compiles its own.
        state = dict(self.__dict__)
        state.pop("predicate", None)
        return state


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


def plan_chunks(
    pc: ast.PathCondition,
    profile: "UsageProfile",
    variables: Tuple[str, ...],
    share: int,
    seed: np.random.SeedSequence,
    stratum: int,
    offset: int,
    chunk_size: Optional[int] = None,
    box: Optional[Box] = None,
    predicate: Optional[CompiledPredicate] = None,
) -> List[SamplingTask]:
    """Cut ``share`` samples of one stratum into keyed tasks.

    The stratum already holds ``offset`` samples; chunk ``i`` is keyed by the
    offset it starts at, so the plan of a share depends only on the
    stratum's history, never on which other strata or factors are planned
    alongside it.  ``predicate`` is ``pc``'s compiled kernel, when the caller
    holds it.
    """
    tasks = []
    for samples in shard_budget(share, chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE):
        tasks.append(
            SamplingTask(
                pc=pc,
                profile=profile,
                samples=samples,
                seed=chunk_seed(seed, stratum, offset),
                box=box,
                variables=variables,
                predicate=predicate,
            )
        )
        offset += samples
    return tasks


def execute_sampling_task(task: SamplingTask) -> Tuple[int, int]:
    """Run one task and return its raw ``(hits, samples)`` counts.

    Module-level (hence picklable by reference) so the process backend can
    dispatch it.  The generator is instantiated here, worker-side, from the
    task's keyed seed.
    """
    from repro.core.montecarlo import hit_or_miss

    result = hit_or_miss(
        task.pc,
        task.profile,
        task.samples,
        np.random.default_rng(task.seed),
        box=task.box,
        variables=task.variables,
        predicate=task.predicate if task.predicate is not None else get_kernel(task.pc),
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
    """Execute ``tasks`` on ``executor``, in task order.

    ``None`` runs the tasks in the calling thread, exactly as the
    :class:`~repro.exec.executor.SerialExecutor` does.  When an executor and
    an enabled ``observability`` hub are given, tasks run through the
    observed wrapper; the worker-side ``exec_*`` metric deltas it returns are
    merged into the hub here, in task order, and the plain
    ``(hits, samples)`` list is returned either way — callers never see the
    deltas.  Without an executor there is no dispatch to describe, so no
    ``exec_*`` metrics are recorded.
    """
    if not tasks:
        return []
    if executor is None:
        return [execute_sampling_task(task) for task in tasks]
    if observability is None or not observability.enabled:
        return executor.map(execute_sampling_task, tasks)
    observed = functools.partial(execute_sampling_task_observed, dispatched=time.monotonic())
    results = executor.map(observed, tasks)
    counts: List[Tuple[int, int]] = []
    for hits, samples, delta in results:
        observability.merge_delta(delta)
        counts.append((hits, samples))
    return counts
