"""Sampling tasks, counter-keyed chunk seeds, and the budget-sharding scheduler.

A :class:`SamplingTask` is the self-contained unit of work of a sampling
round: one hit-or-miss run of a path condition over a (sub-box of a) usage
profile with its own seed and compiled predicate.  Tasks carry everything a
worker needs, so they can execute in the calling thread or on a pool thread
and return nothing but raw counts, which the caller merges positionally.
Every sampling round of the stack goes through :func:`plan_chunks` and
:func:`run_sampling_tasks`.

Two properties make the scheme deterministic:

* :func:`shard_budget` cuts a budget into chunks as a pure function of the
  budget and the chunk size — never of the worker count — so the task list of
  a plan is identical at every worker count;
* each chunk's seed is *keyed*, not spawned (:func:`chunk_seed`): it is a
  function of the master seed, the factor, the stratum's box, and how many
  samples that stratum already holds.  Any chunk is addressable in O(1), the
  samples it sees never depend on the order factors were created in or on
  where the chunk runs, and a continuation from stored counts starts past
  them instead of replaying them.

Parallelism is one knob, a worker count: at 1 the chunks run in the calling
thread; above 1 a :class:`concurrent.futures.ThreadPoolExecutor` (owned by
the :class:`~repro.api.session.Session`) maps each round's chunks, and the
calling thread records the ``exec_*`` metrics in task order.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.intervals.box import Box
from repro.lang import ast
from repro.lang.kernel import CompiledPredicate

if TYPE_CHECKING:  # pragma: no cover - deferred to avoid a core<->exec cycle
    from repro.core.profiles import UsageProfile
    from repro.obs import Observability

#: Default samples per task: large enough that NumPy batch evaluation is
#: amortised, small enough that a typical per-round budget still splits
#: across several workers.
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


def shard_budget(budget: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> List[int]:
    """Split ``budget`` samples into chunks of at most ``chunk_size``.

    The split depends only on the two arguments (all chunks full-sized except
    a smaller trailing remainder), so the same plan is produced regardless of
    the worker count executing it — the cornerstone of reproducibility
    across worker counts.
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

    The generator is instantiated here, on the executing thread, from the
    task's keyed seed.
    """
    from repro.core.montecarlo import hit_or_miss

    return hit_or_miss(
        task.pc,
        task.profile,
        task.samples,
        np.random.default_rng(task.seed),
        box=task.box,
        variables=task.variables,
        predicate=task.predicate,
        batch_size=task.batch_size,
    )


def _timed_chunk(task: SamplingTask) -> Tuple[int, int, float, float, str]:
    """Run one task on a pool thread: counts, start time, duration, thread name."""
    started = time.monotonic()
    hits, samples = execute_sampling_task(task)
    return hits, samples, started, time.monotonic() - started, threading.current_thread().name


def pool_label(pool: Optional[ThreadPoolExecutor]) -> Optional[str]:
    """The report label of a sampling pool (``thread×4``); None without one."""
    return None if pool is None else f"thread×{pool._max_workers}"


def run_sampling_tasks(
    pool: Optional[ThreadPoolExecutor],
    tasks: Sequence[SamplingTask],
    observability: Optional["Observability"] = None,
) -> List[Tuple[int, int]]:
    """Execute ``tasks`` and return their ``(hits, samples)`` counts in task order.

    ``None`` runs the tasks in the calling thread.  A pool maps them over
    its threads; the calling thread then records the ``exec_*`` metrics on
    an enabled ``observability`` hub from the per-chunk timings, in task
    order.  Without a pool there is no dispatch to describe, so no
    ``exec_*`` metrics are recorded.
    """
    if not tasks:
        return []
    if pool is None:
        return [execute_sampling_task(task) for task in tasks]
    dispatched = time.monotonic()
    results = list(pool.map(_timed_chunk, tasks))
    if observability is not None and observability.enabled:
        for hits, samples, started, elapsed, worker in results:
            observability.count("exec_chunks_total")
            observability.count("exec_samples_total", samples)
            observability.count("exec_hits_total", hits)
            observability.count("exec_worker_chunks_total", worker=worker)
            observability.count("exec_worker_busy_seconds_total", elapsed, worker=worker)
            observability.observe("exec_chunk_seconds", elapsed)
            observability.observe("exec_queue_wait_seconds", started - dispatched)
    return [(hits, samples) for hits, samples, _, _, _ in results]
