"""Execution subsystem: executors, sampling tasks, keyed chunk seeds.

The estimation stack is embarrassingly parallel — hit-or-miss chunks over
disjoint boxes are independent and their counts merge exactly — so this
package supplies the three pieces needed to exploit that:

* :class:`~repro.exec.executor.Executor` backends (serial, thread, process)
  with an ordered ``map`` contract;
* :class:`~repro.exec.scheduler.SamplingTask` + :func:`~repro.exec.scheduler.plan_chunks`,
  which cut sampling budgets into worker-count-independent task plans whose
  seeds are keyed by (master seed, factor, stratum, sample offset)
  (:func:`~repro.exec.scheduler.chunk_seed`), so the same master seed
  reproduces bit-identical estimates on every backend and worker count.
"""

from repro.exec.executor import (
    EXECUTOR_KINDS,
    EXECUTOR_REGISTRY,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    default_worker_count,
    make_executor,
    resolve_executor,
)
from repro.exec.scheduler import (
    DEFAULT_CHUNK_SIZE,
    SamplingTask,
    chunk_seed,
    execute_sampling_task,
    plan_chunks,
    run_sampling_tasks,
    shard_budget,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "EXECUTOR_KINDS",
    "EXECUTOR_REGISTRY",
    "default_worker_count",
    "make_executor",
    "resolve_executor",
    "SamplingTask",
    "DEFAULT_CHUNK_SIZE",
    "chunk_seed",
    "execute_sampling_task",
    "plan_chunks",
    "run_sampling_tasks",
    "shard_budget",
]
