"""Execution subsystem: sampling tasks, keyed chunk seeds, the chunk runner.

The estimation stack is embarrassingly parallel — hit-or-miss chunks over
disjoint boxes are independent and their counts merge exactly — so this
package supplies the pieces needed to exploit that:

* :class:`~repro.exec.scheduler.SamplingTask` + :func:`~repro.exec.scheduler.plan_chunks`,
  which cut sampling budgets into worker-count-independent task plans whose
  seeds are keyed by (master seed, factor, stratum, sample offset)
  (:func:`~repro.exec.scheduler.chunk_seed`);
* :func:`~repro.exec.scheduler.run_sampling_tasks`, which runs a plan in the
  calling thread or maps it over a stdlib
  :class:`concurrent.futures.ThreadPoolExecutor` and returns the counts in
  task order, so the same master seed reproduces bit-identical estimates at
  every worker count.
"""

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
    "SamplingTask",
    "DEFAULT_CHUNK_SIZE",
    "chunk_seed",
    "execute_sampling_task",
    "plan_chunks",
    "run_sampling_tasks",
    "shard_budget",
]
