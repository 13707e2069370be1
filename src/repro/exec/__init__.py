"""Parallel failure-point engine.

The detection pipeline's cost is dominated by the O(F · P)
post-failure work (paper Section 5.4, Figure 13): one post-failure
execution and one post-failure replay per failure point, all mutually
independent.  This package fans both phases out across a pluggable
worker pool:

* :class:`~repro.exec.base.SerialExecutor` — in-process, the default
  and the reference schedule (``jobs=1``, audit, ``fail_fast``, or no
  fork start method);
* :class:`~repro.exec.pool.ProcessExecutor` — a cold fork-based
  process pool (fresh per phase); phase contexts travel to children by
  fork inheritance, task keys and results cross via pickle;
* :class:`~repro.exec.pool.WarmProcessExecutor` — the default process
  executor: workers spawned once per run and kept alive across phases,
  snapshot stores published through ``multiprocessing.shared_memory``
  (:mod:`repro.exec.shm`) so workers attach zero-copy, and failure
  points dispatched in contiguous batches
  (:func:`~repro.exec.base.plan_batches`) so each worker's
  ``repro.dedup.ImageMemo`` cursor amortizes across the batch.

Task keys are issued in canonical ``(fid, variant)`` order and results
are consumed in submission order, so reports and metrics are identical
regardless of scheduling — the executors differ only in wall-clock.
"""

from repro.exec.base import (
    SerialExecutor,
    TaskOutcome,
    plan_batches,
    resolve_executor,
    submitter,
)
from repro.exec.pool import ProcessExecutor, WarmProcessExecutor

__all__ = [
    "ProcessExecutor",
    "SerialExecutor",
    "TaskOutcome",
    "WarmProcessExecutor",
    "plan_batches",
    "resolve_executor",
    "submitter",
]
