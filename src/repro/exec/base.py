"""Executor protocol, the serial reference executor, and resolution.

An executor runs one *phase*: a batch of independent tasks, each
``func(context, key)``, sharing one read-only context.  ``run_phase``
returns one :class:`TaskOutcome` per key, **in key order** — that
ordering is what makes the pipeline's reports byte-identical across
executors.
"""

from __future__ import annotations

EXECUTOR_KINDS = ("auto", "serial", "process")


class TaskOutcome:
    """One task's result plus scheduling telemetry.

    A task that failed carries its exception in ``error`` (with
    ``value`` None) instead of raising through ``run_phase`` — fault
    policy belongs to the :class:`~repro.resilience.PhaseSupervisor`,
    not the executors, and one crashed task must not discard its
    siblings' completed work.
    """

    __slots__ = ("value", "queue_wait", "worker", "error")

    def __init__(self, value, queue_wait=0.0, worker="main", error=None):
        self.value = value
        #: Seconds between submission and a worker picking the task up.
        self.queue_wait = queue_wait
        #: Label of the worker that ran the task (pid).
        self.worker = worker
        #: The exception the task raised, or None on success.
        self.error = error


def plan_batches(keys, batch_size):
    """Group task keys into contiguous dispatch batches.

    Keys arrive in canonical order — fid-ascending, each failure
    point's base run before its crash-state variants — and a batch
    must preserve that so a worker's replay-prefix memo cursor
    (``repro.dedup.ImageMemo``) only ever advances forward within one
    dispatch.  A batch therefore closes at ``batch_size`` keys or
    wherever the fid sequence steps backwards (a retry wave restarting
    from an earlier point), whichever comes first.
    Non-tuple keys (toy phases in tests) batch purely by size.
    """
    batches = []
    size = max(1, int(batch_size or 1))
    current = []
    last_fid = None
    for key in keys:
        fid = key[0] if isinstance(key, tuple) and key else None
        backwards = (
            fid is not None and last_fid is not None and fid < last_fid
        )
        if current and (len(current) >= size or backwards):
            batches.append(current)
            current = []
        current.append(key)
        if fid is not None:
            last_fid = fid
    if current:
        batches.append(current)
    return batches


class SerialExecutor:
    """Runs every task inline, in order — the reference schedule."""

    kind = "serial"
    jobs = 1

    def run_phase(self, context, func, keys):
        outcomes = []
        for key in keys:
            try:
                outcomes.append(TaskOutcome(func(context, key)))
            except Exception as exc:
                outcomes.append(TaskOutcome(None, error=exc))
        return outcomes

    def close(self):
        pass


def submitter(executor, context, func, telemetry):
    """The :class:`~repro.resilience.PhaseSupervisor` submit callable
    of one phase: run a wave of keys through ``executor`` and fold each
    completed task's telemetry into the run's.

    Every task ships its own span tree back in its outcome; it is
    grafted under the coordinator's open span — tagged with the worker
    that ran it on a pool, untagged on the serial executor, so a serial
    profile looks exactly like an in-process run.  A task-local metrics
    registry (``value.metrics``, when the task records one) is merged
    for completed tasks only, so a retried task merges once.
    """
    pooled = executor.kind != "serial"

    def submit(wave):
        outcomes = executor.run_phase(context, func, wave)
        wait_timer = (
            telemetry.metrics.timer("exec.queue_wait_seconds")
            if pooled else None
        )
        for outcome in outcomes:
            value = outcome.value
            if value is None:
                continue
            if pooled:
                telemetry.spans.graft(value.spans, worker=outcome.worker)
                wait_timer.observe(outcome.queue_wait)
            else:
                telemetry.spans.graft(value.spans)
            metrics = getattr(value, "metrics", None)
            if metrics is not None:
                telemetry.metrics.merge(metrics)
        return outcomes

    return submit


def resolve_executor(config, telemetry=None):
    """The executor for one detection run, from ``config.jobs`` /
    ``config.executor``.

    Serial is forced when ``jobs <= 1`` and for two configurations
    whose semantics are inherently sequential: ``audit`` (every replay
    records into the one in-process audit log) and ``fail_fast`` (the
    backend stops replaying at the first cross-failure bug).  Without
    the fork start method there is no process pool, and the run falls
    back to serial.
    """
    from repro.exec.pool import ProcessExecutor, WarmProcessExecutor

    jobs = int(getattr(config, "jobs", 1) or 1)
    kind = getattr(config, "executor", "auto") or "auto"
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor {kind!r} (choose from "
            f"{', '.join(EXECUTOR_KINDS)})"
        )
    if (
        kind == "serial"
        or jobs <= 1
        or getattr(config, "audit", False)
        or getattr(config, "fail_fast", False)
    ):
        return SerialExecutor()
    if not ProcessExecutor.available():
        if kind == "process" and telemetry is not None:
            telemetry.metrics.inc("exec.fallback_to_serial")
        return SerialExecutor()
    batch_size = int(getattr(config, "batch_size", 1) or 1)
    if getattr(config, "warm_pool", True):
        return WarmProcessExecutor(
            jobs, batch_size=batch_size, telemetry=telemetry
        )
    return ProcessExecutor(jobs, batch_size=batch_size)
