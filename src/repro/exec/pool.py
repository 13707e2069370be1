"""Process-pool executors.

All executors submit tasks in key order and collect results in the
same order, so downstream merging is deterministic.  Queue-wait is
measured with ``time.monotonic`` (system-wide on Linux, so it is
comparable across a fork) and surfaced per task through
:class:`~repro.exec.base.TaskOutcome`.

Dispatch is *batched*: keys are grouped by
:func:`~repro.exec.base.plan_batches` and each batch is one pool
submission, so per-task scheduling overhead amortizes and a worker's
replay-prefix memo cursor advances monotonically across the whole
batch.

Two process executors share the fork start method but differ in
lifetime:

* :class:`ProcessExecutor` (cold) — a fresh pool per phase, forked
  *after* the phase context is published as a module global in
  :mod:`repro.exec.worker`, so children inherit it through
  copy-on-write memory and nothing but batches of task keys and
  results crosses a pickle boundary.
* :class:`WarmProcessExecutor` — workers spawned once per run and kept
  alive across phases.  They fork *before* any phase context exists,
  so contexts reach them explicitly: a small pickled blob in which the
  snapshot store has been replaced by a
  :class:`~repro.exec.shm.ShmStoreView` (workers attach the shared
  segment zero-copy) and shadow checkpoints travel per batch.  Each
  worker keeps its attached store — and with it one long-lived
  replay-prefix memo (``repro.dedup.ImageMemo``), the as-written
  crash-image restore path — for the whole run.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time

from repro.errors import HarnessError
from repro.exec.base import TaskOutcome, plan_batches


def _collect(pool, call, batches):
    """Submit every batch and gather outcomes in key order, converting
    per-batch exceptions — including a broken pool, whose in-flight and
    not-yet-submitted batches all surface it — into error outcomes.
    The supervisor decides what to retry; the executor never loses the
    completed siblings of a failed task.
    """
    futures = []
    for batch in batches:
        try:
            futures.append(pool.submit(*call(batch)))
        except Exception as exc:  # pool already broken at submit time
            futures.append(exc)
    outcomes = []
    for batch, future in zip(batches, futures):
        if isinstance(future, Exception):
            outcomes.extend(
                TaskOutcome(None, error=future) for _key in batch
            )
            continue
        try:
            outcomes.extend(future.result())
        except Exception as exc:
            outcomes.extend(
                TaskOutcome(None, error=exc) for _key in batch
            )
    return outcomes


def _process_batch(func, keys, submitted):
    """One worker's pass over a batch: per-key outcomes, per-key error
    capture (one crashed task must not take its batchmates with it)."""
    from repro.exec import worker

    context = worker.get_context()
    label = f"pid-{os.getpid()}"
    outcomes = []
    for key in keys:
        started = time.monotonic()
        try:
            value = func(context, key)
        except Exception as exc:
            outcomes.append(TaskOutcome(None, error=exc))
            continue
        outcomes.append(TaskOutcome(value, started - submitted, label))
    return outcomes


class ProcessExecutor:
    """A fork-based process pool: real CPU parallelism, fresh pool per
    phase (cold — the fork itself ships the context)."""

    kind = "process"

    def __init__(self, jobs, batch_size=1):
        self.jobs = max(2, int(jobs))
        self.batch_size = max(1, int(batch_size))

    @staticmethod
    def available():
        return "fork" in multiprocessing.get_all_start_methods()

    def run_phase(self, context, func, keys):
        from repro.exec import worker

        keys = list(keys)
        if not keys:
            return []
        batches = plan_batches(keys, self.batch_size)
        worker.set_context(context)
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(batches)),
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                return _collect(
                    pool,
                    lambda batch: (_process_batch, func, batch,
                                   time.monotonic()),
                    batches,
                )
        finally:
            worker.set_context(None)

    def close(self):
        pass


class _WarmWorker:
    """Parent-side handle on one persistent worker process."""

    __slots__ = ("conn", "process", "generation", "batches")

    def __init__(self, conn, process):
        self.conn = conn
        self.process = process
        #: The context generation last shipped to this worker; stale
        #: workers get a fresh ``("ctx", ...)`` before their next batch.
        self.generation = -1
        #: Batches completed — ≥ 2 means the spawn cost amortized.
        self.batches = 0

    @property
    def label(self):
        return f"pid-{self.process.pid}"


#: Identity-cache sentinel: a phase context may legitimately be None.
_NO_CONTEXT = object()

#: Pickling failures leave the pipe intact (``Connection.send``
#: serializes fully before writing), so the worker stays usable and
#: the batch fails deterministically as a harness error.
_SEND_FAULTS = (pickle.PicklingError, TypeError, AttributeError)


class WarmProcessExecutor(ProcessExecutor):
    """A persistent fork-process pool fed over pipes.

    Workers are spawned once (ideally via :meth:`prewarm`, before the
    pre-failure stage grows the parent) and survive across phases,
    retry waves, and the post→replay transition.  Dispatch discipline:
    a batch is only sent to an *idle* worker — one whose previous
    result has been received — so the worker is guaranteed to be in
    its receive loop and pipe writes cannot deadlock.  A worker death
    surfaces as ``BrokenExecutor`` outcomes for its in-flight batch
    (transient, retried by the supervisor) and the slot respawns
    before the next dispatch, within the same phase.
    """

    def __init__(self, jobs, batch_size=8, telemetry=None):
        super().__init__(jobs, batch_size=batch_size)
        from repro.exec.shm import ShmSnapshotPlane

        self._telemetry = telemetry
        self._plane = ShmSnapshotPlane()
        self._mp = multiprocessing.get_context("fork")
        self._workers = []
        self._generation = 0
        self._ctx_ref = _NO_CONTEXT
        self._ctx_blob = None
        self._closed = False

    # -- telemetry helpers ---------------------------------------------

    def _metric_inc(self, name, value=1):
        if self._telemetry is not None:
            self._telemetry.metrics.inc(name, value)

    def _gauge(self, name, value):
        if self._telemetry is not None:
            self._telemetry.metrics.set_gauge(name, value)

    # -- worker lifecycle ----------------------------------------------

    def prewarm(self):
        """Spawn the full worker complement now.

        The detector calls this before the pre-failure stage runs, so
        the forked children are minimal — they never carry a
        copy-on-write image of the trace, store, or checkpoints.
        """
        if self._closed:
            return
        while len(self._workers) < self.jobs:
            self._workers.append(self._spawn())

    def _spawn(self):
        from multiprocessing import resource_tracker

        from repro.exec.worker import warm_worker_main

        # Make sure the resource tracker exists *before* the fork, so
        # every worker inherits the parent's tracker.  A worker forked
        # pre-tracker would lazily spawn its own on shm attach, and
        # that private tracker would try to clean up — i.e. unlink —
        # segments the parent still serves when the worker exits.
        resource_tracker.ensure_running()
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=warm_worker_main,
            args=(child_conn,),
            name=f"xfd-warm-{len(self._workers)}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WarmWorker(parent_conn, process)

    def _discard(self, worker):
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(1.0)
        try:
            self._workers.remove(worker)
        except ValueError:
            pass

    # -- context export -------------------------------------------------

    def _export_blob(self, context, func):
        """The pickled ``(context, func)`` payload for this phase, with
        heavy members swapped for shared-memory views; None when the
        phase cannot be exported (fall back to the cold path)."""
        if context is self._ctx_ref:
            return self._ctx_blob
        export = context
        try:
            exporter = getattr(context, "export_for_workers", None)
            if exporter is not None:
                export = exporter(self._plane)
            blob = pickle.dumps(
                (export, func), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            return None
        self._ctx_ref = context
        self._ctx_blob = blob
        self._generation += 1
        self._gauge("exec.shm_bytes_shared", self._plane.bytes_shared)
        return blob

    # -- the phase loop -------------------------------------------------

    def run_phase(self, context, func, keys):
        keys = list(keys)
        if not keys:
            return []
        blob = self._export_blob(context, func)
        if blob is None:
            # Unpicklable phase (e.g. locally-defined test workload):
            # run it on the cold fork-inheritance path instead.
            self._metric_inc("exec.warm_fallbacks")
            return super().run_phase(context, func, keys)
        batches = plan_batches(keys, self.batch_size)
        self._gauge(
            "exec.batch_size_effective", len(keys) / len(batches)
        )
        payloads = getattr(context, "batch_payload", None)
        attempts = getattr(
            getattr(context, "resilience", None), "attempts", None
        )
        results = [None] * len(batches)  # index -> [TaskOutcome]
        pending = list(range(len(batches)))
        busy = {}  # worker -> batch index
        while pending or busy:
            # Top the complement up, at phase start and after a death:
            # a lost worker costs only its own in-flight batch.
            while pending and len(self._workers) < min(
                self.jobs, len(batches)
            ):
                self._workers.append(self._spawn())
            # Dispatch to idle workers only — a worker whose previous
            # result was received is guaranteed to be blocked in its
            # receive loop, so pipe writes cannot deadlock.
            for worker in list(self._workers):
                if not pending:
                    break
                if worker in busy:
                    continue
                index = pending.pop(0)
                if self._send_batch(
                    worker, index, batches[index], blob, payloads,
                    attempts, results,
                ):
                    busy[worker] = index
                # On failure, _send_batch recorded the batch's error
                # outcomes already; the loop just moves on.
            if busy:
                self._reap(busy, batches, results)
        ordered = []
        for outcomes in results:
            ordered.extend(outcomes)
        return ordered

    def _send_batch(self, worker, index, batch, blob, payloads,
                    attempts, results):
        """Ship context (if stale) then the batch; False on failure
        (error outcomes recorded, worker discarded if dead)."""
        def fail(error):
            results[index] = [
                TaskOutcome(None, error=error) for _key in batch
            ]
            return False

        payload = None
        if payloads is not None:
            try:
                payload = payloads(batch)
            except Exception as exc:
                return fail(HarnessError(
                    f"batch payload failed: "
                    f"{type(exc).__name__}: {exc}",
                    phase="exec",
                ))
        batch_attempts = None
        if attempts is not None:
            batch_attempts = {
                key: attempts[key] for key in batch if key in attempts
            }
        try:
            if worker.generation != self._generation:
                worker.conn.send(("ctx", self._generation, blob))
                worker.generation = self._generation
            worker.conn.send(
                ("batch", index, batch, payload, batch_attempts,
                 time.monotonic())
            )
            return True
        except _SEND_FAULTS as exc:
            # The pipe is intact — the payload would not pickle.
            return fail(HarnessError(
                f"batch would not serialize: "
                f"{type(exc).__name__}: {exc}",
                phase="exec",
            ))
        except OSError:
            self._discard(worker)
            return fail(concurrent.futures.BrokenExecutor(
                f"warm worker {worker.label} unreachable"
            ))

    def _reap(self, busy, batches, results):
        """Wait for one completion (or a death) and record it."""
        conns = {worker.conn: worker for worker in busy}
        sentinels = {
            worker.process.sentinel: worker for worker in busy
        }
        ready = multiprocessing.connection.wait(
            list(conns) + list(sentinels), timeout=1.0
        )
        for item in ready:
            worker = conns.get(item) or sentinels.get(item)
            if worker is None or worker not in busy:
                continue  # already handled via its other handle
            index = busy[worker]
            if item is worker.conn:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    self._lose_batch(busy, worker, index,
                                     batches[index], results)
                    continue
                del busy[worker]
                results[index] = self._unpack(
                    message, batches[index], worker
                )
                worker.batches += 1
                if worker.batches > 1:
                    self._metric_inc("exec.worker_reuse_count")
            else:
                # Sentinel fired; a completed result may still be
                # sitting in the pipe (worker exited right after
                # sending).
                try:
                    if worker.conn.poll(0):
                        message = worker.conn.recv()
                        del busy[worker]
                        results[index] = self._unpack(
                            message, batches[index], worker
                        )
                        worker.batches += 1
                        self._discard(worker)
                        continue
                except (EOFError, OSError):
                    pass
                self._lose_batch(busy, worker, index, batches[index],
                                 results)

    def _lose_batch(self, busy, worker, index, batch, results):
        exitcode = worker.process.exitcode
        del busy[worker]
        self._discard(worker)
        error = concurrent.futures.BrokenExecutor(
            f"warm worker {worker.label} died mid-batch "
            f"(exitcode {exitcode})"
        )
        results[index] = [
            TaskOutcome(None, error=error) for _key in batch
        ]

    def _unpack(self, message, batch, worker):
        """A worker's ``("done", index, shipped, stats)`` message as
        TaskOutcomes, defensively padded to the batch length."""
        _tag, _index, shipped, stats = message
        attach_ms = stats.get("attach_ms")
        if attach_ms is not None:
            self._gauge("exec.attach_time_ms", attach_ms)
        outcomes = []
        for entry in shipped[:len(batch)]:
            if entry[0] == "ok":
                outcomes.append(
                    TaskOutcome(entry[1], entry[2], worker.label)
                )
            else:
                outcomes.append(TaskOutcome(None, error=entry[1]))
        while len(outcomes) < len(batch):
            outcomes.append(TaskOutcome(None, error=HarnessError(
                "warm worker returned short batch", phase="exec",
            )))
        return outcomes

    def end_run(self):
        """Retire one run's context while keeping the workers warm.

        The service fleet reuses a prewarmed pool *across* detection
        runs: between runs the shared-memory plane is released (it is
        reusable — ``publish`` after ``close`` allocates a fresh
        segment), the parent's context cache is dropped, and every
        worker is told to ``reset`` — detach its shm views and drop
        its replay memo — so nothing from run N can leak into run
        N+1's results or hold run N's segments alive.
        """
        if self._closed:
            return
        self._plane.close()
        self._ctx_ref = _NO_CONTEXT
        self._ctx_blob = None
        for worker in list(self._workers):
            try:
                worker.conn.send(("reset",))
                worker.generation = -1
            except Exception:
                self._discard(worker)

    def close(self):
        if self._closed:
            return
        self._closed = True
        for worker in list(self._workers):
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
        for worker in list(self._workers):
            worker.process.join(2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except Exception:
                pass
        self._workers = []
        self._plane.close()
