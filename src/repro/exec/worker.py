"""Task bodies and phase contexts for the failure-point engine.

A *phase context* bundles everything every task of one phase reads and
nothing it writes: the (telemetry-stripped) config, the workload, the
delta snapshot store, shadow checkpoints.  The serial executor passes
it by reference, the cold process executor hands it to its children by
fork inheritance through :func:`set_context`, and the warm one ships a
slimmed copy once per phase (``export_for_workers``).  Beyond that,
task keys and outcomes are the only values that cross the pickle
boundary, and outcomes are built from plain data (trace
recorders, repr strings, bug records, a local metrics registry) so the
parent can merge them deterministically in key order.

The task bodies import :mod:`repro.core.frontend` lazily: the frontend
itself imports this package, and the cycle resolves only at call time.
"""

from __future__ import annotations

import dataclasses
import os

from repro.errors import DeadlineExceeded, HarnessError, ReproError

#: The current phase context for forked process workers.  Published by
#: ``ProcessExecutor.run_phase`` immediately before the pool forks, so
#: children inherit it through copy-on-write memory.
_CONTEXT = None


def set_context(context):
    global _CONTEXT
    _CONTEXT = context


def get_context():
    if _CONTEXT is None:
        raise RuntimeError(
            "no phase context published; run_phase must set_context() "
            "before forking workers"
        )
    return _CONTEXT


def strip_config(config):
    """A copy of ``config`` without the telemetry sink: workers record
    into task-local registries that the parent merges, never into the
    run's own telemetry."""
    if getattr(config, "telemetry", None) is None:
        return config
    return dataclasses.replace(config, telemetry=None)


#: Path fragments identifying pipeline (harness) modules.  Workload
#: modules — ``repro/workloads`` and anything outside the package,
#: such as test-defined workloads — deliberately match none of them,
#: and neither does ``repro/pmdk``: the PMDK shim is part of the
#: *traced application stack*, so e.g. its NULL-view ValueError is the
#: Figure 1 segfault analogue, a finding rather than a harness fault.
_HARNESS_FRAGMENTS = tuple(
    os.path.join("repro", name) + os.sep
    for name in ("pm", "trace", "core", "exec", "obs", "resilience")
)


def _is_harness_fault(exc):
    """Did this exception originate in pipeline code?

    A crashing recovery is a *finding* only when the workload's own
    code (or a library error it provoked, which arrives as a
    :class:`ReproError` and never reaches this check) is at fault.  A
    programming error raised from the deepest frame of a pipeline
    module is the harness failing, and reporting it as a
    ``POST_FAILURE_CRASH`` bug would be a false positive — so the
    caller reraises it as :class:`HarnessError` for the supervisor to
    quarantine.
    """
    traceback = exc.__traceback__
    filename = ""
    while traceback is not None:
        filename = traceback.tb_frame.f_code.co_filename
        traceback = traceback.tb_next
    return any(fragment in filename for fragment in _HARNESS_FRAGMENTS)


# ----------------------------------------------------------------------
# Post-failure execution phase
# ----------------------------------------------------------------------


class PostPhaseContext:
    """Read-only inputs of the post-failure execution phase."""

    __slots__ = ("config", "workload", "store", "uses_roi",
                 "resilience")

    def __init__(self, config, workload, store, uses_roi,
                 resilience=None):
        self.config = config
        self.workload = workload
        #: The pre-failure run's ``SnapshotStore``; workers materialize
        #: crash images from it on demand.
        self.store = store
        self.uses_roi = uses_roi
        #: The phase's ``ResilienceContext`` (chaos, deadlines, attempt
        #: counts), or None when every resilience knob is off.
        self.resilience = resilience

    def export_for_workers(self, plane):
        """The warm-pool shipping form: the snapshot store swapped for
        a shared-memory view (workers attach zero-copy).  A store
        without delta support ships as-is through the pickle."""
        store = self.store
        if hasattr(store, "deltas"):
            store = plane.publish(store)
        return PostPhaseContext(
            self.config, self.workload, store, self.uses_roi,
            self.resilience,
        )


class PostTaskOutcome:
    """One post-failure execution's result, in picklable form.

    The crash (if any) travels as ``repr(exc)`` — exception instances
    do not pickle reliably and the report only needs the message; the
    parent rebuilds a ``PostFailureCrash`` whose text is byte-identical
    to the serial executor's.  ``spans`` carries the task's own span
    tree (one ``post_run`` root with ``materialize_image`` /
    ``recovery`` children) so the coordinator can graft the worker's
    profile into the run's; ``seconds`` is that root's duration.
    """

    __slots__ = ("fid", "variant", "recorder", "crash_repr", "seconds",
                 "spans")

    def __init__(self, fid, variant, recorder, crash_repr, seconds,
                 spans=()):
        self.fid = fid
        self.variant = variant
        self.recorder = recorder
        self.crash_repr = crash_repr
        self.seconds = seconds
        self.spans = list(spans)


def run_post_task(ctx, key):
    """Run one post-failure execution on a materialized crash image.

    ``key`` is ``(fid, variant, survivor_mask)``; a None mask means the
    base run on the configured crash-image mode.
    """
    from repro.core.frontend import ExecutionContext
    from repro.core.interface import DetectionComplete, XFInterface
    from repro.obs.spans import SpanRecorder
    from repro.pm.image import CrashImageMode
    from repro.pm.memory import PersistentMemory
    from repro.pm.pool import PMPool
    from repro.trace.recorder import TraceRecorder

    fid, variant, mask = key
    config = ctx.config
    resilience = ctx.resilience
    deadline = watchdog = None
    if resilience is not None:
        deadline, watchdog = resilience.guard_task(key)
    # The task profiles itself into a local recorder; the root tree
    # ships back in the outcome and the coordinator grafts it into the
    # run profile.  ``seconds`` is the root's duration so derived stats
    # match the grafted span exactly.
    spans = SpanRecorder()
    root_attrs = {"fid": fid}
    if variant is not None:
        root_attrs["variant"] = variant
    try:
        with spans.span("post_run", **root_attrs) as root:
            recorder = TraceRecorder("post")
            memory = PersistentMemory(
                recorder, config.capture_ips, platform=config.platform
            )
            memory.deadline = deadline
            # Replay-prefix memo: reuse this worker's rolling image
            # buffers (O(delta) per task instead of three O(pool)
            # copies).  The persisted-only ablation mode keeps the
            # legacy materialize path — its base image is the strict
            # view, which the memo's working buffer does not model.
            use_memo = (
                config.crash_image_mode is CrashImageMode.AS_WRITTEN
                and hasattr(ctx.store, "deltas")
            )
            with spans.span("materialize_image"):
                if use_memo:
                    from repro.dedup.memo import memo_for

                    memo_pools = memo_for(ctx.store).task_pools(
                        fid, mask
                    )
                    for pool in memo_pools:
                        memory.map_pool(pool)
                else:
                    images = ctx.store.materialize(fid)
                    bit_offset = 0
                    for image in images:
                        if mask is None:
                            data = image.bytes_for(
                                config.crash_image_mode
                            )
                        else:
                            bits = len(image.volatile_lines)
                            sub_mask = (
                                (mask >> bit_offset) & ((1 << bits) - 1)
                            )
                            bit_offset += bits
                            data = image.variant_bytes(sub_mask)
                        memory.map_pool(
                            PMPool(image.pool_name, image.size,
                                   image.base, data=data)
                        )
            memory.roi_active = not ctx.uses_roi
            context = ExecutionContext(
                memory=memory,
                interface=XFInterface(memory, stage="post"),
                stage="post",
                options=dict(config.workload_options),
            )
            crash_repr = None
            with spans.span("recovery"):
                try:
                    ctx.workload.post_failure(context)
                except DetectionComplete:
                    pass
                except (DeadlineExceeded, HarnessError):
                    # Livelocked or harness-broken recovery: the
                    # supervisor's problem (a typed incident), never a
                    # finding.
                    raise
                except ReproError as exc:
                    # Library errors the workload provoked (bad
                    # persistent pointer, pool corruption, traversal
                    # limit, ...): recovery crashed — a finding.
                    crash_repr = repr(exc)
                except Exception as exc:
                    if _is_harness_fault(exc):
                        raise HarnessError(
                            f"harness fault during post-failure "
                            f"execution: "
                            f"{type(exc).__name__}: {exc}",
                            phase="post_exec",
                        ) from exc
                    crash_repr = repr(exc)  # recovery crashed: a finding
        return PostTaskOutcome(
            fid, variant, recorder, crash_repr, root.duration,
            spans=spans.roots,
        )
    finally:
        if watchdog is not None:
            watchdog.cancel()


# ----------------------------------------------------------------------
# Post-failure replay phase
# ----------------------------------------------------------------------


class ReplayPhaseContext:
    """Read-only inputs of the checkpointed post-replay phase."""

    __slots__ = ("config", "checkpoints", "runs", "resilience", "audit")

    def __init__(self, config, checkpoints, runs, resilience=None,
                 audit=None):
        self.config = config
        #: fid -> ShadowPM checkpoint captured at that FAILURE_POINT
        #: marker during the single pre-failure replay.
        self.checkpoints = checkpoints
        #: (fid, variant, index) -> (post-trace events, has_roi flag).
        #: ``index`` is the task's position in the canonical run order,
        #: so keys stay unique even for hand-built duplicate runs.
        self.runs = runs
        #: The phase's ``ResilienceContext``, or None when every
        #: resilience knob is off.
        self.resilience = resilience
        #: The run's ``AuditLog`` (audit mode, serial only): each fork
        #: records its transitions through a per-failure-point scope.
        self.audit = audit

    def export_for_workers(self, plane):
        """The warm-pool shipping form: checkpoints and run traces are
        stripped here and travel per batch (:meth:`batch_payload`), so
        a worker never holds more than one batch's worth of them."""
        return ReplayPhaseContext(
            self.config, {}, {}, self.resilience
        )

    def batch_payload(self, keys):
        """The per-batch slice of this phase's inputs: the shadow
        checkpoints and recorded post-traces the batch's keys need."""
        fids = sorted({key[0] for key in keys})
        return (
            {fid: self.checkpoints[fid] for fid in fids},
            {key: self.runs[key] for key in keys},
        )

    def install_payload(self, payload):
        checkpoints, runs = payload
        self.checkpoints.update(checkpoints)
        self.runs.update(runs)

    def clear_payload(self):
        """Drop per-batch state so a long-lived worker's memory stays
        bounded by one batch, not the whole run."""
        self.checkpoints.clear()
        self.runs.clear()


class ReplayTaskOutcome:
    """One post-failure replay's findings, in picklable form."""

    __slots__ = ("fid", "variant", "bugs", "benign_races", "metrics",
                 "seconds", "spans", "stopped")

    def __init__(self, fid, variant, bugs, benign_races, metrics,
                 seconds, spans=(), stopped=False):
        self.fid = fid
        self.variant = variant
        self.bugs = bugs
        self.benign_races = benign_races
        #: Task-local ``MetricsRegistry``; the parent merges it so the
        #: run's counters are identical to the serial schedule's.
        self.metrics = metrics
        self.seconds = seconds
        #: The task's own span tree (a ``post_replay`` root), grafted
        #: into the run profile by the coordinator.
        self.spans = list(spans)
        #: ``fail_fast`` stopped this replay at its first cross-failure
        #: bug (the last entry of ``bugs``).
        self.stopped = stopped


def run_replay_task(ctx, key):
    """Replay one post-failure trace against a forked shadow checkpoint."""
    from repro.core.replay import StopAnalysis, TraceReplayer
    from repro.core.report import DetectionReport
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder

    fid, variant, _index = key
    resilience = ctx.resilience
    deadline = watchdog = None
    if resilience is not None:
        deadline, watchdog = resilience.guard_task(key)
    program, has_roi = ctx.runs[key]
    spans = SpanRecorder()
    root_attrs = {"fid": fid}
    if variant is not None:
        root_attrs["variant"] = variant
    try:
        metrics = MetricsRegistry()
        with spans.span("post_replay", **root_attrs) as root:
            with spans.span("fork_checkpoint"):
                fork = ctx.checkpoints[fid].fork_for_replay(
                    metrics.counter("shadow_transitions_total")
                )
            if ctx.audit is not None:
                fork.audit = ctx.audit.scoped(
                    stage="post", failure_point=fid
                )
            metrics.inc(
                "replays_roi_scoped" if has_roi
                else "replays_whole_trace"
            )
            shell = DetectionReport()
            replayer = TraceReplayer(
                fork, ctx.config, "post", shell,
                failure_point=fid, has_roi=has_roi, metrics=metrics,
            )
            stopped = False
            with spans.span("replay_events"):
                # ``ctx.runs`` ships compiled replay programs (see
                # ``repro.core.replay.lower_trace``), lowered once by
                # the coordinator and reused across retries and forks.
                try:
                    replayer.run_program(program, deadline)
                except StopAnalysis:
                    stopped = True
        return ReplayTaskOutcome(
            fid, variant, shell.bugs, shell.stats.benign_races, metrics,
            root.duration, spans=spans.roots, stopped=stopped,
        )
    finally:
        if watchdog is not None:
            watchdog.cancel()


# ----------------------------------------------------------------------
# Warm persistent workers (repro.exec.pool.WarmProcessExecutor)
# ----------------------------------------------------------------------


def _attach_context(ctx):
    """Swap a shipped shared-memory store view for the attached store.

    Returns the attach cost in milliseconds (the ``exec.attach_time_ms``
    gauge), or None when the context carries no view to attach.
    """
    import time

    store = getattr(ctx, "store", None)
    if store is None or not hasattr(store, "attach"):
        return None
    started = time.monotonic()
    ctx.store = store.attach()
    return (time.monotonic() - started) * 1000.0


def _shippable_error(exc):
    """``exc`` if it survives a pickle round trip, else a
    :class:`HarnessError` stand-in carrying its repr."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return HarnessError(
            f"unpicklable worker exception: {exc!r}", phase="exec"
        )


def warm_worker_main(conn):
    """Body of one persistent warm-pool worker process.

    Protocol (all over one duplex pipe, parent never sends to a busy
    worker so this loop is always in ``recv`` when a message lands):

    * ``("ctx", generation, blob)`` — adopt a new phase context:
      unpickle ``(context, func)``, attach any shared-memory store.
    * ``("batch", index, keys, payload, attempts, submitted)`` — run
      the batch, reply ``("done", index, shipped, stats)`` where
      ``shipped`` is one ``("ok", value, queue_wait)`` or
      ``("err", exc)`` per key.
    * ``("stop",)`` — exit cleanly.

    The process also exits when the parent disappears (EOF on the pipe
    or a reparented ppid between polls).
    """
    import pickle
    import time

    parent = os.getppid()
    ctx = func = None
    attach_ms = None
    while True:
        try:
            if not conn.poll(0.5):
                if os.getppid() != parent:
                    break  # orphaned: the parent died without "stop"
                continue
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        if message[0] == "ctx":
            _tag, _generation, blob = message
            ctx, func = pickle.loads(blob)
            attach_ms = _attach_context(ctx)
            continue
        _tag, index, keys, payload, attempts, submitted = message
        shipped = []
        stats = {"attach_ms": attach_ms}
        attach_ms = None  # report the attach once, on its first batch
        install = getattr(ctx, "install_payload", None)
        if payload is not None and install is not None:
            install(payload)
        if attempts:
            ctx.resilience.attempts.update(attempts)
        for key in keys:
            started = time.monotonic()
            try:
                value = func(ctx, key)
            except Exception as exc:
                shipped.append(("err", _shippable_error(exc)))
                continue
            shipped.append(("ok", value, started - submitted))
        if payload is not None and install is not None:
            ctx.clear_payload()
        try:
            conn.send(("done", index, shipped, stats))
        except Exception:
            # Some outcome refused to pickle mid-send; the parent's
            # recv would hang on a half-message if we just died, so
            # retry with per-key harness errors (plain strings, always
            # serializable).
            fallback = [
                ("err", HarnessError(
                    "warm worker could not serialize batch results",
                    phase="exec",
                ))
                for _key in keys
            ]
            try:
                conn.send(("done", index, fallback, stats))
            except Exception:
                break
    # Detach cleanly on the way out too: interpreter shutdown runs
    # finalizers in arbitrary order, and SharedMemory.__del__ under a
    # still-exported view prints an ignored BufferError.
    try:
        import gc

        from repro.dedup.memo import drop_local_memo
        from repro.exec import shm

        ctx = func = None
        drop_local_memo()
        gc.collect()
        shm.detach_all()
    except Exception:
        pass
    try:
        conn.close()
    except Exception:
        pass
