"""The XFDetector facade: frontend + backend orchestration."""

from __future__ import annotations

from repro._location import UNKNOWN_LOCATION
from repro.core.config import DetectorConfig
from repro.core.frontend import Frontend
from repro.core.replay import TraceReplayer, lower_trace
from repro.core.report import Bug, BugKind, DetectionReport
from repro.core.shadow import ShadowPM
from repro.exec.base import SerialExecutor, resolve_executor, submitter
from repro.exec.worker import (
    ReplayPhaseContext,
    run_replay_task,
    strip_config,
)
from repro.obs import resolve_telemetry
from repro.resilience import (
    IncidentLog,
    PhaseSupervisor,
    ResilienceContext,
    deserialize_bug,
)
from repro.trace.events import KIND_CODE, EventKind

#: Marker instruction code in compiled replay programs.
_FP_CODE = KIND_CODE[EventKind.FAILURE_POINT]


class XFDetector:
    """Cross-failure bug detector (the paper's tool).

    ``run(workload)`` executes the full Figure 7 pipeline: trace the
    pre-failure stage with failure injection, run the post-failure stage
    per failure point, replay both traces against the shadow PM, and
    report cross-failure races, semantic bugs, and performance bugs.

    Every run is instrumented through ``repro.obs``: a span tree
    profiles the stages, the metrics registry counts the pipeline's
    decisions, and (when ``config.audit`` is set) the shadow PM logs
    every FSM transition.  The run's telemetry is attached to the
    returned report as ``report.telemetry``.

    Backend scheduling: the backend replays the pre-failure trace once,
    capturing a shadow checkpoint at each ``FAILURE_POINT`` marker, and
    then replays every post-failure trace against a fork of its
    checkpoint — independent tasks a ``repro.exec`` executor can fan
    out.  Bugs are merged back in the order the interleaved schedule
    (fork and replay inline at each marker; kept as the test oracle
    :func:`repro.core.shadow_ref.reference_bugs`) produces, so reports
    are byte-identical regardless of ``config.jobs``.  Audit and
    fail-fast are properties of this one path: audit scopes the
    pre-replay and each fork into the run's audit log, and fail-fast
    stops replaying after the first post replay that finds a
    cross-failure bug.
    """

    def __init__(self, config=None):
        self.config = config if config is not None else DetectorConfig()
        self.telemetry = resolve_telemetry(self.config)

    def run(self, workload):
        executor = resolve_executor(self.config, self.telemetry)
        # Spawn warm workers before the pre-failure stage runs: the
        # forked children stay minimal (no copy-on-write image of the
        # trace, snapshot store, or checkpoints).
        prewarm = getattr(executor, "prewarm", None)
        if prewarm is not None:
            prewarm()
        tel = self.telemetry
        workload_name = getattr(
            workload, "name", type(workload).__name__
        )
        tel.emit(
            "run_started", workload=workload_name,
            jobs=self.config.jobs, executor=executor.kind,
        )
        try:
            with tel.span("run", workload=workload_name):
                frontend_result = Frontend(
                    self.config, telemetry=self.telemetry,
                    executor=executor,
                ).run(workload)
                report = self.analyze(
                    frontend_result, executor=executor
                )
            tel.emit(
                "run_finished", workload=workload_name,
                findings=len(report.bugs),
                stats=_deterministic_stats(report.stats),
            )
            return report
        finally:
            executor.close()

    # ------------------------------------------------------------------
    # Backend
    # ------------------------------------------------------------------

    def analyze(self, frontend_result, executor=None):
        """Replay traces from a frontend run and produce the report."""
        tel = self.telemetry
        report = DetectionReport(
            frontend_result.workload_name, telemetry=tel
        )
        stats = report.stats
        stats.failure_points = len(frontend_result.failure_points)
        stats.plan_mode = getattr(
            self.config, "plan_mode", "exhaustive"
        )
        planned = [
            fp for fp in frontend_result.failure_points
            if getattr(fp, "planned", True)
        ]
        stats.failure_points_executed = len(planned)
        stats.failure_points_skipped_by_plan = (
            stats.failure_points - len(planned)
        )
        stats.pre_trace_events = len(frontend_result.pre_recorder)
        stats.post_trace_events = sum(
            len(run.recorder) for run in frontend_result.post_runs
        )
        stats.pre_failure_seconds = frontend_result.pre_seconds
        stats.post_failure_seconds = frontend_result.post_seconds
        incident_log = getattr(frontend_result, "incidents", None)
        if incident_log is None:
            incident_log = IncidentLog()
        journal = getattr(frontend_result, "journal", None)

        # Canonical replay order: by failure point, base run first,
        # then variants — the order the frontend produces, re-imposed
        # here so hand-built results analyze identically.
        ordered_runs = sorted(
            frontend_result.post_runs,
            key=lambda run: (
                run.failure_point.fid,
                run.variant is not None,
                run.variant or 0,
            ),
        )

        try:
            self._analyze_checkpointed(
                frontend_result, ordered_runs, report, executor,
                incident_log, journal,
            )
        finally:
            if journal is not None:
                journal.close()

        report.incidents = incident_log.incidents
        tel.metrics.gauge("post_trace_events").set(
            stats.post_trace_events
        )
        tel.metrics.gauge("benign_race_reads").set(stats.benign_races)
        return report

    # -- checkpointed replay (executor-friendly) ------------------------

    def _analyze_checkpointed(self, frontend_result, ordered_runs,
                              report, executor, incident_log, journal):
        """Checkpoint the shadow at each marker during one pre-failure
        replay, then replay every post-failure trace against a fork of
        its checkpoint as an independent executor task.

        Bugs are spliced back into the interleaved schedule's order
        (pre-failure bugs found before a marker precede that failure
        point's post-failure bugs), so the report is byte-identical to
        the interleaved oracle and independent of the executor.  Runs
        spliced from a resume journal skip the replay entirely;
        quarantined runs are dropped (their incidents carry the
        provenance); and every newly completed run is journaled the
        moment it is merged, so a killed run loses at most the point
        being merged.  A ``fail_fast`` stop ends the report after the
        stopping run's bugs, as the interleaved schedule would.

        Under audit the pre-replay records into a ``stage="pre"`` scope
        and the fork position of each failure point is marked at its
        marker, so ``AuditLog.history_for`` cuts the inherited history
        exactly there; every run then replays into its own
        ``stage="post"`` scope.
        """
        tel = self.telemetry
        stats = report.stats
        audit = tel.audit

        # The pre-failure trace is lowered into a compiled replay
        # program exactly once; the marker scan below and the
        # pre-replay both execute it.
        pre_program = lower_trace(frontend_result.pre_recorder)

        # Tasks are fixed before the pre-replay so each marker knows
        # whether any run needs its checkpoint.
        marker_fids = {
            int(instr[3])
            for instr in pre_program
            if instr[0] == _FP_CODE
        }
        tasks = [
            run for run in ordered_runs
            if run.failure_point.fid in marker_fids
        ]
        tel.emit(
            "phase_started", phase="backend",
            points=sum(
                1 for run in tasks
                if getattr(run, "journal_entry", None) is None
            ),
        )
        with tel.span("backend") as backend_span:
            shadow = ShadowPM(
                platform=self.config.platform,
                audit=(
                    audit.scoped(stage="pre")
                    if audit is not None else None
                ),
                transition_counter=tel.metrics.counter(
                    "shadow_transitions_total"
                ),
            )
            pre_has_roi = _has_roi(frontend_result.pre_recorder)
            tel.metrics.inc(
                "replays_roi_scoped" if pre_has_roi
                else "replays_whole_trace"
            )
            pre_replayer = TraceReplayer(
                shadow, self.config, "pre", report,
                has_roi=pre_has_roi, metrics=tel.metrics,
            )
            # Markers with at least one run to replay (journaled runs
            # are rebuilt from their records and need no checkpoint).
            run_fids = {run.failure_point.fid for run in tasks}
            live_fids = {
                run.failure_point.fid for run in tasks
                if getattr(run, "journal_entry", None) is None
            }
            checkpoints = {}  # fid -> ShadowPM
            insert_at = {}
            # Dispatch the compiled program directly (same table
            # ``run_program`` uses) so the marker handling can stay
            # inline without re-testing every instruction twice.
            dispatch = pre_replayer._dispatch
            with tel.span("pre_replay"):
                for instr in pre_program:
                    code, addr, size, info, ip, tid = instr
                    if code == _FP_CODE:
                        fid = int(info)
                        insert_at[fid] = len(report.bugs)
                        if audit is not None and fid in run_fids:
                            audit.mark_fork(fid)
                        if fid in live_fids:
                            checkpoints[fid] = shadow.checkpoint()
                    dispatch[code](addr, size, info, ip, tid)
            pre_bugs = list(report.bugs)
            for bug in pre_bugs:
                _emit_finding(tel, bug)

            results, stopped = self._replay_tasks(
                tasks, checkpoints, executor, incident_log
            )
            stats.post_runs_analyzed = sum(
                1 for result in results if result is not None
            )
            # Runs without a marker, and runs after a fail-fast stop,
            # never replay.
            tel.metrics.gauge("orphaned_post_runs").set(
                len(ordered_runs) - len(results)
            )

            merged = []
            cursor = 0
            current_fid = None
            last = len(results) - 1
            for index, (run, result) in enumerate(zip(tasks, results)):
                if result is None:
                    continue  # quarantined: outcome lost
                bugs, benign_races = result
                fid = run.failure_point.fid
                if fid != current_fid:
                    offset = insert_at[fid]
                    merged.extend(pre_bugs[cursor:offset])
                    cursor = offset
                    current_fid = fid
                merged.extend(bugs)
                for bug in bugs:
                    _emit_finding(tel, bug)
                stats.benign_races += benign_races
                if stopped and index == last:
                    break  # fail-fast: nothing after the first race
                if run.crash is not None:
                    # A crashed post-failure execution is itself a
                    # finding.
                    bug = crash_bug(run)
                    merged.append(bug)
                    tel.metrics.inc("bugs_reported_total")
                    tel.metrics.inc("bugs_reported.post_failure_crash")
                    _emit_finding(tel, bug)
                if journal is not None:
                    journal.record_post(
                        fid, run.variant,
                        events=len(run.recorder),
                        has_roi=_has_roi(run.recorder),
                        crash_repr=(
                            repr(run.crash.original)
                            if run.crash is not None else None
                        ),
                        bugs=bugs,
                        benign_races=benign_races,
                    )
            else:
                merged.extend(pre_bugs[cursor:])
            report.bugs = merged

        stats.backend_seconds = backend_span.duration
        tel.emit(
            "phase_finished", phase="backend",
            seconds=backend_span.duration,
        )

    def _replay_tasks(self, tasks, checkpoints, executor,
                      incident_log):
        """Run every post-failure replay task; returns one
        ``(bugs, benign_races)`` pair per task, in task order —
        rebuilt straight from the journal for resumed runs, None for
        quarantined ones — plus whether a ``fail_fast`` stop cut the
        list short after its last entry.

        Under ``fail_fast`` tasks are submitted one at a time, so no
        task after the stopping one is replayed."""
        tel = self.telemetry
        keys = []
        runs_map = {}
        journaled = {}
        for index, run in enumerate(tasks):
            key = (run.failure_point.fid, run.variant, index)
            keys.append(key)
            entry = getattr(run, "journal_entry", None)
            if entry is not None:
                journaled[key] = (
                    [deserialize_bug(bug) for bug in entry["bugs"]],
                    entry["benign_races"],
                )
                continue
            # Post-failure traces ship to workers pre-lowered: the
            # compilation cost is paid once here, not per retry/fork.
            runs_map[key] = (
                lower_trace(run.recorder), _has_roi(run.recorder)
            )
        live_keys = [key for key in keys if key not in journaled]
        completed = {}
        if live_keys:
            resilience = ResilienceContext.from_config(
                self.config, "post_replay"
            )
            supervisor = PhaseSupervisor(
                "post_replay", self.config, incident_log, resilience,
                tel,
            )
            if executor is None:
                executor = SerialExecutor()
            ctx = ReplayPhaseContext(
                strip_config(self.config), checkpoints, runs_map,
                resilience, audit=tel.audit,
            )
            submit = submitter(executor, ctx, run_replay_task, tel)
            waves = (
                [[key] for key in live_keys] if self.config.fail_fast
                else [live_keys]
            )
            for wave in waves:
                done = supervisor.run(submit, wave)
                completed.update(done)
                if any(outcome.value.stopped for outcome in done.values()):
                    break
        results = []
        for key in keys:
            if key in journaled:
                results.append(journaled[key])
                continue
            if key in completed:
                value = completed[key].value
                results.append((value.bugs, value.benign_races))
                if value.stopped:
                    return results, True
                continue
            results.append(None)  # quarantined: outcome lost
        return results, False


def crash_bug(post_run):
    """The ``POST_FAILURE_CRASH`` finding of one crashed run."""
    return Bug(
        kind=BugKind.POST_FAILURE_CRASH,
        detail=str(post_run.crash),
        failure_point=post_run.failure_point.fid,
        reader_ip=UNKNOWN_LOCATION,
        writer_ip=UNKNOWN_LOCATION,
    )


def _emit_finding(telemetry, bug):
    """Publish one bug as a live ``finding`` event.

    Payload is restricted to deterministic content (kind, failure
    point, detail, source locations) so the event stream's normalized
    projection is identical at any pool width.
    """
    telemetry.emit(
        "finding",
        bug_kind=bug.kind.name,
        fid=bug.failure_point,
        detail=bug.detail,
        reader=str(bug.reader_ip),
        writer=str(bug.writer_ip),
    )


def _deterministic_stats(stats):
    """The run-stats payload of ``run_finished``: every counter, no
    timings (wall-clock fields would break the event stream's
    determinism projection, which only scrubs envelope-level keys)."""
    return {
        "failure_points": stats.failure_points,
        "pre_trace_events": stats.pre_trace_events,
        "post_trace_events": stats.post_trace_events,
        "post_runs_analyzed": stats.post_runs_analyzed,
        "post_runs_deduped": stats.post_runs_deduped,
        "replays_deduped": stats.replays_deduped,
        "benign_races": stats.benign_races,
        "plan_mode": stats.plan_mode,
        "failure_points_executed": stats.failure_points_executed,
        "failure_points_skipped_by_plan":
            stats.failure_points_skipped_by_plan,
    }


def _has_roi(recorder):
    """Whether the trace confines detection to RoI-marked regions.

    Recorders note ``ROI_BEGIN`` markers at append time (``has_roi``),
    so the common case is a flag read; the O(n) scan remains only as a
    fallback for plain event iterables.
    """
    flag = getattr(recorder, "has_roi", None)
    if flag is not None:
        return flag
    return any(
        event.kind is EventKind.ROI_BEGIN for event in recorder
    )
