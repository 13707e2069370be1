"""Detector configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.pm.cacheline import PlatformMode
from repro.pm.image import CrashImageMode


def _default_jobs():
    """Worker-pool width: the ``XFD_JOBS`` env var, default 1 (serial).

    Invalid or non-positive values degrade to 1 rather than erroring —
    the env var is a CI/ops knob, not an API.
    """
    raw = os.environ.get("XFD_JOBS", "").strip()
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return max(1, jobs)


def _default_executor():
    """Executor kind: the ``XFD_EXECUTOR`` env var, default ``auto``."""
    raw = os.environ.get("XFD_EXECUTOR", "").strip().lower()
    if raw in ("serial", "process", "auto"):
        return raw
    return "auto"


def _default_deadline():
    """Per-execution wall budget in seconds: the ``XFD_DEADLINE`` env
    var, default None (no deadline).  Invalid or non-positive values
    degrade to None — an ops knob, not an API."""
    raw = os.environ.get("XFD_DEADLINE", "").strip()
    try:
        seconds = float(raw)
    except ValueError:
        return None
    return seconds if seconds > 0 else None


def _default_batch_size():
    """Failure points per dispatch: the ``XFD_BATCH_SIZE`` env var,
    default 8.  Unset or unparseable values give the default 8;
    values <= 0 are clamped to 1 (no batching) — an ops knob, not an
    API."""
    raw = os.environ.get("XFD_BATCH_SIZE", "").strip()
    if not raw:
        return 8
    try:
        size = int(raw)
    except ValueError:
        return 8
    return max(1, size)


def _default_warm_pool():
    """Warm persistent worker pool switch: the ``XFD_WARM_POOL`` env
    var, default on.  Only explicit ``0/false/off/no`` disable —
    mirrors the CLI's ``--no-warm-pool``."""
    raw = os.environ.get("XFD_WARM_POOL", "").strip().lower()
    return raw not in ("0", "false", "off", "no")


def _default_chaos():
    """Chaos fault spec: the ``XFD_CHAOS`` env var (e.g.
    ``crash:0.1,hang:0.05``), default None (no injection)."""
    raw = os.environ.get("XFD_CHAOS", "").strip()
    return raw or None


@dataclass
class DetectorConfig:
    """Tunables of the detection procedure.

    The defaults match the paper's configuration; several knobs exist to
    ablate the paper's design decisions (see ``benchmarks/
    bench_ablation.py``).
    """

    #: Capture source locations on every trace event (needed for useful
    #: bug reports; disable only for overhead measurements).
    capture_ips: bool = True

    #: Inject failure points during the pre-failure stage.  Disabled for
    #: the "pure tracing" baseline of Figure 12b.
    inject_failures: bool = True

    #: What the post-failure stage sees of non-persisted data
    #: (paper default: the full as-written image, Section 5.4 fn. 3).
    crash_image_mode: CrashImageMode = CrashImageMode.AS_WRITTEN

    #: Persistence domain of the simulated platform.  The paper's
    #: testbed is ADR (volatile caches); EADR makes every store durable
    #: on retire — cross-failure races become impossible, semantic bugs
    #: remain, and every flush is a performance bug.
    platform: PlatformMode = PlatformMode.ADR

    #: Treat allocator zero-fill as initialization.  The paper does not
    #: (Bug 2 exists precisely because implicit zeroing "is not
    #: guaranteed"), so the default is False.
    trust_allocator_zeroing: bool = False

    #: Optimization 1 (Section 5.4): check only the first post-failure
    #: read of each pre-failure-modified location.
    first_read_only: bool = True

    #: Optimization 2 (Section 5.4): skip failure points between two
    #: ordering points with no PM data operation in between.
    skip_empty_failure_points: bool = True

    #: Report performance bugs (redundant writebacks, duplicate
    #: TX_ADD).
    report_perf_bugs: bool = True

    #: How the post-failure stage picks which failure points to
    #: execute.  ``exhaustive`` (the paper's schedule) runs every
    #: injected point; ``mechanism`` runs mechanism inference
    #: (``repro.analysis.mech``) over the pre-failure trace and
    #: collapses each clean mechanism epoch to its invariant-driven
    #: crash plan (first / pre-commit / post-commit / last);
    #: ``hybrid`` collapses only library-witnessed transaction epochs
    #: and leaves annotation-derived epochs exhaustive.  Epochs with
    #: XF-M* invariant violations never collapse, and points outside
    #: any epoch always run.
    plan_mode: str = "exhaustive"

    #: Extra pmreorder-style crash states sampled per failure point
    #: (0 = only the configured crash-image mode, the paper's setup).
    #: Each variant independently keeps or loses the volatile cache
    #: lines, exposing value-dependent recovery bugs (Section 5.5
    #: suggests assertions + failure injection for those).
    crash_state_variants: int = 0

    #: Hard cap on injected failure points (None = unlimited).
    max_failure_points: int | None = None

    #: Stop after the first cross-failure bug (useful interactively).
    fail_fast: bool = False

    #: Worker-pool width for the post-failure execution and replay
    #: phases (``repro.exec``).  1 (the default) runs the serial
    #: reference schedule; reports are byte-identical at any width.
    #: Overridable via the ``XFD_JOBS`` env var.
    jobs: int = field(default_factory=_default_jobs)

    #: Executor kind: "auto" or "process" (a fork-based process pool
    #: at ``jobs > 1``; serial where fork is unavailable), or
    #: "serial".  Overridable via the ``XFD_EXECUTOR`` env var.  Audit
    #: and fail-fast runs always use the serial executor regardless of
    #: this setting.
    executor: str = field(default_factory=_default_executor)

    #: Failure points per pool dispatch (``repro.exec``): contiguous
    #: keys are grouped so a worker's replay-prefix memo cursor
    #: advances in O(divergence) across the whole batch and per-task
    #: IPC amortizes.  1 = dispatch each point alone (PR-3 behavior).
    #: Overridable via the ``XFD_BATCH_SIZE`` env var.
    batch_size: int = field(default_factory=_default_batch_size)

    #: Keep one persistent fork-process pool alive across phases
    #: instead of forking a fresh pool per phase, with pool images
    #: published through ``multiprocessing.shared_memory`` so workers
    #: attach zero-copy.  Only affects the process executor.
    #: Overridable via the ``XFD_WARM_POOL`` env var; CLI
    #: ``--warm-pool/--no-warm-pool``.
    warm_pool: bool = field(default_factory=_default_warm_pool)

    #: Record every shadow-PM persistence/consistency FSM transition in
    #: an audit log (``repro.obs.AuditLog``) with address range,
    #: old->new state, epoch, and source location.  Strictly opt-in:
    #: the log costs extra range iteration on every shadow update.
    audit: bool = False

    #: Inject a ``repro.obs.Telemetry`` instance to share one metrics
    #: registry / span recorder across runs (None = the detector
    #: creates a fresh per-run instance honoring ``audit``).
    telemetry: object | None = None

    #: Path of the live NDJSON event stream (``repro.obs.live``):
    #: every bus event is appended as one flushed JSON line.  None
    #: (the default) writes no stream.  CLI: ``run --events PATH``.
    events: str | None = None

    #: Path of a Prometheus textfile-collector exposition file,
    #: atomically rewritten on every heartbeat and phase boundary.
    #: None (the default) writes none.  CLI: ``run --prom-textfile``.
    prom_textfile: str | None = None

    #: TTY progress line on stderr: True forces it on, False forces it
    #: off, None (the default) enables it only when stderr is a
    #: terminal.  CLI: ``run --progress`` / ``run --quiet``.
    progress: bool | None = None

    #: Seconds between live-bus heartbeats (progress repaints and
    #: Prometheus rewrites ride on them).  A final heartbeat always
    #: precedes ``run_finished`` regardless of the interval.
    heartbeat_interval: float = 1.0

    #: Wall-clock budget (seconds) for each post-failure execution and
    #: replay task, enforced cooperatively on every traced operation
    #: plus a hard watchdog in forked process workers.  None = no
    #: deadline.  Overridable via the ``XFD_DEADLINE`` env var.
    exec_deadline: float | None = field(default_factory=_default_deadline)

    #: Step budget (traced PM operations / replayed events) for each
    #: post-failure execution and replay task.  None = unlimited.
    exec_step_budget: int | None = None

    #: Retry budget for *transient* task faults (worker deaths): a key
    #: is retried on a fresh pool up to this many times before being
    #: quarantined.  Deterministic faults (harness errors, deadline
    #: hangs) are quarantined after the first attempt regardless.
    max_retries: int = 2

    #: Base delay (seconds) of the exponential retry backoff
    #: (doubled per retry wave, capped at ``BACKOFF_CAP``).
    retry_backoff: float = 0.05

    #: Chaos self-test spec, e.g. ``"crash:0.1,hang:0.05"``: inject
    #: synthetic worker faults at the given per-task rates to exercise
    #: the resilience layer.  Decisions are a deterministic hash, so
    #: the same run rolls the same faults under any executor.
    #: Overridable via the ``XFD_CHAOS`` env var.
    chaos: str | None = field(default_factory=_default_chaos)

    #: Path of the run journal: every completed failure-point outcome
    #: is appended (NDJSON, flushed) so a killed run can be resumed.
    journal: str | None = None

    #: Path of a previous run's journal to resume from: after
    #: validating its config+trace checksum, completed failure points
    #: are spliced from the journal and skipped.  When ``journal`` is
    #: unset, new outcomes are appended to the resumed file.
    resume: str | None = None

    #: Extra keyword arguments forwarded to workload stages.
    workload_options: dict = field(default_factory=dict)
