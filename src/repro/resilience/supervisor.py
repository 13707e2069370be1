"""Phase supervision: quarantine-and-continue with self-healing retry.

The supervisor owns all fault handling for one executor phase.
Executors capture per-task exceptions into
:class:`~repro.exec.base.TaskOutcome.error` instead of raising; the
supervisor classifies each failed key and either **retries** it
(transient faults — worker deaths, broken pools — up to
``config.max_retries`` times with bounded exponential backoff) or
**quarantines** it (deterministic faults — harness programming errors,
deadline hangs), recording a typed
:class:`~repro.resilience.incidents.Incident` either way.

Retries are *generational*: each retry wave is a fresh ``submit`` call,
and both pool executors build a fresh pool per call — so a wave after a
worker death is automatically a self-healed pool with the in-flight
keys requeued, and a forked worker sees the updated attempt count
through fork inheritance (chaos rolls are per-attempt).

Completed outcomes keep their key identity, so callers merge them in
canonical key order and the byte-identical-report guarantee holds for
every non-quarantined key.
"""

from __future__ import annotations

import concurrent.futures
import os
import time

from repro.errors import ChaosCrash, DeadlineExceeded, HarnessError
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.deadline import (
    EXIT_HANG,
    HARD_KILL_FACTOR,
    HARD_KILL_SLACK,
    Deadline,
    Watchdog,
)
from repro.resilience.incidents import Incident, IncidentKind

#: Ceiling for one backoff sleep, whatever the generation.
BACKOFF_CAP = 2.0

def classify_failure(error):
    """``(IncidentKind, transient)`` for one captured task failure.

    Order matters: a chaos crash is a :class:`HarnessError` subclass
    but must classify as a worker death, and a broken pool (the
    parent-side symptom of any worker dying mid-phase, including
    collateral keys that were in flight on the same pool) is always
    transient — the respawned pool gets a clean roll.
    """
    if isinstance(error, DeadlineExceeded):
        return IncidentKind.HANG, False
    if isinstance(error, ChaosCrash):
        return IncidentKind.WORKER_DEATH, True
    if isinstance(error, concurrent.futures.BrokenExecutor):
        return IncidentKind.WORKER_DEATH, True
    if isinstance(error, HarnessError):
        return IncidentKind.HARNESS_ERROR, error.transient
    return IncidentKind.HARNESS_ERROR, False


def _describe(error):
    text = str(error)
    return text if text else repr(error)


class ResilienceContext:
    """Per-phase resilience state shared with task bodies.

    Lives on the phase context (``resilience`` slot), so thread workers
    share it by reference and forked process workers inherit it —
    including the supervisor's attempt counts, because each retry
    generation re-forks the pool after the counts were bumped.  None
    when every resilience knob is off, keeping the common path
    zero-overhead.
    """

    __slots__ = ("phase", "chaos", "attempts", "deadline_seconds",
                 "step_budget", "origin_pid")

    def __init__(self, phase, chaos=None, deadline_seconds=None,
                 step_budget=None):
        self.phase = phase
        self.chaos = chaos
        #: key -> attempt number (1-based), bumped by the supervisor
        #: before each submission wave.
        self.attempts = {}
        self.deadline_seconds = deadline_seconds
        self.step_budget = step_budget
        #: Pid of the supervising process; a task body compares it to
        #: detect that it runs in a forked pool worker.
        self.origin_pid = os.getpid()

    @classmethod
    def from_config(cls, config, phase):
        """The phase's resilience context, or None when chaos,
        deadline, and step budget are all unset."""
        chaos = getattr(config, "chaos", None)
        if not isinstance(chaos, ChaosPolicy):
            chaos = ChaosPolicy.parse(chaos)
        deadline_seconds = getattr(config, "exec_deadline", None)
        step_budget = getattr(config, "exec_step_budget", None)
        if chaos is None and deadline_seconds is None \
                and step_budget is None:
            return None
        return cls(phase, chaos, deadline_seconds, step_budget)

    def in_forked_worker(self):
        return os.getpid() != self.origin_pid

    def new_deadline(self):
        if self.deadline_seconds is None and self.step_budget is None:
            return None
        return Deadline(
            max_steps=self.step_budget,
            max_seconds=self.deadline_seconds,
        )

    def guard_task(self, key):
        """Arm one task: roll chaos, build its cooperative deadline,
        and (in a forked worker with a wall budget) start the hard
        watchdog.  Returns ``(deadline, watchdog)``; the watchdog is a
        no-op context manager when None is replaced by the caller.
        """
        fid, variant = key[0], key[1]
        deadline = self.new_deadline()
        if self.chaos is not None:
            self.chaos.inject(
                self.phase, fid, variant,
                self.attempts.get(key, 1),
                forked=self.in_forked_worker(),
                deadline=deadline,
            )
        watchdog = None
        if (
            deadline is not None
            and deadline.max_seconds is not None
            and self.in_forked_worker()
        ):
            # Only a forked worker may be hard-killed: os._exit from a
            # thread would take the whole run down.  The generous
            # factor gives the cooperative layer first shot at a
            # typed, attributable DeadlineExceeded.
            watchdog = Watchdog(
                deadline.max_seconds * HARD_KILL_FACTOR
                + HARD_KILL_SLACK,
                lambda: os._exit(EXIT_HANG),
            )
        return deadline, watchdog


class PhaseSupervisor:
    """Generational retry loop around one phase's submissions.

    ``run(submit, keys)`` drives ``submit(wave_keys) -> [TaskOutcome]``
    until every key either completed or was quarantined, and returns
    the completed outcomes as ``{key: TaskOutcome}``.  Incidents are
    recorded into the shared :class:`IncidentLog` per *occurrence* —
    a key that died twice and then succeeded contributes two
    non-quarantined incidents.
    """

    def __init__(self, phase, config, incident_log, resilience=None,
                 telemetry=None, sleep=time.sleep):
        self.phase = phase
        self.incident_log = incident_log
        self.resilience = resilience
        self.telemetry = telemetry
        self.max_retries = int(getattr(config, "max_retries", 2) or 0)
        self.retry_backoff = float(
            getattr(config, "retry_backoff", 0.05) or 0.0
        )
        self._sleep = sleep
        #: Attempt counts shared with workers when a resilience
        #: context exists (chaos rolls are per-attempt).
        self.attempts = (
            resilience.attempts if resilience is not None else {}
        )

    def run(self, submit, keys):
        keys = list(keys)
        completed = {}
        pending = keys
        generation = 0
        while pending:
            for key in pending:
                self.attempts[key] = self.attempts.get(key, 0) + 1
                self._emit(
                    "point_dispatched", phase=self.phase,
                    fid=key[0], variant=key[1],
                    attempt=self.attempts[key],
                )
            if generation:
                self._backoff(generation, pending)
            outcomes = submit(pending)
            retry = []
            for key, outcome in zip(pending, outcomes):
                if outcome.error is None:
                    completed[key] = outcome
                    self._emit(
                        "point_completed", phase=self.phase,
                        fid=key[0], variant=key[1],
                        worker=outcome.worker,
                        seconds=getattr(
                            outcome.value, "seconds", None
                        ),
                    )
                    continue
                retry_key = self._absorb(key, outcome.error)
                if retry_key:
                    retry.append(key)
            pending = retry
            generation += 1
        return completed

    def _emit(self, kind, **data):
        """Publish a live event through the phase's telemetry, if it
        carries a bus (fakes in tests may not implement ``emit``)."""
        emit = getattr(self.telemetry, "emit", None)
        if emit is not None:
            emit(kind, **data)

    def _absorb(self, key, error):
        """Record the incident for one failed key; True to retry it."""
        kind, transient = classify_failure(error)
        attempts = self.attempts[key]
        will_retry = transient and attempts <= self.max_retries
        incident = Incident(
            kind=kind,
            phase=self.phase,
            failure_point=key[0],
            variant=key[1],
            attempts=attempts,
            quarantined=not will_retry,
            detail=_describe(error),
        )
        self.incident_log.record(incident)
        self._emit(
            "incident", phase=self.phase,
            incident_kind=kind.value,
            fid=key[0], variant=key[1],
            attempts=attempts,
            quarantined=not will_retry,
            detail=_describe(error),
        )
        tel = self.telemetry
        if tel is not None:
            tel.metrics.inc("resilience.incidents_total")
            tel.metrics.inc(f"resilience.incidents.{kind.value}")
            if incident.quarantined:
                tel.metrics.inc("resilience.quarantined_total")
        return will_retry

    def _backoff(self, generation, pending):
        """Sleep before a retry wave: exponential in the generation,
        capped at :data:`BACKOFF_CAP`, and visible in telemetry."""
        delay = min(
            self.retry_backoff * (2 ** (generation - 1)), BACKOFF_CAP
        )
        tel = self.telemetry
        if tel is not None:
            tel.metrics.inc("resilience.retries_total", len(pending))
            tel.metrics.set_gauge(
                "resilience.retry_generation", generation
            )
            if delay > 0:
                tel.metrics.observe(
                    "resilience.backoff_seconds", delay
                )
        if delay > 0:
            self._sleep(delay)
