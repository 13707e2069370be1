"""The run-scoped live event bus.

A :class:`LiveBus` is the single emission point for
:mod:`repro.obs.live.events`: pipeline layers call
``telemetry.emit(kind, **data)``, the bus stamps the envelope
(sequence number, timestamp, run id) and fans the event out to its
sinks under one lock.  It also maintains a :class:`RunProgress`
aggregate (phase, points done/total, findings, incidents)
that heartbeats snapshot, so every sink can render live progress
without keeping its own books.

Liveness has two sources: every published event opportunistically
fires a heartbeat when the configured interval has elapsed, and an
optional daemon ticker thread covers long quiet stretches (a slow
pre-failure execution publishes nothing for seconds).  A final
heartbeat always precedes ``run_finished``, so even a sub-interval run
produces at least one.

The bus never changes detection behavior: reports are byte-identical
with a bus attached or not, and forked workers never see one
(``repro.exec.worker.strip_config`` removes the telemetry sink).
"""

from __future__ import annotations

import os
import threading
import time


class RunProgress:
    """Aggregate run state, updated from the event stream itself."""

    __slots__ = (
        "workload", "phase", "points_total", "points_done",
        "points_injected", "findings", "incidents", "workers",
        "started_ts", "finished",
    )

    def __init__(self):
        self.workload = None
        self.phase = None
        self.points_total = 0
        self.points_done = 0
        self.points_injected = 0
        self.findings = 0
        self.incidents = 0
        self.workers = set()
        self.started_ts = None
        self.finished = False

    def observe(self, event):
        kind, data = event.kind, event.data
        if kind == "run_started":
            self.workload = data.get("workload")
            self.started_ts = event.ts
        elif kind == "run_finished":
            self.finished = True
        elif kind == "phase_started":
            self.phase = data.get("phase")
            self.points_total += int(data.get("points", 0) or 0)
        elif kind == "phase_finished":
            if self.phase == data.get("phase"):
                self.phase = None
        elif kind == "point_injected":
            self.points_injected += 1
        elif kind == "point_completed":
            self.points_done += 1
        elif kind == "finding":
            self.findings += 1
        elif kind == "incident":
            self.incidents += 1

    def snapshot(self):
        """Plain-dict view, embedded in every heartbeat."""
        return {
            "workload": self.workload,
            "phase": self.phase,
            "points_total": self.points_total,
            "points_done": self.points_done,
            "points_injected": self.points_injected,
            "findings": self.findings,
            "incidents": self.incidents,
            "workers": len(self.workers),
        }


def _default_run_id(clock=time.time):
    return f"{int(clock() * 1000):013x}-{os.getpid()}"


class LiveBus:
    """Fans live events out to sinks; owns sequence numbers, the
    progress aggregate, and the heartbeat cadence.

    Sinks implement ``handle(event)`` and optionally ``close()`` and
    ``attach(bus)`` (called once at construction so stateful sinks —
    the Prometheus writer — can read the progress aggregate).  A sink
    that raises is dropped from the fan-out with a note on stderr
    rather than taking the detection run down: telemetry must never
    break the pipeline it observes.
    """

    def __init__(self, sinks=(), run_id=None, clock=time.time,
                 heartbeat_interval=1.0, ticker=True):
        self._sinks = list(sinks)
        self._clock = clock
        self.run_id = run_id if run_id is not None else \
            _default_run_id(clock)
        self.heartbeat_interval = float(heartbeat_interval)
        self.progress = RunProgress()
        self._lock = threading.RLock()
        self._seq = 0
        # The first opportunistic heartbeat waits a full interval from
        # construction rather than firing on the very first event.
        self._last_beat = self._clock()
        self._use_ticker = bool(ticker) and self.heartbeat_interval > 0
        self._ticker = None
        self._ticker_stop = threading.Event()
        self._closed = False
        for sink in self._sinks:
            attach = getattr(sink, "attach", None)
            if attach is not None:
                attach(self)

    # -- emission --------------------------------------------------------

    def emit(self, kind, **data):
        """Publish one event (plus any synthesized companions)."""
        from repro.obs.live.events import LiveEvent

        with self._lock:
            if self._closed:
                return None
            now = self._clock()
            # Worker lifecycle is synthesized here so emitters only
            # report what they saw: the first completion from a label
            # implies the worker exists; a worker-death incident
            # implies one died.
            worker = data.get("worker")
            if worker is not None and \
                    worker not in self.progress.workers:
                self.progress.workers.add(worker)
                self._publish(LiveEvent(
                    "worker_spawned", self._next_seq(), now,
                    self.run_id, {"worker": worker},
                ))
            if kind == "incident" and \
                    data.get("incident_kind") == "worker-death":
                self._publish(LiveEvent(
                    "worker_died", self._next_seq(), now, self.run_id,
                    {"phase": data.get("phase"),
                     "detail": data.get("detail")},
                ))
            if kind == "run_finished":
                # Every run ends with a fresh heartbeat: sub-interval
                # runs still get one, and the Prometheus textfile's
                # final rewrite carries the complete counters.
                self._beat(now)
            event = LiveEvent(
                kind, self._next_seq(), now, self.run_id, data
            )
            self._publish(event)
            if kind == "run_started" and self._use_ticker:
                self._start_ticker()
            elif (
                self.heartbeat_interval > 0
                and kind not in ("heartbeat", "run_finished")
                and now - self._last_beat >= self.heartbeat_interval
            ):
                self._beat(now)
            return event

    def heartbeat(self):
        """Publish a heartbeat now (ticker thread / explicit pulse)."""
        with self._lock:
            if self._closed or self.progress.finished:
                return
            self._beat(self._clock())

    def _beat(self, now):
        from repro.obs.live.events import LiveEvent

        self._last_beat = now
        data = self.progress.snapshot()
        if self.progress.started_ts is not None:
            data["elapsed_seconds"] = now - self.progress.started_ts
        self._publish(LiveEvent(
            "heartbeat", self._next_seq(), now, self.run_id, data
        ))

    def _next_seq(self):
        self._seq += 1
        return self._seq

    def _publish(self, event):
        self.progress.observe(event)
        broken = None
        for sink in self._sinks:
            try:
                sink.handle(event)
            except Exception as exc:
                import sys

                print(
                    f"repro.obs.live: sink {type(sink).__name__} "
                    f"failed ({exc!r}); disabling it",
                    file=sys.stderr,
                )
                if broken is None:
                    broken = []
                broken.append(sink)
        if broken:
            for sink in broken:
                self._sinks.remove(sink)

    # -- heartbeat ticker ------------------------------------------------

    def _start_ticker(self):
        if self._ticker is not None:
            return

        def tick():
            while not self._ticker_stop.wait(self.heartbeat_interval):
                self.heartbeat()

        self._ticker = threading.Thread(
            target=tick, name="xfd-live-heartbeat", daemon=True
        )
        self._ticker.start()

    # -- lifecycle -------------------------------------------------------

    def flush(self):
        with self._lock:
            for sink in self._sinks:
                flush = getattr(sink, "flush", None)
                if flush is not None:
                    flush()

    def close(self):
        """Stop the ticker and close every sink.  Idempotent."""
        self._ticker_stop.set()
        ticker = self._ticker
        if ticker is not None:
            ticker.join(timeout=2.0)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for sink in self._sinks:
                close = getattr(sink, "close", None)
                if close is not None:
                    try:
                        close()
                    except Exception:
                        pass
            self._sinks = []
