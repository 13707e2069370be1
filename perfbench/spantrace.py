"""Outside-in layer trace: an in-memory span recorder whose wrappers
are patched over the public entry points of each ``repro`` layer.

Spans are recorded from the benchmark's own files, around the calls
into each layer; nothing under ``src/`` changes.  A wrapper is patched
where its callers look the name up: a method on its class, a function
imported by name into another module at that module.  Wrappers run in
the benchmark process only; a forked worker inherits them, but what it
records stays in the worker.
"""

from __future__ import annotations

import functools
import time

import repro.core.detector as detector_mod
import repro.core.frontend as frontend_mod
import repro.exec.worker as worker_mod
from repro.bugsuite.newbugs import PoolCreationWorkload
from repro.core.detector import XFDetector
from repro.core.frontend import Frontend
from repro.core.replay import TraceReplayer
from repro.core.shadow import ShadowPM
from repro.dedup.memo import ImageMemo
from repro.exec.pool import WarmProcessExecutor
from repro.pm.snapshot import SnapshotStore
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent")

    def __init__(self, sid, name, start, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent}


class SpanRecorder:
    """Spans (name, start, end, parent) and counters, kept in memory.

    Single-threaded: the open spans form a stack, and a new span's
    parent is the innermost open one.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result(recorder,
        args, result)`` may add counts from the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def reset(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def export(self):
        return {"spans": [span.to_dict() for span in self.spans],
                "counts": dict(self.counts)}


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """``{sid: self time}``: each span's duration minus the part of it
    its child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {
        span.sid: span.duration - _covered(children.get(span.sid, ()))
        for span in spans
    }


def total(spans, name, own=None):
    """Summed duration of the spans called ``name``, or their summed
    self time when ``own`` (a :func:`self_times` map) is given.  No
    wrapped entry point re-enters itself, so same-name spans never
    nest."""
    picked = [span for span in spans if span.name == name]
    if own is None:
        return sum(span.duration for span in picked)
    return sum(own[span.sid] for span in picked)


def calls(spans, name):
    """How many spans are called ``name``."""
    return sum(1 for span in spans if span.name == name)


def top_level(spans):
    return sum(span.duration for span in spans if span.parent is None)


# ----------------------------------------------------------------------
# The patched entry points
# ----------------------------------------------------------------------


def _count_post_events(rec, _args, outcome):
    rec.count("post.events", len(outcome.recorder))


def _count_replayed(rec, args, _result):
    rec.count("replay.events", len(args[1]))


#: (owners, attribute, span name, counter hook).  Each owner is a place
#: callers look the name up, and all get the same wrapper:
#: ``lower_trace`` is imported by name into the detector module, and
#: ``run_post_task`` into the frontend module; its home module is
#: patched too, so a pool still pickles it by reference.
ENTRY_POINTS = [
    ((XFDetector,), "run", "detect", None),
    ((Frontend,), "run", "frontend", None),
    ((XFDetector,), "analyze", "backend", None),
    ((SnapshotStore,), "capture", "snapshot.capture", None),
    ((frontend_mod, worker_mod), "run_post_task", "post.task",
     _count_post_events),
    ((ImageMemo,), "task_pools", "memo.restore", None),
    ((detector_mod,), "lower_trace", "replay.lower", None),
    ((TraceReplayer,), "run_program", "replay.run", _count_replayed),
    ((ShadowPM,), "checkpoint", "shadow.checkpoint", None),
    ((ShadowPM,), "fork_for_replay", "shadow.fork", None),
    ((WarmProcessExecutor,), "prewarm", "exec.prewarm", None),
    ((WarmProcessExecutor,), "run_phase", "exec.phase_wait", None),
    ((WarmProcessExecutor,), "close", "exec.close", None),
]

#: Workload stages, wrapped on every class that defines them.
STAGES = (("setup", "workload.setup"),
          ("pre_failure", "workload.pre_failure"),
          ("post_failure", "workload.post_failure"))

WORKLOAD_CLASSES = (Workload, PoolCreationWorkload,
                    *ALL_WORKLOADS.values())


class Tracer:
    """Installs the wrappers (``with Tracer(recorder):``) and restores
    every original on exit."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def _patch(self, owners, attr, name, hook):
        original = owners[0].__dict__[attr]
        wrapper = self.recorder.wrap(name, original, hook)
        for owner in owners:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} differs")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def __enter__(self):
        for owners, attr, name, hook in ENTRY_POINTS:
            self._patch(owners, attr, name, hook)
        for cls in dict.fromkeys(WORKLOAD_CLASSES):
            for attr, name in STAGES:
                if attr in cls.__dict__:
                    self._patch((cls,), attr, name, None)
        return self.recorder

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
