"""Reference shadow-PM state machine and backend (testing oracles).

:class:`ReferenceShadowPM` is the straight-line Figure 9 / Figure 10
implementation as it stood *before* the fast-path work in
:mod:`repro.core.shadow` (store coalescing, slotted classes, memoized
lookups).  ``tests/unit/test_shadow_property.py`` drives random
store/flush/fence/transaction sequences through both implementations
and asserts byte-identical persistence and consistency verdicts.

:func:`reference_bugs` is the paper's interleaved backend schedule
over that shadow, with none of the detector's machinery (checkpoints,
executors, memo, telemetry); the detector's bug lists must equal it.

Only tests and ``benchmarks/bench_hotpath.py`` use it, so it lives
under ``tests/`` rather than in the package.  Keep this module
boring.  Optimizations belong in :mod:`repro.core.shadow`; any
semantic change to the FSM must land in **both** files (the property
test will catch a divergence either way).
"""

from __future__ import annotations

import copy

from repro._rangemap import RangeMap
from repro.pm.address import AddressRange
from repro.pm.cacheline import LineState, PlatformMode
from repro.pm.constants import CACHE_LINE_SIZE

from repro.core.shadow import (
    CommitVariable,
    ConsistencyState,
    _covered_by,
    _subtract,
)

PersistenceState = LineState


class ReferenceShadowPM:
    """Per-byte shadow state, unoptimized (no coalescing, no memos)."""

    def __init__(self, platform=PlatformMode.ADR):
        self.platform = platform
        self.persistence = RangeMap(PersistenceState.UNMODIFIED)
        self.consistency = RangeMap(ConsistencyState.CONSISTENT)
        self.tlast = RangeMap(None)
        self.writer = RangeMap(None)
        self.uninitialized = RangeMap(False)
        self.post_written = RangeMap(False)
        self.commit_vars = {}
        self.epoch = 0
        self._pending_lines = set()
        self._stores_since_fence = False

    # -- commit variables ----------------------------------------------

    def register_commit_var(self, name, start, size):
        self.commit_vars[name] = CommitVariable(
            name, AddressRange(start, size)
        )

    def register_commit_range(self, name, start, size):
        var = self.commit_vars.get(name)
        if var is None:
            raise KeyError(f"commit variable {name!r} not registered")
        var.members.append(AddressRange(start, size))

    def commit_var_covering(self, start, end):
        probe = AddressRange(start, end - start)
        for var in self.commit_vars.values():
            if var.var_range.overlaps(probe):
                return var
        return None

    # -- pre-failure state transitions ---------------------------------

    def record_store(self, addr, size, ip, stage, tx_added=None,
                     in_tx=False, _op="STORE"):
        end = addr + size
        if self.platform is PlatformMode.EADR:
            self.persistence.set(addr, end, PersistenceState.PERSISTED)
            self._stores_since_fence = True
        else:
            self.persistence.set(addr, end, PersistenceState.MODIFIED)
        self.tlast.set(addr, end, self.epoch)
        self.writer.set(addr, end, ip)
        self.uninitialized.set(addr, end, False)

        if stage == "post":
            self.consistency.set(addr, end, ConsistencyState.CONSISTENT)
            self.post_written.set(addr, end, True)
            return

        committing = self.commit_var_covering(addr, end)
        if committing is not None:
            self._apply_commit_write(committing)
            self.consistency.set(addr, end, ConsistencyState.CONSISTENT)
            return

        if in_tx and tx_added and _covered_by(addr, end, tx_added):
            self.consistency.set(addr, end, ConsistencyState.CONSISTENT)
            return

        if in_tx or self._member_of_any_commit_var(addr, end):
            self.consistency.set(addr, end, ConsistencyState.UNCOMMITTED)

    def record_nt_store(self, addr, size, ip, stage, tx_added=None,
                        in_tx=False):
        self.record_store(
            addr, size, ip, stage, tx_added, in_tx, _op="NT_STORE"
        )
        if self.platform is PlatformMode.EADR:
            return
        self.persistence.set(
            addr, addr + size, PersistenceState.WRITEBACK_PENDING
        )
        for line in AddressRange(addr, size).lines():
            self._pending_lines.add(line)

    def record_flush(self, line_addr, ip=None):
        if self.platform is PlatformMode.EADR:
            return False
        start = line_addr
        end = line_addr + CACHE_LINE_SIZE
        useful = False
        for s, e, state in list(self.persistence.iter_ranges(start, end)):
            if state is PersistenceState.MODIFIED:
                self.persistence.set(
                    s, e, PersistenceState.WRITEBACK_PENDING
                )
                useful = True
        if useful:
            self._pending_lines.add(line_addr)
        return useful

    def record_clflush(self, line_addr, ip=None):
        if self.platform is PlatformMode.EADR:
            return False
        start = line_addr
        end = line_addr + CACHE_LINE_SIZE
        useful = False
        for s, e, state in list(self.persistence.iter_ranges(start, end)):
            if state in (
                PersistenceState.MODIFIED,
                PersistenceState.WRITEBACK_PENDING,
            ):
                self.persistence.set(s, e, PersistenceState.PERSISTED)
                useful = True
        self._pending_lines.discard(line_addr)
        if useful:
            self.epoch += 1
        return useful

    def record_fence(self, ip=None):
        if self.platform is PlatformMode.EADR:
            ordered = self._stores_since_fence
            self._stores_since_fence = False
            if ordered:
                self.epoch += 1
            return ordered
        completed = False
        for line in sorted(self._pending_lines):
            start, end = line, line + CACHE_LINE_SIZE
            for s, e, state in list(
                self.persistence.iter_ranges(start, end)
            ):
                if state is PersistenceState.WRITEBACK_PENDING:
                    self.persistence.set(
                        s, e, PersistenceState.PERSISTED
                    )
                    completed = True
        self._pending_lines.clear()
        if completed:
            self.epoch += 1
        return completed

    def record_tx_add(self, addr, size, ip):
        end = addr + size
        self.persistence.set(addr, end, PersistenceState.PERSISTED)
        self.consistency.set(addr, end, ConsistencyState.CONSISTENT)
        self.tlast.set(addr, end, self.epoch)
        self.writer.set(addr, end, ip)
        self.uninitialized.set(addr, end, False)

    def record_alloc(self, addr, size, zeroed, stage,
                     trust_allocator_zeroing):
        end = addr + size
        self.persistence.set(addr, end, PersistenceState.PERSISTED)
        self.consistency.set(addr, end, ConsistencyState.CONSISTENT)
        self.tlast.set(addr, end, self.epoch)
        if stage == "post":
            self.post_written.set(addr, end, True)
            self.uninitialized.set(addr, end, False)
        else:
            self.uninitialized.set(
                addr, end, not (zeroed and trust_allocator_zeroing)
            )

    def commit_tx_writes(self, ranges):
        for addr, size in ranges:
            for s, e, state in list(
                self.consistency.iter_ranges(addr, addr + size)
            ):
                if state is ConsistencyState.UNCOMMITTED:
                    self.consistency.set(
                        s, e, ConsistencyState.CONSISTENT
                    )

    def record_free(self, addr, size):
        end = addr + size
        self.persistence.set(addr, end, PersistenceState.PERSISTED)
        self.consistency.set(addr, end, ConsistencyState.CONSISTENT)
        self.uninitialized.set(addr, end, True)

    # -- commit-write rule (Eq. 3 via epochs) ---------------------------

    def _apply_commit_write(self, var):
        now = self.epoch
        prev = var.last_commit_epoch
        lower = prev if prev is not None else -1
        covers_all = len(self.commit_vars) == 1
        for win_start, win_end in var.member_windows(
            self.tlast, covers_all
        ):
            for s, e in _subtract(win_start, win_end, var.var_range):
                self._commit_window(s, e, lower, now)
        var.prev_commit_epoch = var.last_commit_epoch
        var.last_commit_epoch = now

    def _commit_window(self, start, end, lower, now):
        for s, e, t in list(self.tlast.iter_ranges(start, end)):
            if t is None:
                continue
            if lower < t < now:
                self.consistency.set(s, e, ConsistencyState.CONSISTENT)
            elif t <= lower:
                for cs, ce, state in list(
                    self.consistency.iter_ranges(s, e)
                ):
                    if state is ConsistencyState.CONSISTENT:
                        self.consistency.set(
                            cs, ce, ConsistencyState.STALE
                        )

    def _member_of_any_commit_var(self, start, end):
        covers_all = len(self.commit_vars) == 1
        return any(
            var.covers_member(start, end, covers_all)
            for var in self.commit_vars.values()
        )

    # -- introspection --------------------------------------------------

    def persistence_at(self, addr):
        return self.persistence.get(addr)

    def consistency_at(self, addr):
        return self.consistency.get(addr)


def reference_bugs(frontend_result, config):
    """The bug list of the interleaved backend schedule (Section 5.4).

    Replays the pre-failure trace into a :class:`ReferenceShadowPM`;
    at each ``FAILURE_POINT`` marker, forks the shadow and replays that
    point's post-failure runs (base run first, then variants) against
    the fork, in place.  ``fail_fast`` stops everything at the first
    cross-failure bug.
    """
    from repro.core.detector import crash_bug
    from repro.core.replay import StopAnalysis, TraceReplayer, lower_trace
    from repro.core.report import DetectionReport
    from repro.trace.events import KIND_CODE, EventKind

    marker = KIND_CODE[EventKind.FAILURE_POINT]
    roi = KIND_CODE[EventKind.ROI_BEGIN]
    report = DetectionReport()

    def replayer(shadow, program, stage, fid=None):
        has_roi = any(instr[0] == roi for instr in program)
        return TraceReplayer(shadow, config, stage, report,
                             failure_point=fid, has_roi=has_roi)

    runs_at = {}
    for run in sorted(frontend_result.post_runs, key=lambda run: (
            run.failure_point.fid, run.variant is not None,
            run.variant or 0)):
        runs_at.setdefault(run.failure_point.fid, []).append(run)
    shadow = ReferenceShadowPM(config.platform)
    pre_program = lower_trace(frontend_result.pre_recorder)
    pre = replayer(shadow, pre_program, "pre")
    try:
        for instr in pre_program:
            if instr[0] == marker:
                for run in runs_at.get(int(instr[3]), ()):
                    program = lower_trace(run.recorder)
                    replayer(copy.deepcopy(shadow), program, "post",
                             run.failure_point.fid).run_program(program)
                    if run.crash is not None:
                        report.bugs.append(crash_bug(run))
            pre.run_program((instr,))
    except StopAnalysis:
        pass
    return report.bugs
