"""Backend trace replay and bug detection (paper Section 5.4).

The backend replays the pre-failure trace once, updating the shadow PM
event by event.  At each ``FAILURE_POINT`` marker it checkpoints the
shadow, and each post-failure trace is replayed against a fork of its
marker's checkpoint, classifying every post-failure read:

1. reads inside library internals or skip-detection regions — skipped;
2. reads of bytes (over)written during the post-failure stage — clean;
3. reads of a registered commit variable — *benign* cross-failure race;
4. reads of allocated-but-never-initialized bytes — cross-failure race;
5. reads of modified / writeback-pending bytes — **cross-failure race**
   (Eq. 1: the write was not guaranteed persisted before the failure);
6. reads of persisted but uncommitted/stale bytes — **cross-failure
   semantic bug** (Eq. 3);
7. everything else — clean.

During the pre-failure replay the backend also reports performance
bugs: redundant writebacks (Figure 9's yellow edges) and duplicated
``TX_ADD`` of an already-added range.

Traces are pre-lowered once by :func:`lower_trace` into *compiled
replay programs* — flat tuples of ``(kind_code, addr, size, info, ip,
tid)`` scalars — and executed by :meth:`TraceReplayer.run_program`,
which dispatches each instruction through a per-instance handler table
indexed by the integer kind code.  No event objects, enum hashing, or
attribute loads per replayed operation; this is the only replay
interface.
"""

from __future__ import annotations

from repro._rangemap import RangeMap
from repro.core.report import Bug, BugKind
from repro.core.shadow import ConsistencyState, PersistenceState
from repro.pm.cacheline import FlushKind
from repro.trace.events import KIND_BY_CODE, KIND_CODE, EventKind

_CLFLUSH_INFO = FlushKind.CLFLUSH.value


class StopAnalysis(Exception):
    """Internal: raised to unwind when ``fail_fast`` found a bug."""


class _ThreadReplayState:
    """Per-thread replay state (library depth, active transaction)."""

    __slots__ = ("lib_depth", "skip_depth", "tx_active", "tx_added",
                 "tx_writes")

    def __init__(self):
        self.lib_depth = 0
        self.skip_depth = 0
        self.tx_active = False
        self.tx_added = []
        self.tx_writes = []

    def reset_tx(self):
        self.tx_active = False
        self.tx_added = []
        self.tx_writes = []


def lower_trace(source):
    """Compile a trace into a replay program (a list of instruction
    tuples ``(kind_code, addr, size, info, ip, tid)``).

    ``source`` is either a :class:`~repro.trace.recorder.TraceRecorder`
    — whose columns are zipped directly, never materializing events —
    or any iterable of :class:`~repro.trace.events.TraceEvent`.
    Instructions map 1:1 to trace rows, so a program can be sliced by
    trace index exactly like the event list it replaces.
    """
    columns = getattr(source, "columns", None)
    if columns is not None:
        kinds, addrs, sizes, tids, infos, ips = columns()
        return list(zip(kinds, addrs, sizes, infos, ips, tids))
    return [
        (KIND_CODE[event.kind], event.addr, event.size, event.info,
         event.ip, event.tid)
        for event in source
    ]


class TraceReplayer:
    """Replays one trace stream against a shadow PM."""

    def __init__(self, shadow, config, stage, report,
                 failure_point=None, has_roi=False, metrics=None):
        self.shadow = shadow
        self.config = config
        self.stage = stage  # "pre" or "post"
        self.report = report
        self.failure_point = failure_point
        #: Optional ``repro.obs.MetricsRegistry``: counts replayed
        #: events, checked reads, and reported bugs per kind.
        self.metrics = metrics
        # When the trace contains RoI markers, detection is confined to
        # the marked regions; otherwise the whole trace is of interest.
        self.roi_active = not has_roi
        self._is_pre = stage == "pre"
        self._is_post = stage == "post"
        # Per-thread replay state (events carry a tid, Section 7):
        # library/skip-region depths and the active transaction with
        # its added ranges and its writes.  Non-added transaction
        # writes become consistent at commit — the transaction is over
        # and the data is the program's final intent; only a failure
        # *mid* transaction leaves them semantically inconsistent.
        # Their persistence state is untouched: an unflushed write
        # stays a cross-failure race, which is exactly how the paper
        # classifies Figure 1's `length`.
        self._threads = {}
        # First-read-only optimization state (post stage).
        self._checked = RangeMap(False)
        # Config is immutable per run; snapshot the per-read flag.
        self._first_read_only = config.first_read_only
        # Instruction dispatch table, indexed by kind code.
        handlers = [self._op_nop] * len(KIND_BY_CODE)
        handlers[KIND_CODE[EventKind.STORE]] = self._op_store
        handlers[KIND_CODE[EventKind.NT_STORE]] = self._op_nt_store
        handlers[KIND_CODE[EventKind.LOAD]] = self._op_load
        handlers[KIND_CODE[EventKind.FLUSH]] = self._op_flush
        handlers[KIND_CODE[EventKind.FENCE]] = self._op_fence
        handlers[KIND_CODE[EventKind.TX_BEGIN]] = self._op_tx_begin
        handlers[KIND_CODE[EventKind.TX_ADD]] = self._op_tx_add
        handlers[KIND_CODE[EventKind.TX_COMMIT]] = self._op_tx_commit
        handlers[KIND_CODE[EventKind.TX_ABORT]] = self._op_tx_abort
        handlers[KIND_CODE[EventKind.ALLOC]] = self._op_alloc
        handlers[KIND_CODE[EventKind.FREE]] = self._op_free
        handlers[KIND_CODE[EventKind.LIB_BEGIN]] = self._op_lib_begin
        handlers[KIND_CODE[EventKind.LIB_END]] = self._op_lib_end
        handlers[KIND_CODE[EventKind.SKIP_DET_BEGIN]] = \
            self._op_skip_begin
        handlers[KIND_CODE[EventKind.SKIP_DET_END]] = self._op_skip_end
        handlers[KIND_CODE[EventKind.ROI_BEGIN]] = self._op_roi_begin
        handlers[KIND_CODE[EventKind.ROI_END]] = self._op_roi_end
        handlers[KIND_CODE[EventKind.COMMIT_VAR]] = self._op_commit_var
        handlers[KIND_CODE[EventKind.COMMIT_RANGE]] = \
            self._op_commit_range
        self._dispatch = tuple(handlers)

    def _thread(self, tid):
        state = self._threads.get(tid)
        if state is None:
            state = _ThreadReplayState()
            self._threads[tid] = state
        return state

    # ------------------------------------------------------------------

    def _suppressed(self, tid):
        """Checks suppressed for this thread: outside the RoI, inside
        library internals, or inside a skip-detection region."""
        state = self._thread(tid)
        return (
            not self.roi_active
            or state.lib_depth > 0
            or state.skip_depth > 0
        )

    def _bug(self, kind, detail, addr=0, size=0, reader_ip=None,
             writer_ip=None):
        from repro._location import UNKNOWN_LOCATION

        bug = Bug(
            kind=kind,
            detail=detail,
            address=addr,
            size=size,
            failure_point=self.failure_point,
            reader_ip=reader_ip or UNKNOWN_LOCATION,
            writer_ip=writer_ip or UNKNOWN_LOCATION,
        )
        self.report.bugs.append(bug)
        if self.metrics is not None:
            self.metrics.inc("bugs_reported_total")
            self.metrics.inc(f"bugs_reported.{kind.name.lower()}")
        if self.config.fail_fast and kind in (
            BugKind.CROSS_FAILURE_RACE,
            BugKind.CROSS_FAILURE_SEMANTIC,
        ):
            raise StopAnalysis()

    # ------------------------------------------------------------------
    # Instruction dispatch
    # ------------------------------------------------------------------

    def run_program(self, program, deadline=None):
        """Execute a compiled replay program (see :func:`lower_trace`).

        This is the backend's hot loop: one tuple unpack and one table
        dispatch per instruction."""
        dispatch = self._dispatch
        if deadline is None:
            for code, addr, size, info, ip, tid in program:
                dispatch[code](addr, size, info, ip, tid)
        else:
            for code, addr, size, info, ip, tid in program:
                deadline.tick()
                dispatch[code](addr, size, info, ip, tid)

    # -- instruction handlers ------------------------------------------

    def _op_nop(self, addr, size, info, ip, tid):
        # FAILURE_POINT / HINT_FAILURE_POINT markers carry no state.
        return

    def _op_store(self, addr, size, info, ip, tid):
        thread = self._threads.get(tid)
        if thread is None:
            thread = self._thread(tid)
        if thread.tx_active:
            thread.tx_writes.append((addr, size))
        self.shadow.record_store(
            addr, size, ip, self.stage, thread.tx_added,
            thread.tx_active,
        )

    def _op_nt_store(self, addr, size, info, ip, tid):
        thread = self._threads.get(tid)
        if thread is None:
            thread = self._thread(tid)
        if thread.tx_active:
            thread.tx_writes.append((addr, size))
        self.shadow.record_nt_store(
            addr, size, ip, self.stage, thread.tx_added,
            thread.tx_active,
        )

    def _op_load(self, addr, size, info, ip, tid):
        if self._is_post:
            self._check_read(addr, size, ip, tid)

    def _op_flush(self, addr, size, info, ip, tid):
        # Post-failure flushes must not upgrade pre-failure data to
        # "persisted": the value they write back came from the
        # crash image, so the read classification has to reflect
        # the state *at the failure* (post-failure writes are
        # already exempt through post_written).
        if not self._is_pre:
            return
        if info == _CLFLUSH_INFO:
            useful = self.shadow.record_clflush(addr, ip=ip)
        else:
            useful = self.shadow.record_flush(addr, ip=ip)
        if (
            not useful
            and not self._suppressed(tid)
            and self.config.report_perf_bugs
        ):
            self._bug(
                BugKind.PERFORMANCE,
                "redundant writeback (line already clean or pending)",
                addr=addr,
                size=size,
                reader_ip=ip,
            )

    def _op_fence(self, addr, size, info, ip, tid):
        if self._is_pre:
            self.shadow.record_fence(ip=ip)

    def _op_tx_begin(self, addr, size, info, ip, tid):
        thread = self._thread(tid)
        thread.tx_active = True
        thread.tx_added = []
        thread.tx_writes = []

    def _op_tx_add(self, addr, size, info, ip, tid):
        thread = self._thread(tid)
        duplicate = _covered(addr, size, thread.tx_added)
        if (
            duplicate
            and self._is_pre
            and not self._suppressed(tid)
            and self.config.report_perf_bugs
        ):
            self._bug(
                BugKind.PERFORMANCE,
                "duplicate TX_ADD of an already-added range",
                addr=addr,
                size=size,
                reader_ip=ip,
            )
        thread.tx_added.append((addr, size))
        self.shadow.record_tx_add(addr, size, ip)

    def _op_tx_commit(self, addr, size, info, ip, tid):
        thread = self._thread(tid)
        if self._is_pre:
            self.shadow.commit_tx_writes(thread.tx_writes)
        thread.reset_tx()

    def _op_tx_abort(self, addr, size, info, ip, tid):
        # Aborted transactions leave their non-added side effects
        # semantically inconsistent on purpose.
        self._thread(tid).reset_tx()

    def _op_alloc(self, addr, size, info, ip, tid):
        self.shadow.record_alloc(
            addr, size, info == "zeroed", self.stage,
            self.config.trust_allocator_zeroing,
        )

    def _op_free(self, addr, size, info, ip, tid):
        self.shadow.record_free(addr, size)

    def _op_lib_begin(self, addr, size, info, ip, tid):
        self._thread(tid).lib_depth += 1

    def _op_lib_end(self, addr, size, info, ip, tid):
        self._thread(tid).lib_depth -= 1

    def _op_skip_begin(self, addr, size, info, ip, tid):
        self._thread(tid).skip_depth += 1

    def _op_skip_end(self, addr, size, info, ip, tid):
        self._thread(tid).skip_depth -= 1

    def _op_roi_begin(self, addr, size, info, ip, tid):
        self.roi_active = True

    def _op_roi_end(self, addr, size, info, ip, tid):
        self.roi_active = False

    def _op_commit_var(self, addr, size, info, ip, tid):
        self.shadow.register_commit_var(info, addr, size)

    def _op_commit_range(self, addr, size, info, ip, tid):
        self.shadow.register_commit_range(info, addr, size)

    # ------------------------------------------------------------------
    # Post-failure read classification
    # ------------------------------------------------------------------

    def _check_read(self, addr, size, ip, tid):
        # Inlined self._suppressed(tid): this runs once per post-failure
        # load, the hottest check in the backend.
        state = self._threads.get(tid)
        if state is None:
            state = self._thread(tid)
        if not self.roi_active or state.lib_depth > 0 \
                or state.skip_depth > 0:
            return
        if self.metrics is not None:
            self.metrics.inc("post_reads_checked")
        start, end = addr, addr + size
        shadow = self.shadow

        if shadow.commit_vars:
            benign_var = shadow.commit_var_covering(start, end)
            if benign_var is not None and \
                    benign_var.var_range.contains_range(
                        _as_range(start, end)
                    ):
                # Reading the commit variable itself: benign race.
                self.report.stats.benign_races += 1
                return

        first_read_only = self._first_read_only
        checked = self._checked
        if first_read_only and checked.covers_range_with(start, end, True):
            # Every byte was classified on its first read already;
            # nothing to mark or re-check (recovery re-reads the same
            # words constantly, so this is the common case).
            return
        for seg_start, seg_end, already in list(
            checked.iter_with_gaps(start, end)
        ):
            if first_read_only and already:
                continue
            checked.set(seg_start, seg_end, True)
            self._classify_segment(seg_start, seg_end, ip)

    def _classify_segment(self, start, end, reader_ip):
        shadow = self.shadow
        have_vars = bool(shadow.commit_vars)
        for s, e, written in shadow.post_written.iter_with_gaps(
            start, end
        ):
            if written:
                continue
            # Commit-variable bytes inside a larger read are benign.
            if have_vars:
                var = shadow.commit_var_covering(s, e)
                if var is not None:
                    self.report.stats.benign_races += 1
                    for sub_s, sub_e in _outside(s, e, var.var_range):
                        self._classify_plain(sub_s, sub_e, reader_ip)
                    continue
            self._classify_plain(s, e, reader_ip)

    def _classify_plain(self, start, end, reader_ip):
        shadow = self.shadow
        for s, e, uninit in shadow.uninitialized.iter_with_gaps(
            start, end
        ):
            if uninit:
                self._bug(
                    BugKind.CROSS_FAILURE_RACE,
                    "read of allocated but never-initialized PM",
                    addr=s,
                    size=e - s,
                    reader_ip=reader_ip,
                    writer_ip=shadow.writer.get(s),
                )
                continue
            self._classify_states(s, e, reader_ip)

    def _classify_states(self, start, end, reader_ip):
        shadow = self.shadow
        for s, e, pstate in shadow.persistence.iter_with_gaps(
            start, end
        ):
            if pstate in (
                PersistenceState.MODIFIED,
                PersistenceState.WRITEBACK_PENDING,
            ):
                self._bug(
                    BugKind.CROSS_FAILURE_RACE,
                    "read of data not guaranteed persisted before the "
                    "failure",
                    addr=s,
                    size=e - s,
                    reader_ip=reader_ip,
                    writer_ip=shadow.writer.get(s),
                )
                continue
            for cs, ce, cstate in shadow.consistency.iter_with_gaps(
                s, e
            ):
                if cstate in (
                    ConsistencyState.UNCOMMITTED,
                    ConsistencyState.STALE,
                ):
                    self._bug(
                        BugKind.CROSS_FAILURE_SEMANTIC,
                        f"read of semantically inconsistent data "
                        f"({cstate.value})",
                        addr=cs,
                        size=ce - cs,
                        reader_ip=reader_ip,
                        writer_ip=shadow.writer.get(cs),
                    )


def _covered(addr, size, ranges):
    """Is [addr, addr+size) fully covered by the (addr, size) ranges?"""
    from repro.core.shadow import _covered_by

    return bool(ranges) and _covered_by(addr, addr + size, ranges)


def _as_range(start, end):
    from repro.pm.address import AddressRange

    return AddressRange(start, end - start)


def _outside(start, end, hole):
    from repro.core.shadow import _subtract

    yield from _subtract(start, end, hole)
