"""Volatile-cache persistence model (paper Figure 9).

The model tracks, per 64-byte cache line, how far its most recent
contents have progressed toward persistence:

* ``UNMODIFIED`` — line holds no un-persisted store;
* ``MODIFIED`` — stored to, still only in the volatile cache;
* ``WRITEBACK_PENDING`` — a ``CLWB``/``CLFLUSHOPT`` (or non-temporal
  store) queued the line for writeback, but no fence has drained it yet;
* ``PERSISTED`` — a fence (or synchronous ``CLFLUSH``) completed the
  writeback; the line's contents are on the PM media.

The runtime uses the model for two purposes.  First, it mirrors the
"guaranteed persisted" media contents so that strict crash images
(:class:`~repro.pm.image.CrashImageMode`) can be produced.  Second, it
reports *redundant* writebacks and fences — the yellow edges of Figure 9
— which the detector surfaces as performance bugs.
"""

from __future__ import annotations

import enum

from repro.pm.address import AddressRange, line_of
from repro.pm.constants import CACHE_LINE_SIZE


class LineState(enum.Enum):
    """Persistence state of one cache line (Figure 9)."""

    UNMODIFIED = "U"
    MODIFIED = "M"
    WRITEBACK_PENDING = "W"
    PERSISTED = "P"


#: States whose line a crash may independently keep or lose.
_VOLATILE_STATES = frozenset(
    (LineState.MODIFIED, LineState.WRITEBACK_PENDING)
)

_ZERO_LINE = bytes(CACHE_LINE_SIZE)


class PlatformMode(enum.Enum):
    """Persistence domain of the platform.

    ``ADR`` (the paper's platform): the persistence domain covers the
    memory controller only — cached stores are volatile until an
    explicit writeback completes (Figure 9).

    ``EADR`` (extended ADR, available on later Intel platforms): the
    CPU caches are inside the persistence domain, so every store is
    durable the moment it retires; flushes are unnecessary (and
    reported as performance bugs), and a fence is an ordering point
    when it orders at least one prior store.  Cross-failure *races*
    cannot occur on eADR — cross-failure *semantic* bugs still can,
    which the ablation bench demonstrates.
    """

    ADR = "adr"
    EADR = "eadr"


class FlushKind(enum.Enum):
    """Flavours of x86 cache writeback instructions.

    ``CLWB`` and ``CLFLUSHOPT`` are asynchronous: the line only reaches
    the media once a subsequent ``SFENCE`` drains it.  ``CLFLUSH`` is
    serialized with respect to itself and treated here as synchronous.
    """

    CLWB = "CLWB"
    CLFLUSHOPT = "CLFLUSHOPT"
    CLFLUSH = "CLFLUSH"


class FenceKind(enum.Enum):
    """Flavours of ordering fences.

    All three drain pending writebacks in this model; they differ only in
    what *volatile* ordering they also imply, which is irrelevant to
    persistence and so not modelled further.
    """

    SFENCE = "SFENCE"
    MFENCE = "MFENCE"
    DRAIN = "DRAIN"  # PMDK pmem_drain()


class CacheModel:
    """Per-line persistence state machine over a PM pool.

    ``media`` is the byte image that is *guaranteed* to have reached the
    PM media (i.e. survives any failure), updated when lines complete
    their writeback.  The caller owns the "program view" byte image; this
    class reads line contents from it through ``read_line`` on demand.
    """

    def __init__(self, read_line, platform=PlatformMode.ADR):
        """``read_line(line_base) -> bytes`` returns the current program-
        view contents of one cache line."""
        self._read_line = read_line
        self.platform = platform
        self._states = {}  # line base -> LineState
        self._media = {}  # line base -> bytes (last persisted contents)
        # Lines queued for writeback since the last completed fence;
        # lets the fence know whether it completed any writeback (=
        # ordering point).  A later store can move a queued line back
        # to MODIFIED without removing it, so the fence re-checks.
        self._pending = set()
        # Lines in a _VOLATILE_STATES state, kept as the states change
        # so a capture reads them without scanning every tracked line.
        self._volatile = set()
        # eADR: stores since the last fence (a fence ordering at least
        # one store is an ordering point there).
        self._stores_since_fence = False
        # Lines whose crash-image contents (program view, media, or
        # state) may have changed since the last drain.  The delta
        # snapshot store drains this at each failure point so snapshots
        # record O(dirty) lines instead of O(pool).
        self._touched = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def state_of(self, address):
        """Persistence state of the line containing ``address``."""
        return self._states.get(line_of(address), LineState.UNMODIFIED)

    def line_states(self):
        """Copy of every tracked line's state.  For tests only: it is
        O(tracked lines), so library code reads
        :meth:`volatile_lines` instead."""
        return dict(self._states)

    def volatile_lines(self):
        """The lines currently MODIFIED or WRITEBACK_PENDING (a live
        set: do not mutate)."""
        return self._volatile

    def persisted_line(self, line_base):
        """Last persisted contents of a line, or None if it was never
        explicitly persisted through this model."""
        return self._media.get(line_base)

    def has_pending_writebacks(self):
        return bool(self._pending)

    def drain_touched(self):
        """Lines dirtied since the previous drain (and forget them).

        A line is *touched* whenever its program-view bytes, persisted
        media, or FSM state changed — i.e. whenever a crash image taken
        now could differ from one taken at the previous drain for that
        line.  Consumed by :class:`repro.pm.snapshot.SnapshotStore`.
        """
        touched = self._touched
        self._touched = set()
        return touched

    def is_ordering_fence(self):
        """Would a fence issued now be an ordering point?  On ADR: yes
        iff a writeback is pending.  On eADR: yes iff it orders at
        least one store since the previous fence."""
        if self.platform is PlatformMode.EADR:
            return self._stores_since_fence
        return bool(self._pending)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def store(self, address, size):
        """A store touched ``[address, address+size)``."""
        if self.platform is PlatformMode.EADR:
            # Caches are persistent: the store is durable on retire.
            self._stores_since_fence = True
            for line in AddressRange(address, size).lines():
                self._media[line] = bytes(self._read_line(line))
                self._states[line] = LineState.PERSISTED
                self._volatile.discard(line)
                self._touched.add(line)
            return
        for line in AddressRange(address, size).lines():
            self._states[line] = LineState.MODIFIED
            self._volatile.add(line)
            self._touched.add(line)

    def nt_store(self, address, size):
        """A non-temporal store: bypasses the cache into the write-
        combining buffer, so the line is immediately writeback-pending
        and only requires a fence to persist."""
        if self.platform is PlatformMode.EADR:
            self.store(address, size)
            return
        for line in AddressRange(address, size).lines():
            self._states[line] = LineState.WRITEBACK_PENDING
            self._pending.add(line)
            self._volatile.add(line)
            self._touched.add(line)

    def flush(self, address, kind=FlushKind.CLWB):
        """A writeback instruction on the line containing ``address``.

        Returns True if the flush was *useful* (the line held modified
        data) and False if it was redundant — Figure 9's yellow edges,
        reported by the detector as a performance bug.
        """
        line = line_of(address)
        state = self._states.get(line, LineState.UNMODIFIED)
        if kind is FlushKind.CLFLUSH:
            # Synchronous: contents reach the media immediately.
            useful = state is LineState.MODIFIED
            if state in (LineState.MODIFIED, LineState.WRITEBACK_PENDING):
                self._media[line] = bytes(self._read_line(line))
                self._states[line] = LineState.PERSISTED
                self._pending.discard(line)
                self._volatile.discard(line)
                self._touched.add(line)
            return useful
        if state is LineState.MODIFIED:
            self._states[line] = LineState.WRITEBACK_PENDING
            self._pending.add(line)
            self._touched.add(line)
            return True
        # UNMODIFIED, WRITEBACK_PENDING or PERSISTED: redundant flush.
        return False

    def fence(self, kind=FenceKind.SFENCE):
        """An ordering fence: complete every pending writeback.

        Returns the sorted line base addresses whose writeback this
        fence completed.  A non-empty list makes this fence an *ordering
        point* in the detector's sense (paper Section 4.2).
        """
        self._stores_since_fence = False
        completed = []
        states = self._states
        for line in self._pending:
            if states.get(line) is LineState.WRITEBACK_PENDING:
                self._media[line] = bytes(self._read_line(line))
                states[line] = LineState.PERSISTED
                self._volatile.discard(line)
                completed.append(line)
                self._touched.add(line)
        self._pending.clear()
        completed.sort()
        return completed

    # ------------------------------------------------------------------
    # Snapshots (for failure points)
    # ------------------------------------------------------------------

    def snapshot(self):
        """Cheap copyable snapshot of the model state."""
        return (
            dict(self._states), dict(self._media), set(self._pending),
            self._stores_since_fence,
        )

    def restore(self, snap):
        states, media, pending, stores_since_fence = snap
        # Anything tracked before or after the restore may now differ
        # from the last drained delta — mark it all touched.
        self._touched.update(self._states)
        self._touched.update(self._media)
        self._states = dict(states)
        self._media = dict(media)
        self._pending = set(pending)
        self._volatile = {
            line for line, state in self._states.items()
            if state in _VOLATILE_STATES
        }
        self._stores_since_fence = stores_since_fence
        self._touched.update(self._states)
        self._touched.update(self._media)

    def _crash_line(self, line):
        """What a crash leaves on ``line`` where that differs from the
        program view: its last persisted contents, zero-fill for a
        volatile line never persisted, or None (keep the program
        view)."""
        state = self._states.get(line)
        if state is None or state is LineState.UNMODIFIED:
            return None
        media = self._media.get(line)
        if media is None and state is not LineState.PERSISTED:
            return _ZERO_LINE
        return media

    def persisted_only_overlay(self, base, size, current):
        """Build the strict crash contents for ``[base, base+size)``.

        ``current`` is the program-view bytes for that window.  Bytes on
        lines that have been explicitly persisted take their last
        persisted value; bytes on MODIFIED / WRITEBACK_PENDING lines
        revert to the last persisted value of that line if any, otherwise
        to zero (never-persisted media reads as zero-fill, matching a
        freshly created pool file).  UNMODIFIED lines keep their current
        contents — nothing volatile is outstanding for them.
        """
        end = base + size
        if line_of(base) == base and size <= CACHE_LINE_SIZE:
            # One line (a delta capture): a single lookup.
            media = self._crash_line(base)
            return bytes(current) if media is None else media[:size]
        # Only tracked lines can differ from the program view.  Splice
        # the window from slices of ``current`` and the reverted lines,
        # in address order: one copy of the window, however many lines
        # revert.
        view = memoryview(current)
        pieces = []
        done = 0  # window offset the pieces cover so far
        for line in sorted(self._states):
            media = self._crash_line(line)
            if media is None:
                continue
            start = max(line, base)
            stop = min(line + CACHE_LINE_SIZE, end)
            if start >= stop:
                continue
            pieces.append(view[done:start - base])
            pieces.append(media[start - line:stop - line])
            done = stop - base
        if not pieces:
            return bytes(current)
        pieces.append(view[done:])
        return b"".join(pieces)
