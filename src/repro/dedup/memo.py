"""Per-worker crash-image memo: pool buffers reused across tasks.

Without the memo every post-failure task pays O(pool size) three times
over before recovery even starts: the snapshot cursor converts its
bytearrays to immutable ``bytes`` (``SnapshotStore.materialize``), the
variant path copies them again, and ``PMPool`` copies the data a third
time on construction.  Consecutive failure points differ by a handful
of cache lines, so almost all of that copying rewrites identical
bytes.

An :class:`ImageMemo` keeps, per worker (one per thread; forked
process workers build their own on first use):

* a :class:`~repro.pm.snapshot.SnapshotCursor` — the canonical
  program-view and persisted images, advanced delta-by-delta;
* one **working buffer** per pool — the bytes actually handed to the
  task's pools — plus the ranges where it diverges from the canonical
  image: lines the previous task's recovery wrote (tracked by
  :class:`TrackedPool`), lines a variant mask reverted, and lines the
  cursor advanced past.

Preparing a task then costs O(divergence): restore the stale ranges
from the canonical image, apply the variant overlay, hand out pools
that alias the working buffer.  Amortized over a run the post-failure
stage's image work drops from O(failure_points · pool) to O(trace).
"""

from __future__ import annotations

import threading

from repro.pm.constants import CACHE_LINE_SIZE
from repro.pm.pool import PMPool
from repro.pm.snapshot import SnapshotCursor


class TrackedPool(PMPool):
    """A pool over a borrowed working buffer, recording every write.

    The buffer is adopted by reference — no copy — and each raw write
    appends its range to the owning memo's stale list, so the memo
    knows exactly which bytes to restore before the buffer serves the
    next task.  Reads, bounds checks, and tracing behave exactly like
    the base class.
    """

    def __init__(self, name, size, base, buffer, stale):
        # Deliberately not calling PMPool.__init__: it would zero-fill
        # or copy ``size`` bytes, the very cost the memo removes.
        self.name = name
        self.base = base
        self.size = size
        self.end = base + size
        self._data = buffer
        self._stale = stale

    def write(self, address, data):
        super().write(address, data)
        offset = address - self.base
        self._stale.append((offset, offset + len(data)))

    def load_bytes(self, data):
        super().load_bytes(data)
        self._stale.append((0, self.size))


class ImageMemo:
    """Rolling crash-image state for one worker.

    Warm process workers (``repro.exec.pool.WarmProcessExecutor``)
    keep one attached shared-memory store — and therefore one of these
    — alive for the *whole run*, so the cursor keeps amortizing across
    phases, retry waves, and batches instead of restarting with every
    forked pool.  The counters below measure that amortization.
    """

    def __init__(self, store):
        self.store = store
        self._cursor = SnapshotCursor(store)
        self._working = {}  # pool name -> bytearray handed to tasks
        self._stale = {}  # pool name -> [(start, end)] divergences
        #: Tasks this memo prepared pools for over its lifetime.
        self.tasks_served = 0
        #: Bytes copied back from canonical images across all restores
        #: (the divergence actually paid, vs O(pool) per task without
        #: the memo).
        self.bytes_restored = 0

    def task_pools(self, fid, mask):
        """The pools for one post-failure task, ready to map.

        ``mask`` is the task's survivor mask (None for the base run on
        the as-written image).  The returned :class:`TrackedPool`s
        alias this memo's working buffers: they are valid until the
        next ``task_pools`` call on this memo.
        """
        changed = self._cursor.advance(fid)
        self.tasks_served += 1
        pools = []
        bit_offset = 0
        for delta in self.store.deltas(fid):
            name = delta.pool_name
            data, persisted = self._cursor.pools[name]
            working = self._working.get(name)
            if working is None or len(working) != delta.size:
                working = bytearray(data)
                self._working[name] = working
                stale = self._stale[name] = []
            else:
                stale = self._stale[name]
                stale.extend(changed.get(name, ()))
                self.bytes_restored += _restore(working, data, stale)
                del stale[:]
            if mask is not None:
                bits = len(delta.volatile_lines)
                sub_mask = (mask >> bit_offset) & ((1 << bits) - 1)
                bit_offset += bits
                for bit, offset in enumerate(delta.volatile_lines):
                    if sub_mask & (1 << bit):
                        continue
                    end = min(offset + CACHE_LINE_SIZE, delta.size)
                    working[offset:end] = persisted[offset:end]
                    stale.append((offset, end))
            pools.append(
                TrackedPool(name, delta.size, delta.base, working,
                            stale)
            )
        return pools


def _restore(working, canonical, ranges):
    """Copy the (coalesced) stale ranges back from the canonical image;
    a heavily-diverged buffer falls back to one full copy.  Returns the
    bytes copied (the memo's ``bytes_restored`` accounting)."""
    if not ranges:
        return 0
    ranges.sort()
    merged = []
    start, end = ranges[0]
    for s, e in ranges[1:]:
        if s <= end:
            end = max(end, e)
        else:
            merged.append((start, end))
            start, end = s, e
    merged.append((start, end))
    if sum(e - s for s, e in merged) * 2 >= len(working):
        working[:] = canonical
        return len(working)
    for s, e in merged:
        working[s:e] = canonical[s:e]
    return sum(e - s for s, e in merged)


#: One memo per worker thread: forked process workers inherit the
#: parent's *empty* main-thread state and build their own on first
#: task.
_local = threading.local()


def memo_for(store):
    """The calling worker's :class:`ImageMemo` over ``store``."""
    memo = getattr(_local, "memo", None)
    if memo is None or memo.store is not store:
        memo = ImageMemo(store)
        _local.memo = memo
    return memo


def drop_local_memo():
    """Discard the calling thread's memo (and with it its references
    into any attached shared-memory store).  Warm workers call this on
    a run-boundary ``reset``; the next task rebuilds from the next
    run's store."""
    _local.memo = None
