"""Shared-memory publication of delta snapshot stores.

The cold process pool ships the whole :class:`~repro.pm.snapshot.
SnapshotStore` into workers by fork inheritance — fine for a pool that
forks *after* the store exists, useless for a warm pool whose workers
forked before the pre-failure stage ran.  Pickling the store per phase
would put every recorded image byte through a pipe per worker.  This
module takes the third path: the parent lays the store's payload bytes
(base images and line patches) into one ``multiprocessing.
shared_memory`` segment, and workers attach and rebuild a read-only
store whose deltas are ``memoryview``s into the segment — zero copies,
and the only thing that crosses the pickle boundary is a
:class:`ShmStoreView` of a few dozen bytes (the per-delta offset index
itself lives inside the segment, after the payload).

Lifecycle: segments are created by :class:`ShmSnapshotPlane` (parent
side, one per published store), tracked in a module registry, and
unlinked when the owning executor closes — ``live_segments()`` is the
leak guard the test suite asserts empties on normal exit, quarantine,
and chaos worker death, with an ``atexit`` hook as the last-resort
net.  Workers never unlink; a worker that dies mid-batch simply drops
its mapping.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading

from multiprocessing import shared_memory

from repro.pm.snapshot import PoolDelta, SnapshotStore

#: Segment name -> SharedMemory, creator side only.  The leak-guard
#: registry: anything still here after an executor closed leaked.
_LIVE = {}
_LIVE_LOCK = threading.Lock()

#: Segment name -> attached ShmSnapshotStore, per process.  A warm
#: worker attaches each segment once and keeps the store (and with it
#: its ImageMemo identity) across batches and phases.
_ATTACHED = {}


def live_segments():
    """Names of shared-memory segments this process created and has
    not yet unlinked."""
    with _LIVE_LOCK:
        return sorted(_LIVE)


def detach_all():
    """Detach this process's attached stores (worker side).

    Each store drops its delta views and closes its mapping
    (:meth:`ShmSnapshotStore.detach`); a mapping still pinned by a
    straggler view elsewhere is left to GC.  Called by warm workers on
    exit, after the caller has dropped its own references into the
    segments, so the mappings close cleanly instead of riding GC
    finalization order at interpreter shutdown.
    """
    stores = list(_ATTACHED.values())
    _ATTACHED.clear()
    for store in stores:
        store.detach()


def _release(name):
    """Close and unlink one owned segment; idempotent."""
    with _LIVE_LOCK:
        shm = _LIVE.pop(name, None)
    if shm is None:
        return
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass


#: PID that imported this module.  A forked worker inherits ``_LIVE``
#: by copy-on-write; its exit must never unlink segments the parent
#: still serves to siblings.
_OWNER_PID = os.getpid()


def _release_all():
    if os.getpid() != _OWNER_PID:
        return
    for name in live_segments():
        _release(name)


atexit.register(_release_all)


class _ShmImage:
    """Base-image stand-in whose payloads are views into the segment.

    The snapshot cursor only reads ``data`` / ``persisted_data``, so a
    full ``PMImage`` (which would copy the bytes out) is unnecessary.
    """

    __slots__ = ("data", "persisted_data")

    def __init__(self, data, persisted_data):
        self.data = data
        self.persisted_data = persisted_data


class ShmStoreView:
    """Picklable handle to a published store: segment name plus the
    location of the pickled offset index inside it."""

    __slots__ = ("name", "index_offset", "index_len", "nbytes")

    def __init__(self, name, index_offset, index_len, nbytes):
        self.name = name
        self.index_offset = index_offset
        self.index_len = index_len
        #: Total segment size (payload + index) for accounting.
        self.nbytes = nbytes

    def __getstate__(self):
        return (self.name, self.index_offset, self.index_len,
                self.nbytes)

    def __setstate__(self, state):
        self.name, self.index_offset, self.index_len, self.nbytes = \
            state

    def attach(self):
        """The (process-cached) read-only store over this segment."""
        store = _ATTACHED.get(self.name)
        if store is None:
            store = ShmSnapshotStore(self)
            _ATTACHED[self.name] = store
        return store

    def __repr__(self):
        return (
            f"ShmStoreView({self.name!r}, {self.nbytes} bytes)"
        )


class ShmSnapshotStore(SnapshotStore):
    """A snapshot store rebuilt over an attached shared segment.

    Behaves exactly like the source store for everything the
    post-failure stage needs — ``deltas`` / ``materialize`` /
    ``volatile_bits`` and the memo's ``SnapshotCursor`` — but its line
    patches and base images are read-only memoryviews into the shared
    buffer, so attaching costs O(index), not O(image bytes).
    """

    def __init__(self, view):
        super().__init__()
        # Note on bpo-39959: attaching registers the segment with the
        # resource tracker as if it were a creation.  That is only a
        # problem across *independent* tracker processes; every
        # attacher here is forked from the creator and shares its
        # tracker, whose per-type cache is a set — the duplicate
        # registration collapses and the creator's unlink clears it.
        # Unregistering here would instead strip the creator's own
        # registration and break crash cleanup.
        shm = shared_memory.SharedMemory(name=view.name)
        self._shm = shm  # keeps the mapping alive with the store
        buf = shm.buf

        def view_of(offset, length):
            return buf[offset:offset + length].toreadonly()

        raw = bytes(
            buf[view.index_offset:view.index_offset + view.index_len]
        )
        version, index = pickle.loads(raw)
        if version != 1:
            raise ValueError(
                f"unsupported shm snapshot layout v{version}"
            )
        self.frozen = True
        for entries in index:
            deltas = []
            for entry in entries:
                if entry[0] == "F":
                    _tag, name, base, size, d_off, p_off, volatile = \
                        entry
                    deltas.append(PoolDelta(
                        name, base, size,
                        full=_ShmImage(
                            view_of(d_off, size), view_of(p_off, size)
                        ),
                        volatile_lines=volatile,
                    ))
                else:
                    _tag, name, base, size, lines, volatile = entry
                    deltas.append(PoolDelta(
                        name, base, size,
                        lines=[
                            (line_off,
                             view_of(d_off, d_len),
                             view_of(p_off, p_len))
                            for line_off, d_off, d_len, p_off, p_len
                            in lines
                        ],
                        volatile_lines=volatile,
                    ))
                self._known_pools.add(entry[1])
                self.recorded_bytes += deltas[-1].recorded_bytes
                self.full_equivalent_bytes += 2 * entry[3]
            self._snapshots.append(deltas)

    def detach(self):
        """Drop the store's views into the segment and close the
        mapping.  A view still exported into a live object elsewhere
        (a crash image the caller has not yet dropped) pins the
        mapping — that ``BufferError`` is expected, and GC releases
        the mapping once the last view dies; closing twice is a
        no-op."""
        self._snapshots.clear()
        try:
            self._shm.close()
        except BufferError:
            pass


def _publish(store):
    """Lay one store into a fresh segment; returns its view."""
    snapshots = [store.deltas(fid) for fid in range(len(store))]
    offset = 0
    index = []
    writes = []
    for deltas in snapshots:
        entries = []
        for delta in deltas:
            if delta.full is not None:
                data = delta.full.data
                persisted = delta.full.persisted_data
                d_off, p_off = offset, offset + len(data)
                writes.append((d_off, data))
                writes.append((p_off, persisted))
                offset = p_off + len(persisted)
                entries.append((
                    "F", delta.pool_name, delta.base, delta.size,
                    d_off, p_off, delta.volatile_lines,
                ))
            else:
                lines = []
                for line_off, data, persisted in delta.lines:
                    d_off, p_off = offset, offset + len(data)
                    writes.append((d_off, data))
                    writes.append((p_off, persisted))
                    offset = p_off + len(persisted)
                    lines.append((
                        line_off, d_off, len(data), p_off,
                        len(persisted),
                    ))
                entries.append((
                    "L", delta.pool_name, delta.base, delta.size,
                    tuple(lines), delta.volatile_lines,
                ))
        index.append(tuple(entries))
    index_bytes = pickle.dumps(
        (1, tuple(index)), protocol=pickle.HIGHEST_PROTOCOL
    )
    total = max(1, offset + len(index_bytes))
    shm = shared_memory.SharedMemory(create=True, size=total)
    buf = shm.buf
    for w_off, chunk in writes:
        buf[w_off:w_off + len(chunk)] = bytes(chunk)
    buf[offset:offset + len(index_bytes)] = index_bytes
    with _LIVE_LOCK:
        _LIVE[shm.name] = shm
    return ShmStoreView(shm.name, offset, len(index_bytes), total)


class ShmSnapshotPlane:
    """Parent-side publisher: one segment per snapshot store.

    Publication is cached by store identity (a strong reference keeps
    the id stable), so the retry waves and fallback waves of one phase
    — and the post and replay phases of one run sharing a store —
    publish once.  ``close()`` unlinks everything; the owning executor
    calls it from its own ``close()``.
    """

    def __init__(self):
        self._published = {}  # id(store) -> (store, view)
        #: Cumulative bytes laid into shared segments (the
        #: ``exec.shm_bytes_shared`` gauge).
        self.bytes_shared = 0

    def publish(self, store):
        entry = self._published.get(id(store))
        if entry is not None and entry[0] is store:
            return entry[1]
        if hasattr(store, "freeze"):
            # Workers read raw byte offsets from the segment; a capture
            # after publication would silently diverge from them.
            store.freeze()
        view = _publish(store)
        self._published[id(store)] = (store, view)
        self.bytes_shared += view.nbytes
        return view

    def close(self):
        for _store, view in self._published.values():
            _release(view.name)
        self._published.clear()
