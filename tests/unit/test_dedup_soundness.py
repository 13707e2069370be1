"""Dedup soundness: keys that share a ``DedupIndex`` class must start
recovery from the same bytes.

Fingerprints start each pool's fold from a per-store constant instead
of hashing its base image, which is sound only because a store records
each pool's base exactly once.  This property drives random PM
operations — including writes that restore earlier bytes and a pool
mapped part-way through — captures after each, and checks every class
member against its representative's materialized images.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup import DedupIndex
from repro.pm.cacheline import FlushKind
from repro.pm.constants import CACHE_LINE_SIZE, PMEM_MMAP_HINT
from repro.pm.memory import PersistentMemory
from repro.pm.pool import PMPool
from repro.pm.snapshot import SnapshotStore
from repro.trace.recorder import NullRecorder

POOL_SIZE = 8 * CACHE_LINE_SIZE
BASES = (PMEM_MMAP_HINT, PMEM_MMAP_HINT + 0x100000)

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["store", "nt"]),
            st.integers(0, 1),  # pool
            st.integers(0, POOL_SIZE - 8),  # offset
            st.integers(0, 1),  # byte value: rewrites collide often
        ),
        st.tuples(
            st.sampled_from(["clwb", "clflush"]),
            st.integers(0, 1),
            st.integers(0, POOL_SIZE - 1),
        ),
        st.tuples(st.sampled_from(["fence", "capture", "map"])),
    ),
    max_size=40,
)


def _images(store, fid):
    return [
        (image.pool_name, image.data, image.persisted_data,
         image.volatile_lines)
        for image in store.materialize(fid)
    ]


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_class_members_have_identical_images(ops):
    memory = PersistentMemory(NullRecorder(), capture_ips=False)
    memory.map_pool(PMPool("p0", POOL_SIZE, BASES[0]))
    store = SnapshotStore(fingerprints=True)
    memory.snapshot_delta(store)
    for op in ops:
        name = op[0]
        mapped = len(memory.pools)
        if name in ("store", "nt"):
            _, pool, offset, value = op
            address = BASES[pool % mapped] + offset
            data = bytes([value]) * 8
            if name == "store":
                memory.store(address, data)
            else:
                memory.nt_store(address, data)
        elif name in ("clwb", "clflush"):
            _, pool, offset = op
            kind = FlushKind.CLWB if name == "clwb" else FlushKind.CLFLUSH
            memory.flush(BASES[pool % mapped] + offset, 1, kind)
        elif name == "fence":
            memory.fence()
        elif name == "map":
            if mapped == 1:
                memory.map_pool(PMPool("p1", POOL_SIZE, BASES[1]))
        memory.snapshot_delta(store)

    keys = [(fid, None, None) for fid in range(len(store))]
    index = DedupIndex.build(keys, store)
    for members in index.members.values():
        expected = _images(store, members[0][0])
        for key in members[1:]:
            assert _images(store, key[0]) == expected, (
                f"fid {key[0]} shares a class with fid {members[0][0]} "
                f"but not its crash images"
            )


def test_classes_merge_across_a_late_mapped_pool():
    """The property is not vacuous: captures with no change in between
    share a class, also after a second pool's base is recorded."""
    memory = PersistentMemory(NullRecorder(), capture_ips=False)
    memory.map_pool(PMPool("p0", POOL_SIZE, BASES[0]))
    store = SnapshotStore(fingerprints=True)
    memory.store(BASES[0], b"A" * 8)
    memory.snapshot_delta(store)  # fid 0
    memory.map_pool(PMPool("p1", POOL_SIZE, BASES[1]))
    memory.snapshot_delta(store)  # fid 1: p1's base recorded
    memory.snapshot_delta(store)  # fid 2: nothing changed
    memory.store(BASES[1], b"B" * 8)
    memory.snapshot_delta(store)  # fid 3
    keys = [(fid, None, None) for fid in range(4)]
    index = DedupIndex.build(keys, store)
    assert index.class_of[keys[1]] == index.class_of[keys[2]]
    assert index.class_of[keys[2]] != index.class_of[keys[3]]
    assert _images(store, 1) == _images(store, 2)
