"""The replay-prefix image memo (repro.dedup.memo)."""

from repro.dedup import ImageMemo
from repro.pm.constants import PMEM_MMAP_HINT
from repro.pm.image import CrashImageMode
from repro.pm.memory import PersistentMemory
from repro.pm.pool import PMPool
from repro.pm.snapshot import SnapshotStore
from repro.trace.recorder import NullRecorder

POOL_SIZE = 4096
BASE = PMEM_MMAP_HINT


def _memory(size=POOL_SIZE):
    memory = PersistentMemory(NullRecorder(), capture_ips=False)
    memory.map_pool(PMPool("pool", size, BASE))
    return memory


class TestImageMemo:
    def _snapshots(self):
        """A store with three failure points and some persisted and
        volatile writes between them."""
        memory = _memory()
        store = SnapshotStore()
        memory.store(BASE, b"A" * 8)
        memory.flush(BASE, 8)
        memory.fence()
        memory.snapshot_delta(store)
        memory.store(BASE + 128, b"B" * 16)  # volatile
        memory.snapshot_delta(store)
        memory.store(BASE + 128, b"C" * 16)
        memory.flush(BASE + 128, 16)
        memory.fence()
        memory.snapshot_delta(store)
        return store

    def test_working_buffer_matches_materialize(self):
        store = self._snapshots()
        memo = ImageMemo(store)
        for fid in range(len(store)):
            (pool,) = memo.task_pools(fid, None)
            (image,) = store.materialize(fid)
            assert pool.read(pool.base, pool.size) == image.data

    def test_task_writes_are_restored_before_next_task(self):
        store = self._snapshots()
        memo = ImageMemo(store)
        (pool,) = memo.task_pools(0, None)
        pool.write(pool.base + 1024, b"task scribble")
        (pool,) = memo.task_pools(1, None)
        (image,) = store.materialize(1)
        assert pool.read(pool.base, pool.size) == image.data

    def test_variant_overlay_matches_variant_bytes(self):
        store = self._snapshots()
        memo = ImageMemo(store)
        fid = 1  # has a volatile line
        (image,) = store.materialize(fid)
        assert image.volatile_lines
        bits = len(image.volatile_lines)
        for mask in range(1 << bits):
            (pool,) = memo.task_pools(fid, mask)
            assert (
                pool.read(pool.base, pool.size)
                == image.variant_bytes(mask)
            ), f"mask {mask:#b}"

    def test_backwards_fid_rebuilds(self):
        store = self._snapshots()
        memo = ImageMemo(store)
        memo.task_pools(2, None)
        (pool,) = memo.task_pools(0, None)
        (image,) = store.materialize(0)
        assert pool.read(pool.base, pool.size) == image.data

    def test_memo_matches_legacy_as_written_path(self):
        store = self._snapshots()
        memo = ImageMemo(store)
        for fid in range(len(store)):
            (pool,) = memo.task_pools(fid, None)
            (image,) = store.materialize(fid)
            assert (
                pool.read(pool.base, pool.size)
                == image.bytes_for(CrashImageMode.AS_WRITTEN)
            )
