"""Batched dispatch and the warm persistent pool (repro.exec)."""

import pytest

from repro.core.config import DetectorConfig
from repro.exec import (
    ProcessExecutor,
    SerialExecutor,
    WarmProcessExecutor,
    plan_batches,
    resolve_executor,
)

needs_fork = pytest.mark.skipif(
    not ProcessExecutor.available(), reason="fork start method required"
)


class TestPlanBatches:
    def test_contiguous_chunks_in_key_order(self):
        keys = [(fid, None, None) for fid in range(10)]
        batches = plan_batches(keys, 4)
        assert batches == [keys[0:4], keys[4:8], keys[8:10]]

    def test_batch_size_one_is_singletons(self):
        keys = [(fid, None, None) for fid in range(3)]
        assert plan_batches(keys, 1) == [[key] for key in keys]
        assert plan_batches(keys, 0) == [[key] for key in keys]

    def test_backward_fid_jump_closes_the_batch(self):
        # A dedup fallback wave (or a variant sweep restart) re-issues
        # earlier fids; the memo cursor must never be asked to walk
        # backwards inside a batch.
        keys = [(0, None, None), (3, None, None), (1, None, None),
                (2, None, None)]
        batches = plan_batches(keys, 10)
        assert batches == [
            [(0, None, None), (3, None, None)],
            [(1, None, None), (2, None, None)],
        ]

    def test_repeated_fid_stays_in_batch(self):
        # Variants of one failure point share a fid; equal fids are
        # forward motion, not a jump.
        keys = [(1, None, None), (1, 0, 7), (1, 1, 3), (2, None, None)]
        assert plan_batches(keys, 10) == [keys]

    def test_non_tuple_keys_batch_by_size(self):
        assert plan_batches(list(range(5)), 2) == [[0, 1], [2, 3], [4]]

    def test_empty(self):
        assert plan_batches([], 4) == []


def _double(_context, key):
    return key * 2


def _fail_odd(_context, key):
    if key % 2:
        raise ValueError(f"odd key {key}")
    return key * 2


class TestBatchedExecutors:
    @needs_fork
    def test_process_batched_matches_serial(self):
        keys = list(range(17))
        reference = [
            o.value for o in SerialExecutor().run_phase(
                None, _double, keys
            )
        ]
        for batch_size in (1, 4, 16, 100):
            executor = ProcessExecutor(4, batch_size=batch_size)
            outcomes = executor.run_phase(object(), _double, keys)
            assert [o.value for o in outcomes] == reference
            executor.close()

    @needs_fork
    def test_batch_error_stays_per_key(self):
        # One crashed task must not take its batchmates down.
        executor = ProcessExecutor(2, batch_size=8)
        outcomes = executor.run_phase(object(), _fail_odd, list(range(6)))
        assert [o.value for o in outcomes] == [0, None, 4, None, 8, None]
        assert [type(o.error) for o in outcomes[1::2]] == [ValueError] * 3
        executor.close()

    @needs_fork
    def test_process_batched_roundtrip(self):
        executor = ProcessExecutor(2, batch_size=4)

        class Ctx:
            pass

        outcomes = executor.run_phase(Ctx(), _double, list(range(9)))
        assert [o.value for o in outcomes] == [k * 2 for k in range(9)]
        assert all(o.worker.startswith("pid-") for o in outcomes)
        executor.close()


@needs_fork
class TestWarmProcessExecutor:
    def test_two_phases_reuse_workers(self):
        executor = WarmProcessExecutor(2, batch_size=3)
        try:
            executor.prewarm()
            pids_before = {
                w.process.pid for w in executor._workers
            }
            first = executor.run_phase(None, _double, list(range(7)))
            second = executor.run_phase(None, _double, list(range(5)))
            assert [o.value for o in first] == [k * 2 for k in range(7)]
            assert [o.value for o in second] == [k * 2 for k in range(5)]
            pids_after = {w.process.pid for w in executor._workers}
            assert pids_after == pids_before  # nobody respawned
            labels = {o.worker for o in first + second}
            assert labels <= {f"pid-{pid}" for pid in pids_before}
        finally:
            executor.close()
        assert not executor._workers

    def test_per_key_errors_ship_back(self):
        executor = WarmProcessExecutor(2, batch_size=4)
        try:
            outcomes = executor.run_phase(
                None, _fail_odd, list(range(6))
            )
            assert [o.value for o in outcomes] == \
                [0, None, 4, None, 8, None]
            for outcome in outcomes[1::2]:
                assert isinstance(outcome.error, ValueError)
        finally:
            executor.close()

    def test_unpicklable_phase_falls_back_to_cold_path(self):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("not today")

        executor = WarmProcessExecutor(2, batch_size=4)
        try:
            outcomes = executor.run_phase(
                Unpicklable(), _double, list(range(4))
            )
            assert [o.value for o in outcomes] == [0, 2, 4, 6]
        finally:
            executor.close()

    def test_empty_phase(self):
        executor = WarmProcessExecutor(2)
        try:
            assert executor.run_phase(None, _double, []) == []
        finally:
            executor.close()

    def test_close_is_idempotent(self):
        executor = WarmProcessExecutor(2)
        executor.prewarm()
        executor.close()
        executor.close()


class TestResolveWarm:
    @needs_fork
    def test_process_defaults_to_warm(self):
        config = DetectorConfig(jobs=2, executor="process")
        executor = resolve_executor(config)
        try:
            assert isinstance(executor, WarmProcessExecutor)
            assert executor.batch_size == config.batch_size
        finally:
            executor.close()

    @needs_fork
    def test_no_warm_pool_gives_cold_process(self):
        config = DetectorConfig(
            jobs=2, executor="process", warm_pool=False
        )
        executor = resolve_executor(config)
        try:
            assert isinstance(executor, ProcessExecutor)
            assert not isinstance(executor, WarmProcessExecutor)
        finally:
            executor.close()

    @needs_fork
    def test_cold_process_gets_batch_size(self):
        config = DetectorConfig(
            jobs=2, executor="process", warm_pool=False, batch_size=5
        )
        executor = resolve_executor(config)
        try:
            assert isinstance(executor, ProcessExecutor)
            assert executor.batch_size == 5
        finally:
            executor.close()


class TestEnvDefaults:
    def test_xfd_batch_size(self, monkeypatch):
        monkeypatch.setenv("XFD_BATCH_SIZE", "16")
        assert DetectorConfig().batch_size == 16

    def test_xfd_batch_size_invalid_degrades(self, monkeypatch):
        monkeypatch.setenv("XFD_BATCH_SIZE", "many")
        assert DetectorConfig().batch_size == 8
        monkeypatch.setenv("XFD_BATCH_SIZE", "-3")
        assert DetectorConfig().batch_size == 1

    def test_xfd_batch_size_default(self, monkeypatch):
        monkeypatch.delenv("XFD_BATCH_SIZE", raising=False)
        assert DetectorConfig().batch_size == 8

    def test_xfd_warm_pool(self, monkeypatch):
        monkeypatch.delenv("XFD_WARM_POOL", raising=False)
        assert DetectorConfig().warm_pool is True
        monkeypatch.setenv("XFD_WARM_POOL", "0")
        assert DetectorConfig().warm_pool is False
        monkeypatch.setenv("XFD_WARM_POOL", "on")
        assert DetectorConfig().warm_pool is True
