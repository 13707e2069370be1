"""Replay-prefix memo: per-failure-point crash-image restore cost.

Every post-failure task starts from its failure point's as-written
crash image.  Two ways to build it from the delta snapshot store:

* **materialize** — ``SnapshotStore.materialize(fid)`` converts the
  cursor's images to fresh ``bytes`` and ``PMPool`` copies the data
  again: O(pool) per failure point;
* **memo** — ``ImageMemo.task_pools(fid, None)`` advances one rolling
  working buffer per pool by the failure point's delta and restores
  only the lines that diverged: O(delta) per failure point.

Both paths run over every failure point of one frontend run on the
PMDK microbenchmarks at a paper-realistic pool size, in fid order (the
order the executors dispatch).  The pool bytes must be identical at
every fid, and the memo must restore at least ``SPEEDUP_FLOOR`` times
faster on at least two workloads.  Rows land in ``BENCH_memo.json``.

Run with ``--benchmark-only``::

    PYTHONPATH=src python -m pytest -q --benchmark-only \\
        benchmarks/bench_memo.py
"""

import os
import time

from benchmarks._common import (
    format_table,
    table_records,
    write_result,
    write_trajectory,
)
from repro.core import DetectorConfig
from repro.core.frontend import Frontend
from repro.dedup import ImageMemo
from repro.pm.image import CrashImageMode
from repro.pm.pool import PMPool
from repro.workloads import MICROBENCHMARKS

#: Paper-realistic pool size (PMDK pools are routinely tens of MB and
#: up; the test default of 8 MB understates the copy-elision win).
POOL_SIZE = 16 * 1024 * 1024
WORKLOADS = ("hashmap_tx", "btree", "hashmap_atomic")
TEST_SIZE = 5
SPEEDUP_FLOOR = 1.5
ROUNDS = 3


def _store(name):
    """The delta snapshot store of one frontend run."""
    workload = MICROBENCHMARKS[name](
        test_size=TEST_SIZE, pool_size=POOL_SIZE
    )
    result = Frontend(DetectorConfig(jobs=1)).run(workload)
    return result.failure_points[0].store, len(result.failure_points)


def _materialize_pools(store, fid):
    """The pre-memo restore path: materialize, then copy into pools."""
    return [
        PMPool(image.pool_name, image.size, image.base,
               data=image.bytes_for(CrashImageMode.AS_WRITTEN))
        for image in store.materialize(fid)
    ]


def _materialize_restore(store):
    return lambda fid: _materialize_pools(store, fid)


def _memo_restore(store):
    memo = ImageMemo(store)
    return lambda fid: memo.task_pools(fid, None)


def _time_pass(restore, fids):
    """Seconds to restore every failure point once, in fid order."""
    started = time.perf_counter()
    for fid in fids:
        restore(fid)
    return time.perf_counter() - started


def _best(make_restore, store, fids):
    """Best of ``ROUNDS`` passes, each with a fresh restorer."""
    return min(
        _time_pass(make_restore(store), fids) for _ in range(ROUNDS)
    )


def _assert_identical(store, fids, name):
    memo = ImageMemo(store)
    for fid in fids:
        memo_pools = memo.task_pools(fid, None)
        legacy = _materialize_pools(store, fid)
        assert [pool.name for pool in memo_pools] == \
            [pool.name for pool in legacy], (name, fid)
        for mine, theirs in zip(memo_pools, legacy):
            assert mine.read(mine.base, mine.size) == \
                theirs.read(theirs.base, theirs.size), (name, fid)


def test_memo_restore_speedup(benchmark):
    rows = []
    speedups = {}
    for name in WORKLOADS:
        store, failure_points = _store(name)
        fids = range(failure_points)
        _assert_identical(store, fids, name)
        materialize_s = _best(_materialize_restore, store, fids)
        memo_s = _best(_memo_restore, store, fids)
        speedups[name] = materialize_s / memo_s
        rows.append([
            name, failure_points,
            f"{1e3 * materialize_s / failure_points:.3f}",
            f"{1e3 * memo_s / failure_points:.3f}",
            f"{speedups[name]:.2f}",
        ])

    store, failure_points = _store(WORKLOADS[0])
    benchmark.pedantic(
        lambda: _time_pass(_memo_restore(store), range(failure_points)),
        rounds=1, iterations=1,
    )

    headers = ["workload", "failure_points", "materialize_ms_per_fp",
               "memo_ms_per_fp", "speedup"]
    text = format_table(
        headers, rows,
        title=(
            "Replay-prefix memo — as-written crash-image restore per "
            f"failure point, materialize+copy vs. memo (pool "
            f"{POOL_SIZE >> 20} MB, test_size={TEST_SIZE}, best of "
            f"{ROUNDS}, pool bytes identical at every fid)"
        ),
    )
    write_result(
        "memo_restore", text,
        records=table_records("memo_restore", headers, rows),
    )
    write_trajectory(
        "memo",
        [dict(zip(headers, row)) for row in rows],
        summary={
            "pool_size": POOL_SIZE,
            "test_size": TEST_SIZE,
            "floor": SPEEDUP_FLOOR,
            "cpu_count": os.cpu_count() or 1,
            "speedups": {
                name: round(value, 3)
                for name, value in speedups.items()
            },
        },
    )

    cleared = [v for v in speedups.values() if v >= SPEEDUP_FLOOR]
    assert len(cleared) >= 2, (
        f"memo restore speedup below {SPEEDUP_FLOOR}x on all but "
        f"{len(cleared)} workload(s): {speedups}"
    )
