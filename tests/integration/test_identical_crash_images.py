"""Failure points that crash into identical images all run and replay.

Forced failure points between persists repeat the preceding ordering
point's crash image byte for byte.  The detector executes and replays
every one of them (there is no crash-state equivalence class that
could stand in for a point), and the bug list equals the interleaved
reference schedule over the reference shadow, serially and on the
process pool.
"""

import pytest

from repro.core import DetectorConfig, XFDetector
from repro.core.frontend import Frontend
from repro.core.report import DetectionReport
from repro.exec import ProcessExecutor
from repro.pm.pool import PMPool
from repro.workloads.base import Workload

from tests.shadow_ref import reference_bugs

SENTINEL_OFFSET = 4096


class ForcedDuplicates(Workload):
    """Back-to-back forced failure points between persists: every
    point in a burst crashes into the same image.

    With ``unpersisted_sentinel`` a never-persisted store follows the
    bursts, so recovery's read of it is a cross-failure race and the
    compared bug lists are not empty.
    """

    name = "forced_duplicates"
    FAULTS = {"unpersisted_sentinel": "R"}

    def setup(self, ctx):
        ctx.memory.map_pool(PMPool("p", 1 << 20))

    def pre_failure(self, ctx):
        memory = ctx.memory
        base = memory.pool_named("p").base
        for step in range(self.test_size):
            address = base + 64 * step
            memory.store(address, step.to_bytes(8, "little"))
            memory.flush(address, 8)
            memory.fence()
            for _ in range(3):
                memory.force_failure_point()
        if "unpersisted_sentinel" in self.faults:
            memory.store(base + SENTINEL_OFFSET, b"\xEE" * 8)
            memory.force_failure_point()

    def post_failure(self, ctx):
        memory = ctx.memory
        base = memory.pool_named("p").base
        for step in range(self.test_size):
            memory.load(base + 64 * step, 8)
        if "unpersisted_sentinel" in self.faults:
            memory.load(base + SENTINEL_OFFSET, 8)


SCHEDULES = [
    pytest.param(1, "serial", id="serial"),
    pytest.param(
        2, "process", id="jobs2-process",
        marks=pytest.mark.skipif(
            not ProcessExecutor.available(),
            reason="fork start method required",
        ),
    ),
]

FAULTS = [
    pytest.param((), id="clean"),
    pytest.param(("unpersisted_sentinel",), id="sentinel"),
]


def _reference(faults):
    """The reference bug list, from a serial frontend run (frontend
    results do not depend on the executor)."""
    config = DetectorConfig(jobs=1, executor="serial")
    result = Frontend(config).run(
        ForcedDuplicates(faults=faults, test_size=4)
    )
    report = DetectionReport(result.workload_name)
    report.bugs = reference_bugs(result, config)
    return report.to_dict(unique=False)["bugs"]


@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("jobs, executor", SCHEDULES)
def test_every_forced_point_runs_and_matches_reference(
    jobs, executor, faults
):
    config = DetectorConfig(jobs=jobs, executor=executor)
    report = XFDetector(config).run(
        ForcedDuplicates(faults=faults, test_size=4)
    )
    stats = report.stats
    # Three forced points per burst repeat the burst's image.
    assert stats.failure_points >= 4 * 3
    assert stats.post_runs_analyzed == stats.failure_points
    assert stats.post_runs_deduped == 0
    assert stats.replays_deduped == 0
    bugs = report.to_dict(unique=False)["bugs"]
    assert bugs == _reference(faults)
    if faults:
        assert bugs
