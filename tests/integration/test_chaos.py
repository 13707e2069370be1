"""Chaos self-test: the resilience layer under injected harness faults.

``XFD_CHAOS``-style fault injection (worker crashes, hangs) plus a
deterministic harness exception must never abort a run or corrupt the
outcomes of unaffected failure points: completed points stay
byte-identical to a fault-free run, absorbed faults surface as typed
incidents, and the report's ``degraded`` flag is true exactly when an
outcome was lost.
"""

import pytest

from repro.core import DetectorConfig, XFDetector
from repro.errors import HarnessError
from repro.exec import ProcessExecutor
from repro.pm.snapshot import SnapshotStore
from repro.resilience import IncidentKind
from repro.workloads import HashmapAtomicWorkload
from repro.workloads.base import Workload


def _workload():
    return HashmapAtomicWorkload(
        faults={"skip_persist_count"}, test_size=3
    )


def _run(**config_kwargs):
    config = DetectorConfig(retry_backoff=0.0, **config_kwargs)
    return XFDetector(config).run(_workload())


def _break_image_access(monkeypatch, broken_fid):
    """Make every crash-image access path for ``broken_fid`` raise a
    deterministic harness fault — ``materialize`` for the legacy copy
    path and ``deltas`` for the memoized one."""
    originals = {
        name: getattr(SnapshotStore, name)
        for name in ("materialize", "deltas")
    }

    def flaky(name):
        def accessor(self, fid):
            if fid == broken_fid:
                raise HarnessError(
                    "snapshot store corrupted", phase="post_exec"
                )
            return originals[name](self, fid)

        return accessor

    for name in originals:
        monkeypatch.setattr(SnapshotStore, name, flaky(name))


def _bugs_by_point(report):
    """(failure_point -> bug dict list), timings-free."""
    by_point = {}
    for bug in report.to_dict(unique=False)["bugs"]:
        by_point.setdefault(bug["failure_point"], []).append(bug)
    return by_point


@pytest.fixture(scope="module")
def baseline():
    """The fault-free reference report."""
    return _run()


class TestChaosCrash:
    def test_transient_crashes_heal_and_reports_match(self, baseline):
        """Injected worker crashes retry on fresh rolls; with retry
        budget left, every point completes and the bug list is
        byte-identical to the fault-free run's."""
        report = _run(chaos="crash:0.2", max_retries=6)
        incidents = report.incidents
        assert incidents, "crash:0.2 should fire at least once"
        assert all(
            i.kind is IncidentKind.WORKER_DEATH for i in incidents
        )
        assert not report.degraded
        assert _bugs_by_point(report) == _bugs_by_point(baseline)
        assert (
            report.stats.post_runs_analyzed
            == baseline.stats.post_runs_analyzed
        )

    @pytest.mark.skipif(
        not ProcessExecutor.available(),
        reason="needs the fork start method",
    )
    def test_chaos_rolls_match_across_executors(self, baseline):
        """Chaos decisions hash task coordinates, not scheduling: the
        serial schedule and a process pool roll identical faults and
        produce identical reports.  A forked worker really dies
        (``os._exit``) where the serial executor raises ``ChaosCrash``,
        so only the incidents' ``detail`` text differs; one key per
        batch keeps a death from taking batchmates with it."""
        serial = _run(chaos="crash:0.2", max_retries=6, jobs=1)
        pooled = _run(
            chaos="crash:0.2", max_retries=6, jobs=4,
            executor="process", batch_size=1,
        )

        def incidents(report):
            return [
                {k: v for k, v in i.to_dict().items() if k != "detail"}
                for i in report.incidents
            ]

        assert incidents(serial)
        assert incidents(serial) == incidents(pooled)
        assert _bugs_by_point(serial) == _bugs_by_point(pooled)

    def test_exhausted_retries_quarantine_not_abort(self, baseline):
        """With no retry budget, crashed points are quarantined while
        every unaffected point still reports byte-identically."""
        report = _run(chaos="crash:0.2", max_retries=0)
        assert report.degraded
        quarantined = {
            incident.failure_point
            for incident in report.incidents
            if incident.quarantined
        }
        assert quarantined, "at least one point should be lost"
        expected = {
            fid: bugs
            for fid, bugs in _bugs_by_point(baseline).items()
            if fid not in quarantined
        }
        actual = {
            fid: bugs
            for fid, bugs in _bugs_by_point(report).items()
            if fid not in quarantined
        }
        assert actual == expected
        assert "DEGRADED" in report.summary()


class LivelockedRecovery(HashmapAtomicWorkload):
    """Recovery spins forever re-reading PM — the livelock a corrupted
    crash image can produce, caught by the cooperative deadline."""

    name = "livelocked_recovery"

    def post_failure(self, ctx):
        base = ctx.memory.pools[0].base
        while True:  # every load ticks the attached Deadline
            ctx.memory.load(base, 8)


class TestHangDetection:
    def test_livelocked_recovery_becomes_hang_incidents(self):
        config = DetectorConfig(
            exec_deadline=0.1, max_failure_points=2, retry_backoff=0.0
        )
        report = XFDetector(config).run(
            LivelockedRecovery(
                faults={"skip_persist_count"}, test_size=2
            )
        )
        assert report.degraded
        assert report.incidents
        assert all(
            i.kind is IncidentKind.HANG and i.quarantined
            for i in report.incidents
        )
        # A hang is an incident, never a finding.
        assert not report.crashes

    def test_step_budget_catches_hangs_without_a_clock(self):
        config = DetectorConfig(
            exec_step_budget=10_000, max_failure_points=2,
            retry_backoff=0.0,
        )
        report = XFDetector(config).run(
            LivelockedRecovery(
                faults={"skip_persist_count"}, test_size=2
            )
        )
        assert report.incidents
        assert all(
            i.kind is IncidentKind.HANG for i in report.incidents
        )
        assert any(
            "step budget" in i.detail for i in report.incidents
        )


class TestHarnessErrorQuarantine:
    def test_harness_fault_is_an_incident_not_a_finding(
        self, baseline, monkeypatch
    ):
        """A pipeline failure for one failure point quarantines that
        point; the other points' findings are untouched and nothing
        masquerades as a POST_FAILURE_CRASH bug."""
        broken_fid = 1
        _break_image_access(monkeypatch, broken_fid)
        report = _run(max_retries=2)
        assert report.degraded
        incidents = report.incidents
        assert len(incidents) == 1
        assert incidents[0].kind is IncidentKind.HARNESS_ERROR
        assert incidents[0].failure_point == broken_fid
        assert incidents[0].quarantined
        # Deterministic fault: quarantined on the first attempt, no
        # retry burned.
        assert incidents[0].attempts == 1
        expected = {
            fid: bugs
            for fid, bugs in _bugs_by_point(baseline).items()
            if fid != broken_fid
        }
        assert _bugs_by_point(report) == expected
        assert not any(
            "snapshot store corrupted" in bug.detail
            for bug in report.bugs
        )


class TestCombinedAcceptance:
    def test_crash_hang_and_harness_fault_in_one_run(
        self, baseline, monkeypatch
    ):
        """The issue's acceptance scenario: one run absorbing a worker
        crash, a hang, and a deterministic harness exception finishes
        with all three incident kinds, ``degraded: true``, and every
        unaffected point byte-identical to the fault-free run."""
        broken_fid = 2
        _break_image_access(monkeypatch, broken_fid)
        # Serial on purpose: the fault is a parent-side patch of the
        # snapshot store, which warm workers (reading a shared-memory
        # view) never see.
        report = _run(
            chaos="crash:0.1,hang:0.04",
            exec_deadline=0.1,
            max_retries=0,
            jobs=1,
        )
        kinds = {incident.kind for incident in report.incidents}
        assert kinds == {
            IncidentKind.WORKER_DEATH,
            IncidentKind.HANG,
            IncidentKind.HARNESS_ERROR,
        }
        assert report.degraded
        assert report.to_dict()["degraded"] is True
        lost = {
            incident.failure_point
            for incident in report.incidents
            if incident.quarantined
        }
        expected = {
            fid: bugs
            for fid, bugs in _bugs_by_point(baseline).items()
            if fid not in lost
        }
        actual = {
            fid: bugs
            for fid, bugs in _bugs_by_point(report).items()
            if fid not in lost
        }
        assert actual == expected


class TestFaultFreeRunsAreUntouched:
    def test_no_incidents_without_faults(self, baseline):
        """The resilience layer is zero-cost and invisible when
        nothing goes wrong — the determinism suite depends on it."""
        assert baseline.incidents == []
        assert not baseline.degraded
        assert baseline.to_dict()["incidents"] == []
        assert "DEGRADED" not in baseline.summary()
