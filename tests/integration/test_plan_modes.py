"""End-to-end validation of mechanism-driven crash plans (ISSUE 7).

Acceptance bar: with ``DetectorConfig.plan_mode="mechanism"``,
detection reproduces the exhaustive run's bug reports exactly while
executing at least 3x fewer failure points on at least two Table 4
workloads; the plan/exhaustive delta is visible in the run stats; and
every seeded bug the suite knows about survives the collapse.
"""

import pytest

from repro.core import DetectorConfig, XFDetector
from repro.errors import DetectorError
from repro.workloads import ALL_WORKLOADS


def _run(workload, plan_mode="exhaustive", faults=(), **params):
    cls = ALL_WORKLOADS[workload]
    instance = cls(faults=frozenset(faults), **params)
    config = DetectorConfig(plan_mode=plan_mode, progress=False)
    return XFDetector(config).run(instance)


def _bugset(report):
    # Stringified keys: BugKind members do not define an ordering.
    return sorted(
        str(bug.dedup_key()) for bug in report.unique_bugs()
    )


class TestReductionFloor:
    """>= 3x fewer executed failure points, zero missed bugs."""

    @pytest.mark.parametrize("workload,params", [
        ("ctree", dict(init_size=0, test_size=16)),
        ("rbtree", dict(init_size=0, test_size=12)),
    ])
    def test_three_x_reduction_same_bugs(self, workload, params):
        baseline = _run(workload, **params)
        planned = _run(workload, plan_mode="mechanism", **params)
        assert _bugset(planned) == _bugset(baseline)
        stats = planned.stats
        assert stats.plan_mode == "mechanism"
        assert stats.failure_points == baseline.stats.failure_points
        assert stats.failure_points_executed > 0
        ratio = stats.failure_points / stats.failure_points_executed
        assert ratio >= 3.0, (
            f"{workload}: only {ratio:.2f}x reduction "
            f"({stats.failure_points_executed} of "
            f"{stats.failure_points} executed)"
        )

    def test_delta_reported_in_stats(self):
        report = _run("btree", plan_mode="mechanism",
                      init_size=0, test_size=8)
        stats = report.stats
        assert (
            stats.failure_points_executed
            + stats.failure_points_skipped_by_plan
            == stats.failure_points
        )
        assert stats.failure_points_skipped_by_plan > 0
        payload = report.to_dict()["stats"]
        assert payload["plan_mode"] == "mechanism"
        assert (
            payload["failure_points_skipped_by_plan"]
            == stats.failure_points_skipped_by_plan
        )

    def test_exhaustive_mode_executes_everything(self):
        report = _run("btree", init_size=0, test_size=4)
        stats = report.stats
        assert stats.plan_mode == "exhaustive"
        assert stats.failure_points_executed == stats.failure_points
        assert stats.failure_points_skipped_by_plan == 0


class TestSoundness:
    """Plans must never change what is reported, only what runs."""

    @pytest.mark.parametrize("workload", [
        "btree", "ctree", "rbtree", "hashmap_tx", "hashmap_atomic",
    ])
    @pytest.mark.parametrize("mode", ["mechanism", "hybrid"])
    def test_clean_structures_identical_reports(self, workload, mode):
        params = dict(init_size=2, test_size=3)
        baseline = _run(workload, **params)
        planned = _run(workload, plan_mode=mode, **params)
        assert _bugset(planned) == _bugset(baseline)
        # The plan partitions the failure points exactly: every point
        # is either executed or plan-skipped, never both.
        stats = planned.stats
        assert (
            stats.failure_points_executed
            + stats.failure_points_skipped_by_plan
            == stats.failure_points
        )

    def test_seeded_mechanism_bugs_survive_the_collapse(self):
        from repro.bugsuite import build_workload, mech_bug_entries

        def detect(bug, mode):
            # One construction/run site: mechanism-store bug ips
            # resolve to the calling frame, so both runs must share it
            # for dedup keys to compare equal.
            config = DetectorConfig(plan_mode=mode)
            return XFDetector(config).run(build_workload(bug))

        for bug in mech_bug_entries():
            baseline = detect(bug, "exhaustive")
            planned = detect(bug, "mechanism")
            assert _bugset(planned) == _bugset(baseline), str(bug)
            assert any(
                found.kind is bug.expected_kind
                for found in planned.bugs
            ), str(bug)

    def test_faulted_table4_run_identical_reports(self):
        faults = ["skip_add_count"]
        baseline = _run("ctree", faults=faults,
                        init_size=2, test_size=3)
        planned = _run("ctree", plan_mode="mechanism", faults=faults,
                       init_size=2, test_size=3)
        assert _bugset(planned) == _bugset(baseline)
        assert planned.bugs


class TestConfigSurface:
    def test_unknown_plan_mode_raises(self):
        with pytest.raises(DetectorError):
            _run("btree", plan_mode="bogus", init_size=0, test_size=1)

    def test_plan_telemetry_gauges(self):
        report = _run("ctree", plan_mode="mechanism",
                      init_size=0, test_size=8)
        metrics = report.telemetry.metrics
        assert metrics.value("plans_emitted") > 0
        assert (
            metrics.value("plans_pruned_vs_exhaustive")
            == report.stats.failure_points_skipped_by_plan
        )
