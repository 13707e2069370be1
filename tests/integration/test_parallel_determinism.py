"""Executor determinism: reports are byte-identical at any pool width.

The tentpole contract of ``repro.exec``: running the same workload with
``jobs=1`` (serial) and ``jobs=4`` on the warm and the cold fork-based
process pools yields identical bug lists, identical stats, and
identical NDJSON records — modulo wall-clock timings, which are the
*only* thing an executor is allowed to change.
"""

import pytest

from repro.bugsuite.registry import bug_entries, build_workload
from repro.core import DetectorConfig, XFDetector
from repro.core.frontend import Frontend
from repro.core.report import BugKind, DetectionReport
from repro.exec import ProcessExecutor
from repro.obs import run_records
from repro.workloads import (
    MICROBENCHMARKS,
    HashmapAtomicWorkload,
    HashmapTxWorkload,
)

from tests.shadow_ref import reference_bugs


def _run(jobs, executor, make_workload, **config_kwargs):
    config = DetectorConfig(
        jobs=jobs, executor=executor, **config_kwargs
    )
    return XFDetector(config).run(make_workload())


#: (jobs, executor, extra config) legs every determinism check runs:
#: the serial reference plus, where fork exists, both process pools.
SCHEDULES = [(1, "serial", {})] + (
    [(4, "process", {}), (4, "process", {"warm_pool": False})]
    if ProcessExecutor.available() else []
)


def _report_dict(report):
    """The full report, with the timing fields removed."""
    data = report.to_dict(unique=False)
    data["stats"] = {
        key: value for key, value in data["stats"].items()
        if not key.endswith("seconds")
    }
    return data


def _ndjson_records(report):
    """Schedule-independent NDJSON records: spans and timers measure
    wall-clock, ``exec.*`` metrics describe the pool itself — drop
    those, keep everything else byte-for-byte."""
    kept = []
    for record in run_records(report, unique=False):
        if record.get("type") == "span":
            continue
        if record.get("type") == "metric":
            if record.get("metric") == "timer":
                continue
            if record.get("name", "").startswith("exec."):
                continue
        if record.get("type") == "stats":
            record = {
                key: value for key, value in record.items()
                if not key.endswith("seconds")
            }
        kept.append(record)
    return kept


class CrashingRecovery(HashmapAtomicWorkload):
    """Recovery dereferences state that a mid-rehash crash corrupts —
    modelled bluntly: it raises, so every post run produces a
    POST_FAILURE_CRASH whose message must survive the pickle boundary
    byte-for-byte."""

    name = "crashing_recovery"

    def post_failure(self, ctx):
        raise ValueError("recovery exploded at bucket #7")


class TestExecutorDeterminism:
    def _compare(self, make_workload, **config_kwargs):
        reference = None
        for jobs, executor, extra in SCHEDULES:
            report = _run(
                jobs, executor, make_workload, **extra, **config_kwargs
            )
            snapshot = (
                _report_dict(report), _ndjson_records(report)
            )
            if reference is None:
                reference = snapshot
            else:
                assert snapshot[0] == reference[0], (
                    f"report differs under jobs={jobs} {executor}"
                )
                assert snapshot[1] == reference[1], (
                    f"NDJSON differs under jobs={jobs} {executor}"
                )
        return reference

    def test_racy_workload_with_variants(self):
        report_dict, _records = self._compare(
            lambda: HashmapAtomicWorkload(
                faults={"skip_persist_count"}, test_size=3
            ),
            crash_state_variants=3,
        )
        assert report_dict["bugs"], "fault should produce bugs"

    def test_transactional_workload(self):
        self._compare(
            lambda: HashmapTxWorkload(
                faults={"skip_add_count"}, test_size=3
            ),
        )

    def test_crash_messages_cross_process_boundary(self):
        report_dict, _records = self._compare(
            lambda: CrashingRecovery(test_size=2),
        )
        kinds = {bug["kind"] for bug in report_dict["bugs"]}
        assert "post-failure crash" in kinds
        assert any(
            "recovery exploded at bucket #7" in bug["detail"]
            for bug in report_dict["bugs"]
        )


class TestVariantPlanDeterminism:
    def test_variant_schedule_is_identical(self):
        """Every executor runs the exact same crash-state variants:
        the (fid, variant) sequence and each run's trace length match
        the serial schedule."""
        def collect(jobs, executor, extra):
            config = DetectorConfig(
                jobs=jobs, executor=executor, crash_state_variants=3,
                **extra,
            )
            from repro.core.frontend import Frontend

            result = Frontend(config).run(
                HashmapAtomicWorkload(
                    faults={"skip_persist_count"}, test_size=3
                )
            )
            return [
                (run.failure_point.fid, run.variant,
                 len(run.recorder))
                for run in result.post_runs
            ]

        reference = collect(*SCHEDULES[0])
        for schedule in SCHEDULES[1:]:
            assert collect(*schedule) == reference
        assert any(variant is not None for _f, variant, _n in reference)


class TestVariantExhaustion:
    def test_small_mask_spaces_skip_explicitly(self):
        """Asking for more crash states than the mask space holds
        records the shortfall instead of silently under-producing."""
        config = DetectorConfig(crash_state_variants=64)
        report = XFDetector(config).run(
            HashmapAtomicWorkload(
                faults={"skip_persist_count"}, test_size=2
            )
        )
        metrics = report.telemetry.metrics
        skipped = metrics.value("crash_variants_skipped")
        assert skipped > 0
        produced = metrics.value("post_runs") - (
            report.stats.failure_points
        )
        requested = 64 * report.stats.failure_points
        # Every requested variant is either produced or accounted for.
        assert produced + skipped <= requested
        assert report.stats.post_runs_analyzed == metrics.value(
            "post_runs"
        )


class TestFailFastAccounting:
    def test_orphaned_runs_are_counted(self):
        config = DetectorConfig(fail_fast=True)
        report = XFDetector(config).run(
            HashmapAtomicWorkload(
                faults={"skip_persist_count"}, test_size=3
            )
        )
        stats = report.stats
        total_runs = report.telemetry.metrics.value("post_runs")
        orphaned = report.telemetry.metrics.value("orphaned_post_runs")
        assert report.has_cross_failure_bugs
        assert stats.post_runs_analyzed < total_runs
        assert orphaned == total_runs - stats.post_runs_analyzed
        assert (
            report.to_dict()["stats"]["post_runs_analyzed"]
            == stats.post_runs_analyzed
        )

    def test_no_orphans_on_full_analysis(self):
        report = XFDetector(DetectorConfig()).run(
            HashmapAtomicWorkload(test_size=2)
        )
        assert report.telemetry.metrics.value("orphaned_post_runs") == 0
        assert (
            report.stats.post_runs_analyzed
            == report.telemetry.metrics.value("post_runs")
        )


def _reference_cases():
    """The oracle corpus: every Table 4 microbenchmark (clean, at
    test size 3) and every seeded registry bug."""
    cases = [
        pytest.param(lambda cls=cls: cls(test_size=3), id=name)
        for name, cls in MICROBENCHMARKS.items()
    ]
    cases += [
        pytest.param(lambda bug=bug: build_workload(bug), id=str(bug))
        for bug in bug_entries()
    ]
    return cases


def _bug_dicts(workload_name, bugs):
    report = DetectionReport(workload_name)
    report.bugs = list(bugs)
    return report.to_dict(unique=False)["bugs"]


class TestCheckpointedEqualsInterleaved:
    def test_audit_schedule_matches_checkpointed_reports(self):
        """An audited run (every replay recorded, the shadow's fast
        paths bypassed) and the default run produce identical bug
        lists."""
        make = lambda: HashmapAtomicWorkload(
            faults={"skip_persist_count"}, test_size=3
        )
        checkpointed = XFDetector(DetectorConfig()).run(make())
        audited = XFDetector(DetectorConfig(audit=True)).run(make())
        assert (
            _report_dict(checkpointed)["bugs"]
            == _report_dict(audited)["bugs"]
        )

    @pytest.mark.parametrize("make", _reference_cases())
    def test_default_report_matches_reference_oracle(self, make):
        """The checkpointed backend (memo, checkpoints) against
        the interleaved schedule over the reference shadow, on one
        shared frontend result."""
        config = DetectorConfig()
        detector = XFDetector(config)
        result = Frontend(config, telemetry=detector.telemetry).run(
            make()
        )
        report = detector.analyze(result)
        assert report.to_dict(unique=False)["bugs"] == _bug_dicts(
            result.workload_name, reference_bugs(result, config)
        )


class TestFailFastStop:
    @pytest.mark.parametrize("make", _reference_cases())
    def test_report_is_full_report_cut_after_first_race(self, make):
        """``fail_fast`` yields the full bug list truncated right after
        its first cross-failure bug, and replays nothing past it."""
        full = XFDetector(DetectorConfig()).run(make())
        fast = XFDetector(DetectorConfig(fail_fast=True)).run(make())
        bugs = _report_dict(full)["bugs"]
        stop = next(
            (
                index + 1 for index, bug in enumerate(full.bugs)
                if bug.kind in (BugKind.CROSS_FAILURE_RACE,
                                BugKind.CROSS_FAILURE_SEMANTIC)
            ),
            len(bugs),
        )
        assert _report_dict(fast)["bugs"] == bugs[:stop]
        assert (
            len(fast.telemetry.spans.find("post_replay"))
            == fast.stats.post_runs_analyzed
        )
