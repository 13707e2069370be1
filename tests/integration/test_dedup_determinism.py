"""Dedup/memoization must never change what a run reports.

The report contract: with dedup and the replay memo on, at any
executor width, the report's content (bugs with per-fid provenance,
incidents, non-timing stats) is identical to a serial dedup-off run —
the only differences allowed are the skipped-work counters themselves.
"""

import pytest

from repro.core import DetectorConfig, XFDetector
from repro.errors import HarnessError
from repro.exec import ProcessExecutor
from repro.pm.pool import PMPool
from repro.workloads import HashmapAtomicWorkload, HashmapTxWorkload
from repro.workloads.base import Workload

SKIPPED_WORK_KEYS = ("post_runs_deduped", "replays_deduped")


def _content(report):
    data = report.to_dict(unique=False)
    data["stats"] = {
        key: value for key, value in data["stats"].items()
        if not key.endswith("seconds")
        and key not in SKIPPED_WORK_KEYS
    }
    return data


def _config(enabled, **kwargs):
    return DetectorConfig(dedup=enabled, replay_memo=enabled, **kwargs)


class ForcedDuplicates(Workload):
    """Bursts of forced failure points between persists: every point
    in a burst crashes into the same image."""

    name = "forced_duplicates"

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

    def post_failure(self, ctx):
        memory = ctx.memory
        base = memory.pool_named("p").base
        for step in range(self.test_size):
            memory.load(base + 64 * step, 8)


class TestParallelDedupDeterminism:
    @pytest.mark.parametrize(
        "workload_cls", [HashmapTxWorkload, HashmapAtomicWorkload]
    )
    def test_jobs4_dedup_on_equals_serial_dedup_off(
        self, workload_cls
    ):
        def factory():
            return workload_cls(
                faults=(
                    {"skip_persist_count"}
                    if workload_cls is HashmapAtomicWorkload else ()
                ),
                test_size=3,
            )

        serial_off = XFDetector(_config(False)).run(factory())
        executor = "process"  # serial where fork is unavailable
        parallel_on = XFDetector(
            _config(True, jobs=4, executor=executor)
        ).run(factory())
        assert _content(parallel_on) == _content(serial_off)


class TestDedupFires:
    def test_forced_duplicates_dedup_and_identical_report(self):
        off = XFDetector(_config(False)).run(
            ForcedDuplicates(test_size=3)
        )
        on = XFDetector(_config(True)).run(
            ForcedDuplicates(test_size=3)
        )
        assert on.stats.post_runs_deduped > 0
        assert on.stats.replays_deduped > 0
        metrics = on.telemetry.metrics
        assert metrics.value("post_runs_deduped") == \
            on.stats.post_runs_deduped
        assert metrics.value("replay_events_skipped") > 0
        assert metrics.value("replay_checkpoints_skipped") > 0
        assert metrics.value("dedup_bytes_hashed") > 0
        assert _content(on) == _content(off)

    def test_parallel_forced_duplicates_identical(self):
        executor = "process"  # serial where fork is unavailable
        serial_off = XFDetector(_config(False)).run(
            ForcedDuplicates(test_size=3)
        )
        parallel_on = XFDetector(
            _config(True, jobs=4, executor=executor)
        ).run(ForcedDuplicates(test_size=3))
        assert parallel_on.stats.post_runs_deduped > 0
        assert _content(parallel_on) == _content(serial_off)

    def test_dedup_off_runs_everything(self):
        report = XFDetector(_config(False)).run(
            ForcedDuplicates(test_size=3)
        )
        assert report.stats.post_runs_deduped == 0
        assert report.stats.replays_deduped == 0


class TestQuarantinedRepresentativeFallback:
    def test_members_run_when_representative_quarantined(
        self, monkeypatch
    ):
        """A quarantined class representative speaks for nobody: the
        members it spoke for run themselves in a fallback wave, so
        only the representative's own outcome is lost."""
        import repro.core.frontend as frontend_mod

        broken_fid = 1  # representative of the duplicate class {1,2,3}
        original = frontend_mod.run_post_task

        def flaky_run_post_task(ctx, key):
            if key[0] == broken_fid:
                raise HarnessError(
                    "injected representative fault", phase="post_exec"
                )
            return original(ctx, key)

        monkeypatch.setattr(
            frontend_mod, "run_post_task", flaky_run_post_task
        )
        # Serial on purpose: the fault is a parent-side patch, and the
        # asserted incident list is the serial schedule's.
        report = XFDetector(
            _config(True, retry_backoff=0.0, jobs=1)
        ).run(ForcedDuplicates(test_size=2))
        monkeypatch.setattr(frontend_mod, "run_post_task", original)
        clean = XFDetector(_config(True)).run(
            ForcedDuplicates(test_size=2)
        )
        # Sanity: the broken fid really is a multi-member class rep.
        assert clean.stats.post_runs_deduped > 0

        assert report.degraded
        assert [
            incident.failure_point for incident in report.incidents
        ] == [broken_fid]
        metrics = report.telemetry.metrics
        assert metrics.value("dedup_fallback_runs") > 0
        # Every outcome except the representative's own survived.
        assert (
            report.stats.post_runs_analyzed
            == clean.stats.post_runs_analyzed - 1
        )
        clean_bugs = [
            bug for bug in clean.to_dict(unique=False)["bugs"]
            if bug["failure_point"] != broken_fid
        ]
        report_bugs = report.to_dict(unique=False)["bugs"]
        assert report_bugs == clean_bugs


class TestNoDedupEscapeHatch:
    def test_cli_no_dedup_flag(self, capsys):
        from repro.cli import main

        status = main([
            "run", "hashmap_tx", "--test", "1", "--no-dedup",
            "--json",
        ])
        import json

        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["stats"]["post_runs_deduped"] == 0
        assert payload["stats"]["replays_deduped"] == 0

    def test_env_knob_disables_dedup(self, monkeypatch):
        monkeypatch.setenv("XFD_DEDUP", "0")
        config = DetectorConfig()
        assert config.dedup is False
        assert config.replay_memo is False
        monkeypatch.setenv("XFD_DEDUP", "1")
        config = DetectorConfig()
        assert config.dedup is True
        assert config.replay_memo is True


class TestDescribe:
    def test_post_run_and_result_describe_dedup(self):
        result = None
        report = XFDetector(_config(True)).run(
            ForcedDuplicates(test_size=2)
        )
        assert report.stats.post_runs_deduped > 0

        from repro.core.frontend import Frontend

        result = Frontend(_config(True)).run(
            ForcedDuplicates(test_size=2)
        )
        assert "dedup_classes=" in result.describe()
        cloned = [run for run in result.post_runs if run.deduped]
        assert cloned
        assert "cloned" in repr(cloned[0])
        assert "dedup_class=" in cloned[0].describe()
