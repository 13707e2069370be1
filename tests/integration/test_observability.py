"""End-to-end telemetry acceptance tests.

Exercises the ISSUE's acceptance flow: an audited detection run on
hashmap_atomic with a Table 5 fault must produce a span tree whose
leaves account for the run's wall-clock, a metrics dump with the
pipeline's key counters, and an audit log whose per-range FSM history
names the same writer as the bug report.
"""

import json

import pytest

from repro.bugsuite.registry import bug_entries, build_workload
from repro.cli import main
from repro.core import DetectorConfig, XFDetector
from repro.obs import read_ndjson
from repro.workloads import ALL_WORKLOADS


@pytest.fixture(scope="module")
def audited_report():
    workload = ALL_WORKLOADS["hashmap_atomic"](
        faults={"bug1_unpersisted_create"}
    )
    return XFDetector(DetectorConfig(audit=True)).run(workload)


class TestSpanProfile:
    def test_leaf_durations_cover_wall_clock(self, audited_report):
        spans = audited_report.telemetry.spans
        # Leaves must sum to within 10% of total wall-clock.
        assert spans.coverage() >= 0.9
        assert spans.leaf_seconds() <= spans.total_seconds() + 1e-9

    def test_span_tree_shape(self, audited_report):
        spans = audited_report.telemetry.spans
        (run,) = spans.roots
        assert run.name == "run"
        assert run.attrs["workload"] == "hashmap_atomic"
        children = [child.name for child in run.children]
        assert children[0] == "setup"
        assert children[1] == "pre_failure"
        assert children[-1] == "backend"
        failure_points = audited_report.stats.failure_points
        assert len(spans.find("post_run")) == failure_points
        assert len(spans.find("post_replay")) == failure_points

    def test_stats_derive_from_spans(self, audited_report):
        telemetry = audited_report.telemetry
        spans = telemetry.spans
        stats = audited_report.stats
        snapshot = telemetry.metrics.timer("snapshot_seconds").total
        pre = (
            spans.first("setup").duration
            + spans.first("pre_failure").duration
            - snapshot
        )
        post = snapshot + sum(
            span.duration for span in spans.find("post_run")
        )
        assert stats.pre_failure_seconds == pytest.approx(pre)
        assert stats.post_failure_seconds == pytest.approx(post)
        assert stats.backend_seconds == pytest.approx(
            spans.first("backend").duration
        )


class TestMetrics:
    def test_required_counters_present(self, audited_report):
        metrics = audited_report.telemetry.metrics
        stats = audited_report.stats
        assert metrics.value("failure_points_injected") == \
            stats.failure_points
        assert metrics.value("post_runs") == stats.failure_points
        assert metrics.value("shadow_transitions_total") > 0
        assert metrics.value("bugs_reported_total") == \
            len(audited_report.bugs)
        # One pre replay + one per failure point, none RoI-scoped
        # (hashmap_atomic does not annotate an RoI).
        assert metrics.value("replays_whole_trace") == \
            stats.failure_points + 1
        assert metrics.value("replays_roi_scoped") == 0
        assert metrics.value("pre_trace_events") == \
            stats.pre_trace_events
        assert metrics.value("post_trace_events") == \
            stats.post_trace_events

    def test_roi_workload_counts_scoped_replays(self):
        from repro.pmdk import I64, ObjectPool, Struct, pmem
        from repro.workloads.base import Workload

        class Root(Struct):
            value = I64()

        class RoIWorkload(Workload):
            name = "roi-obs"
            uses_roi = True

            def setup(self, ctx):
                pool = ObjectPool.create(
                    ctx.memory, "roi", "roi", root_cls=Root
                )
                pool.root.value = 0
                pmem.persist(
                    ctx.memory, pool.root.address, Root.SIZE
                )

            def pre_failure(self, ctx):
                pool = ObjectPool.open(
                    ctx.memory, "roi", "roi", Root
                )
                ctx.interface.roi_begin()
                pool.root.value = 1
                pmem.persist(ctx.memory, pool.root.address, 8)
                ctx.interface.roi_end()

            def post_failure(self, ctx):
                pool = ObjectPool.open(
                    ctx.memory, "roi", "roi", Root
                )
                ctx.interface.roi_begin()
                _ = pool.root.value
                ctx.interface.roi_end()

        report = XFDetector(DetectorConfig()).run(RoIWorkload())
        metrics = report.telemetry.metrics
        assert report.stats.failure_points > 0
        assert metrics.value("replays_roi_scoped") == \
            report.stats.failure_points + 1
        assert metrics.value("replays_whole_trace") == 0


def _assert_races_name_their_writers(report):
    log = report.telemetry.audit
    assert log is not None and len(log) > 0
    races = report.races
    assert races
    for bug in races:
        history = log.history_for(
            bug.address, bug.size, bug.failure_point
        )
        assert history, bug
        assert log.last_writer(
            bug.address, bug.size, bug.failure_point
        ) == str(bug.writer_ip), bug


#: Faulty builds across the Table 4 workloads whose races all carry
#: the writer of a logged FSM transition (a store that changes no
#: persistence/consistency state leaves no audit record to name).
AUDITED_FAULTS = [
    "btree:skip_add_count", "ctree:skip_add_count",
    "rbtree:skip_add_count", "hashmap_tx:skip_add_count",
    "hashmap_tx:unpersisted_create_seed",
    "hashmap_atomic:bug2_uninit_count",
    "hashmap_atomic:nt_value_no_drain",
]


class TestAuditLog:
    def test_bug_range_history_names_the_writer(self, audited_report):
        _assert_races_name_their_writers(audited_report)

    @pytest.mark.parametrize("fault", AUDITED_FAULTS)
    def test_bug_range_history_names_the_writer_per_workload(
        self, fault
    ):
        """The audit history is cut at each failure point's marker
        and every fork records into its own scope, so the per-point
        history names each race's writer on every workload."""
        (bug,) = [
            bug for bug in bug_entries()
            if f"{bug.workload}:{bug.flag}" == fault
        ]
        report = XFDetector(DetectorConfig(audit=True)).run(
            build_workload(bug)
        )
        _assert_races_name_their_writers(report)

    def test_records_carry_context(self, audited_report):
        log = audited_report.telemetry.audit
        stages = {record.stage for record in log}
        assert stages == {"pre", "post"}
        layers = {record.layer for record in log}
        assert "persistence" in layers
        for record in log:
            json.dumps(record.to_dict())  # exportable

    def test_audit_off_by_default(self):
        report = XFDetector(DetectorConfig()).run(
            ALL_WORKLOADS["hashmap_atomic"](
                faults={"bug1_unpersisted_create"}
            )
        )
        assert report.telemetry.audit is None
        assert "audit" not in report.telemetry.to_dict()


class TestCLI:
    def test_run_profile_json(self, capsys):
        code = main([
            "run", "--workload", "hashmap_tx", "--profile", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["telemetry"]["spans"]
        assert "post_runs" in payload["telemetry"]["metrics"]

    def test_run_audit_profile(self, capsys):
        code = main([
            "run", "hashmap_atomic",
            "--fault", "bug1_unpersisted_create",
            "--audit", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 1  # bugs found
        assert "spans (leaf coverage" in out
        assert "failure_points_injected" in out
        assert "shadow_transitions_total" in out
        assert '"type": "audit"' in out

    def test_run_ndjson_sidecar(self, tmp_path, capsys):
        path = tmp_path / "run.ndjson"
        code = main([
            "run", "linkedlist", "--init", "1", "--test", "1",
            "--ndjson", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        types = {record["type"] for record in read_ndjson(path)}
        assert {"stats", "span", "metric"} <= types

    def test_profile_subcommand(self, capsys):
        code = main(["profile", "hashmap_tx"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spans (leaf coverage" in out
        assert "metrics:" in out

    def test_conflicting_workloads_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "btree", "--workload", "ctree"])

    def test_missing_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run"])
