"""End-to-end live telemetry: a real detection run with every sink
attached, the byte-identical-report guarantee with telemetry on, the
event-stream determinism contract, and the HTML report CLI."""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.core import DetectorConfig, XFDetector
from repro.exec import ProcessExecutor
from repro.obs import run_records
from repro.obs.live import (
    EVENT_KINDS,
    NONDETERMINISTIC_KINDS,
    event_from_dict,
    normalized_stream,
    parse_exposition,
    read_events,
)
from repro.workloads import HashmapAtomicWorkload

#: A schema-v1 event stream of a run with crash-state dedup classes
#: (four post-failure clones and four replay clones).
V1_DEDUP_STREAM = (
    Path(__file__).resolve().parents[1] / "fixtures"
    / "live_v1_dedup_hit.ndjson"
)

#: A schema-v1 stream from the since-removed job daemon: its own
#: ``job_*``/``shard_*``/``drain_*`` events (one job of two shards, one
#: shard SIGKILLed and reclaimed, then a drain) merged by timestamp
#: with the runs its shards streamed into the job's event file.
V1_SERVICE_STREAM = (
    Path(__file__).resolve().parents[1] / "fixtures"
    / "live_v1_service_kinds.ndjson"
)

#: Every kind only the job daemon emitted.
SERVICE_KINDS = {
    "job_submitted", "job_state", "shard_dispatched",
    "shard_completed", "shard_reclaimed", "drain_started",
    "drain_finished",
}


def _workload():
    return HashmapAtomicWorkload(
        faults={"skip_persist_count"}, test_size=3
    )


needs_fork = pytest.mark.skipif(
    not ProcessExecutor.available(), reason="needs the fork start method"
)


def _run(tmp_path, tag, jobs=1, executor="serial", progress=None,
         prom=False, **extra):
    events_path = str(tmp_path / f"{tag}.ndjson")
    config_kwargs = {
        "jobs": jobs,
        "executor": executor,
        "events": events_path,
        "progress": progress,
        "heartbeat_interval": 0.01,
        **extra,
    }
    prom_path = None
    if prom:
        prom_path = str(tmp_path / f"{tag}.prom")
        config_kwargs["prom_textfile"] = prom_path
    detector = XFDetector(DetectorConfig(**config_kwargs))
    try:
        report = detector.run(_workload())
    finally:
        detector.telemetry.close()
    return report, read_events(events_path), prom_path


def _report_dict(report):
    data = report.to_dict(unique=False)
    data["stats"] = {
        key: value for key, value in data["stats"].items()
        if not key.endswith("seconds")
    }
    return data


class TestLiveRun:
    def test_full_run_emits_the_whole_taxonomy(self, tmp_path):
        report, events, prom_path = _run(
            tmp_path, "full", prom=True
        )
        kinds = [event.kind for event in events]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        # Every run produces at least one heartbeat, however short.
        assert kinds.count("heartbeat") >= 1
        for expected in (
            "phase_started", "phase_finished", "point_injected",
            "point_dispatched", "point_completed", "finding",
        ):
            assert expected in kinds, f"missing {expected}"
        assert set(kinds) <= EVENT_KINDS
        # One run id throughout; sequence strictly increasing.
        assert len({event.run_id for event in events}) == 1
        seqs = [event.seq for event in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # Phase lifecycle covers the full pipeline.
        phases = [
            e.data["phase"] for e in events
            if e.kind == "phase_started"
        ]
        assert phases == ["setup", "pre_failure", "post_exec",
                          "backend"]
        # The finding events mirror the report's bug list.
        findings = [e for e in events if e.kind == "finding"]
        assert len(findings) == len(report.bugs)
        assert {e.data["bug_kind"] for e in findings} \
            == {bug.kind.name for bug in report.bugs}
        # point_injected count matches the stats.
        assert kinds.count("point_injected") \
            == report.stats.failure_points
        # run_finished carries only deterministic counters.
        final = events[-1]
        assert final.data["findings"] == len(report.bugs)
        assert not any(
            key.endswith("seconds") for key in final.data["stats"]
        )
        # The Prometheus textfile parses and carries both registry
        # metrics and run-progress gauges.
        families = parse_exposition(open(prom_path).read())
        assert "xfd_failure_points_injected" in families
        assert "xfd_run_findings" in families
        assert families["xfd_run_finished"]["samples"][0][2] == 1.0

    def test_report_identical_with_telemetry_on_and_off(
        self, tmp_path
    ):
        plain = XFDetector(DetectorConfig())
        baseline = plain.run(_workload())
        plain.telemetry.close()
        observed, _events, _prom = _run(
            tmp_path, "observed", prom=True
        )
        assert _report_dict(observed) == _report_dict(baseline)
        base_records = [
            r for r in run_records(baseline, unique=False)
            if r.get("type") == "finding"
        ]
        obs_records = [
            r for r in run_records(observed, unique=False)
            if r.get("type") == "finding"
        ]
        assert obs_records == base_records

    @needs_fork
    def test_event_stream_is_schedule_independent(self, tmp_path):
        _report, serial_events, _ = _run(tmp_path, "serial")
        _report, process_events, _ = _run(
            tmp_path, "process", jobs=4, executor="process"
        )
        assert normalized_stream(serial_events) \
            == normalized_stream(process_events)
        _report, cold_events, _ = _run(
            tmp_path, "cold", jobs=4, executor="process",
            warm_pool=False,
        )
        assert normalized_stream(serial_events) \
            == normalized_stream(cold_events)


@needs_fork
class TestWorkerSpans:
    def test_pool_workers_ship_span_trees(self):
        """The PR-3 blind spot: pooled runs used to lose all worker
        span detail.  Now every post_run tree arrives with its worker
        tag and its children intact."""
        config = DetectorConfig(jobs=4, executor="process")
        detector = XFDetector(config)
        report = detector.run(_workload())
        detector.telemetry.close()
        spans = report.telemetry.spans
        post_runs = [
            span for span, _depth in spans.walk()
            if span.name == "post_run"
        ]
        assert len(post_runs) == report.stats.failure_points
        for span in post_runs:
            assert span.attrs.get("worker")
            assert [c.name for c in span.children] \
                == ["materialize_image", "recovery"]
            assert span.duration > 0

    def test_folded_output_covers_worker_trees(self):
        config = DetectorConfig(jobs=2, executor="process")
        detector = XFDetector(config)
        report = detector.run(_workload())
        detector.telemetry.close()
        folded = report.telemetry.spans.folded()
        paths = [line.rsplit(" ", 1)[0] for line in folded]
        assert "run;post_run;recovery" in paths
        assert all(
            line.rsplit(" ", 1)[1].isdigit() for line in folded
        )


class TestReportCli:
    def test_report_subcommand_renders_html(self, tmp_path, capsys):
        events_path = str(tmp_path / "run.ndjson")
        ndjson_path = str(tmp_path / "records.ndjson")
        rc = cli.main([
            "run", "hashmap_atomic",
            "--fault", "skip_persist_count",
            "--test", "3",
            "--events", events_path,
            "--ndjson", ndjson_path,
            "--quiet",
        ])
        assert rc == 1  # the injected fault is a real finding
        out_path = str(tmp_path / "report.html")
        rc = cli.main([
            "report", events_path,
            "--ndjson", ndjson_path,
            "--out", out_path,
            "--title", "smoke",
        ])
        assert rc == 0
        html = open(out_path).read()
        assert html.startswith("<!DOCTYPE html")
        assert "smoke" in html
        assert "hashmap_atomic" in html
        # Self-contained: no external fetches of any kind.
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html
        # The joined span records produce the flamegraph section.
        assert "Span profile" in html
        assert 'class="flame"' in html
        assert capsys.readouterr().out.count("report.html") >= 1

    def test_report_renders_v1_stream_with_dedup_hit(
        self, tmp_path, capsys
    ):
        """A v1 stream recorded while crash-state dedup classes still
        existed carries ``dedup_hit`` records; it still loads through
        ``event_from_dict`` and renders."""
        lines = V1_DEDUP_STREAM.read_text().splitlines()
        events = [event_from_dict(json.loads(line)) for line in lines]
        assert sum(e.kind == "dedup_hit" for e in events) == 8
        out_path = tmp_path / "report.html"
        rc = cli.main([
            "report", str(V1_DEDUP_STREAM), "--out", str(out_path),
        ])
        assert rc == 0
        html = out_path.read_text()
        assert "forced_duplicates" in html
        # One heatmap cell per executed post-failure point.
        assert html.count('<div class="cell"') == 4
        assert capsys.readouterr().out.count("report.html") >= 1

    def test_report_renders_v1_stream_with_service_kinds(
        self, tmp_path, capsys
    ):
        """A v1 stream recorded while the job daemon existed carries
        its job, shard and drain kinds; it still loads through
        ``event_from_dict`` and renders."""
        lines = V1_SERVICE_STREAM.read_text().splitlines()
        events = [event_from_dict(json.loads(line)) for line in lines]
        assert {e.kind for e in events} >= SERVICE_KINDS
        assert SERVICE_KINDS <= NONDETERMINISTIC_KINDS
        out_path = tmp_path / "report.html"
        rc = cli.main([
            "report", str(V1_SERVICE_STREAM), "--out", str(out_path),
        ])
        assert rc == 0
        assert "hashmap_atomic" in out_path.read_text()
        assert capsys.readouterr().out.count("report.html") >= 1

    def test_report_rejects_corrupt_stream(self, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"v": 99, "kind": "finding"}\n')
        with pytest.raises(SystemExit):
            cli.main(["report", str(bad)])

    def test_default_output_path_derives_from_stream(
        self, tmp_path, monkeypatch
    ):
        events_path = str(tmp_path / "run.ndjson")
        rc = cli.main([
            "run", "hashmap_atomic",
            "--fault", "skip_persist_count",
            "--test", "3",
            "--events", events_path,
            "--quiet",
        ])
        assert rc == 1  # the injected fault is a real finding
        rc = cli.main(["report", events_path])
        assert rc == 0
        assert (tmp_path / "run.html").exists()


class TestProfileCli:
    def test_profile_top_and_folded(self, capsys):
        rc = cli.main([
            "profile", "hashmap_atomic",
            "--fault", "skip_persist_count",
            "--test", "3",
            "--top", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = next(
            i for i, line in enumerate(lines)
            if line.startswith("span")
        )
        assert "self" in lines[header] and "total" in lines[header]
        # --top 5 caps the table at five data rows.
        body = [line for line in lines[header + 1:] if line.strip()]
        assert len(body) == 5
        assert any("recovery" in line for line in body)
        rc = cli.main([
            "profile", "hashmap_atomic",
            "--fault", "skip_persist_count",
            "--test", "3",
            "--folded",
        ])
        assert rc == 0
        folded_out = capsys.readouterr().out
        lines = [l for l in folded_out.splitlines() if l]
        assert lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert value.isdigit()
            assert path.split(";")[0] == "run"
