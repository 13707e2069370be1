"""The live-event schema: round-trips, version guard, bus semantics."""

import json

import pytest

from repro.obs.live import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    LiveBus,
    LiveEvent,
    SchemaVersionError,
    event_from_dict,
    normalized_stream,
    read_events,
)


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class CaptureSink:
    def __init__(self, fail_on=None):
        self.events = []
        self.closed = False
        self.fail_on = fail_on

    def handle(self, event):
        if self.fail_on is not None and event.kind == self.fail_on:
            raise RuntimeError("sink exploded")
        self.events.append(event)

    def close(self):
        self.closed = True

    def kinds(self):
        return [event.kind for event in self.events]


def _bus(*sinks, interval=1.0):
    """A deterministic bus: fake clock, no ticker thread."""
    clock = FakeClock()
    bus = LiveBus(
        sinks, run_id="test-run", clock=clock,
        heartbeat_interval=interval, ticker=False,
    )
    return bus, clock


class TestSchema:
    def test_round_trip(self):
        event = LiveEvent(
            "finding", 7, 123.5, "run-1",
            {"bug_kind": "CROSS_FAILURE_RACE", "fid": 3},
        )
        rebuilt = event_from_dict(event.to_dict())
        assert rebuilt == event

    def test_serialized_form_carries_version(self):
        record = LiveEvent("heartbeat", 1, 0.0, "r", {}).to_dict()
        assert record["v"] == SCHEMA_VERSION

    def test_every_kind_constructs(self):
        for kind in EVENT_KINDS:
            LiveEvent(kind, 1, 0.0, "r", {})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown live-event"):
            LiveEvent("frobnicate", 1, 0.0, "r", {})

    def test_future_schema_version_rejected(self):
        record = LiveEvent("finding", 1, 0.0, "r", {}).to_dict()
        record["v"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaVersionError):
            event_from_dict(record)

    def test_missing_field_rejected(self):
        record = LiveEvent("finding", 1, 0.0, "r", {}).to_dict()
        del record["seq"]
        with pytest.raises(ValueError, match="seq"):
            event_from_dict(record)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict(["not", "a", "dict"])


class TestReadEvents:
    def test_reads_ndjson_and_skips_blanks(self, tmp_path):
        path = tmp_path / "events.ndjson"
        events = [
            LiveEvent("run_started", 1, 1.0, "r", {"workload": "w"}),
            LiveEvent("run_finished", 2, 2.0, "r", {}),
        ]
        path.write_text(
            "\n".join(json.dumps(e.to_dict()) for e in events)
            + "\n\n"
        )
        assert read_events(str(path)) == events

    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "events.ndjson"
        ok = json.dumps(
            LiveEvent("heartbeat", 1, 0.0, "r", {}).to_dict()
        )
        path.write_text(ok + "\n{truncated\n")
        with pytest.raises(ValueError, match=":2:"):
            read_events(str(path))


class TestNormalizedStream:
    def test_drops_wallclock_kinds_and_scrubs_fields(self):
        events = [
            LiveEvent("run_started", 1, 1.0, "a",
                      {"workload": "w", "jobs": 4,
                       "executor": "process"}),
            LiveEvent("heartbeat", 2, 1.5, "a", {"points_done": 1}),
            LiveEvent("worker_spawned", 3, 1.6, "a", {"worker": "x"}),
            LiveEvent("point_completed", 4, 2.0, "a",
                      {"fid": 0, "worker": "x", "seconds": 0.25}),
            LiveEvent("worker_died", 5, 2.1, "a", {"worker": "x"}),
        ]
        projected = normalized_stream(events)
        kinds = [record["kind"] for record in projected]
        assert "heartbeat" not in kinds
        assert "worker_spawned" not in kinds
        assert "worker_died" not in kinds
        for record in projected:
            assert "ts" not in record and "seq" not in record
            assert "worker" not in record["data"]
            assert "seconds" not in record["data"]
            assert "jobs" not in record["data"]
            assert "executor" not in record["data"]

    def test_projection_ignores_envelope_noise(self):
        """Same logical stream, different run ids / timing / order →
        equal projections."""
        a = [
            LiveEvent("point_completed", 1, 1.0, "a",
                      {"fid": 0, "seconds": 0.5}),
            LiveEvent("finding", 2, 1.2, "a", {"fid": 0}),
        ]
        b = [
            LiveEvent("finding", 9, 7.7, "b", {"fid": 0}),
            LiveEvent("heartbeat", 10, 7.8, "b", {}),
            LiveEvent("point_completed", 11, 8.0, "b",
                      {"fid": 0, "seconds": 0.1}),
        ]
        assert normalized_stream(a) == normalized_stream(b)


class TestLiveBus:
    def test_events_fan_out_with_envelopes(self):
        sink = CaptureSink()
        bus, clock = _bus(sink)
        bus.emit("run_started", workload="w")
        clock.advance(0.1)
        bus.emit("point_injected", fid=0, reason="flush")
        assert sink.kinds() == ["run_started", "point_injected"]
        first, second = sink.events
        assert first.run_id == "test-run"
        assert second.seq > first.seq
        assert second.ts > first.ts

    def test_progress_aggregate_follows_stream(self):
        bus, _clock = _bus(CaptureSink())
        bus.emit("run_started", workload="w")
        bus.emit("phase_started", phase="post_exec", points=4)
        bus.emit("point_completed", phase="post_exec", fid=0)
        bus.emit("dedup_hit", stage="post_exec", fid=1)
        bus.emit("finding", bug_kind="PERFORMANCE")
        bus.emit("incident", incident_kind="hang")
        progress = bus.progress
        assert progress.workload == "w"
        assert progress.points_total == 4
        assert progress.points_done == 2  # completion + dedup clone
        assert progress.findings == 1
        assert progress.incidents == 1
        assert progress.dedup_ratio() == pytest.approx(0.5)

    def test_worker_lifecycle_synthesized(self):
        sink = CaptureSink()
        bus, _clock = _bus(sink)
        bus.emit("point_completed", fid=0, worker="pid-7")
        bus.emit("point_completed", fid=1, worker="pid-7")
        bus.emit(
            "incident", incident_kind="worker-death", phase="post_exec"
        )
        kinds = sink.kinds()
        assert kinds.count("worker_spawned") == 1
        assert kinds.count("worker_died") == 1
        assert kinds.index("worker_spawned") \
            < kinds.index("point_completed")

    def test_heartbeat_cadence_and_final_beat(self):
        sink = CaptureSink()
        bus, clock = _bus(sink, interval=1.0)
        bus.emit("run_started", workload="w")
        bus.emit("point_completed", fid=0)  # interval not yet elapsed
        clock.advance(1.5)
        bus.emit("point_completed", fid=1)  # elapsed → heartbeat
        bus.emit("run_finished")            # forced final heartbeat
        kinds = sink.kinds()
        assert kinds.count("heartbeat") == 2
        assert kinds[-1] == "run_finished"
        assert kinds[-2] == "heartbeat"
        # The beat follows the event that triggered it, so both
        # completions are already aggregated.
        beat = next(e for e in sink.events if e.kind == "heartbeat")
        assert beat.data["points_done"] == 2
        assert "elapsed_seconds" in beat.data

    def test_broken_sink_is_dropped_not_fatal(self, capsys):
        broken = CaptureSink(fail_on="finding")
        healthy = CaptureSink()
        bus, _clock = _bus(broken, healthy)
        bus.emit("finding", bug_kind="PERFORMANCE")
        bus.emit("point_completed", fid=0)
        assert "disabling it" in capsys.readouterr().err
        assert broken.kinds() == []  # dropped at the failing event
        assert healthy.kinds() == ["finding", "point_completed"]

    def test_close_is_idempotent_and_silences_emit(self):
        sink = CaptureSink()
        bus, _clock = _bus(sink)
        bus.emit("run_started", workload="w")
        bus.close()
        bus.close()
        assert sink.closed
        assert bus.emit("finding") is None
        assert sink.kinds() == ["run_started"]
