"""Unit coverage for the service package's pure parts.

Job specs, the job/shard state machine, shard planning, journal
merging, reaper policy (staleness + backoff + budgets), the journal
fsync knobs, deterministic retry jitter, and the doctor's findings —
everything that can be tested without forking a fleet.
"""

import json
import os
import time

import pytest

from repro.core import DetectorConfig
from repro.errors import JournalError
from repro.resilience import RunJournal, jitter_unit
from repro.resilience.journal import (
    _digest_ip,
    read_journal_records,
)
from repro.resilience.supervisor import PhaseSupervisor
from repro.service import JobStore, Reaper
from repro.service.jobstore import JobRecord, ShardRecord, StateError
from repro.service.shard import (
    HeartbeatSink,
    merge_shard_journals,
    plan_shards,
)
from repro.service.spec import JobSpec, SpecError


# ----------------------------------------------------------------------
# JobSpec
# ----------------------------------------------------------------------


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec(
            workload="btree", faults=["skip_add_leaf"], test_size=3,
            shards=4, label="nightly",
        )
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_workload_refused(self):
        with pytest.raises(SpecError):
            JobSpec(workload="nope")

    def test_unknown_field_refused(self):
        with pytest.raises(SpecError):
            JobSpec.from_dict({"workload": "btree", "bogus": 1})

    def test_bad_label_refused(self):
        with pytest.raises(SpecError):
            JobSpec(workload="btree", label="no spaces allowed")

    def test_shards_and_sizes_coerced(self):
        spec = JobSpec(workload="btree", shards=0, test_size=1)
        assert spec.shards == 1

    def test_detector_config_disables_progress(self):
        config = JobSpec(workload="btree").detector_config()
        assert config.progress is False
        assert isinstance(config, DetectorConfig)

    def test_detector_config_window_override(self):
        config = JobSpec(workload="btree").detector_config(
            failure_point_window=(3, 7)
        )
        assert config.failure_point_window == (3, 7)


# ----------------------------------------------------------------------
# Job/shard state machine
# ----------------------------------------------------------------------


class TestJobRecord:
    def _record(self):
        return JobRecord(job_id="j1")

    def test_happy_path(self):
        record = self._record()
        record.advance("RUNNING")
        record.advance("DONE")
        assert record.finished

    def test_illegal_transition_refused(self):
        record = self._record()
        with pytest.raises(StateError):
            record.advance("DONE")  # PENDING cannot jump to DONE

    def test_terminal_is_terminal(self):
        record = self._record()
        record.advance("RUNNING")
        record.advance("FAILED", "boom")
        with pytest.raises(StateError):
            record.advance("RUNNING")

    def test_degraded_can_finish(self):
        record = self._record()
        record.advance("RUNNING")
        record.advance("DEGRADED", "shard 1 abandoned")
        assert not record.finished
        record.finalize_degraded()
        assert record.finished and record.state == "DEGRADED"

    def test_shards_settled(self):
        record = self._record()
        assert not record.shards_settled()  # no shards yet
        record.shards = [
            ShardRecord(shard_id=0, lo=0, hi=4, points=4,
                        status="done"),
            ShardRecord(shard_id=1, lo=4, hi=8, points=4,
                        status="abandoned"),
        ]
        assert record.shards_settled()
        record.shards[1].status = "running"
        assert not record.shards_settled()

    def test_roundtrip(self):
        record = self._record()
        record.advance("RUNNING")
        record.planned_points = 7
        record.shards = [
            ShardRecord(shard_id=0, lo=0, hi=7, points=7,
                        status="done", attempts=2, reclaims=1,
                        summary={"bugs": 3}),
        ]
        again = JobRecord.from_dict(record.to_dict())
        assert again.to_dict() == record.to_dict()
        assert again.shard(0).summary == {"bugs": 3}


class TestJobStore:
    def test_create_load_list(self, tmp_path):
        store = JobStore(str(tmp_path))
        spec = JobSpec(workload="btree", test_size=2)
        record = store.create(spec)
        assert store.list_jobs() == [record.job_id]
        assert store.load(record.job_id).state == "PENDING"
        assert store.load_spec(record.job_id) == spec

    def test_job_ids_unique(self, tmp_path):
        store = JobStore(str(tmp_path))
        spec = JobSpec(workload="btree")
        ids = {store.create(spec).job_id for _ in range(3)}
        assert len(ids) == 3


class TestSchedulerRecovery:
    def test_unreadable_spec_fails_one_job_not_the_daemon(
            self, tmp_path, monkeypatch):
        from repro.obs import Telemetry
        from repro.service.scheduler import Scheduler

        store = JobStore(str(tmp_path))
        stale = store.create(JobSpec(workload="btree"))
        good = store.create(JobSpec(workload="ctree"))
        for record in (stale, good):
            record.advance("RUNNING")
            store.save(record)
        # A spec persisted by an older daemon that knew a field this
        # version dropped.
        path = store.spec_path(stale.job_id)
        with open(path) as handle:
            data = json.load(handle)
        data["static_prune"] = False
        with open(path, "w") as handle:
            json.dump(data, handle)

        scheduler = Scheduler(store, telemetry=Telemetry())
        monkeypatch.setattr(scheduler.fleet, "start", lambda: None)
        scheduler.start()

        assert list(scheduler.jobs) == [good.job_id]
        failed = store.load(stale.job_id)
        assert failed.state == "FAILED" and failed.finished
        assert "static_prune" in failed.detail
        assert store.load(good.job_id).state == "RUNNING"


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------


class TestPlanShards:
    def test_contiguous_cover(self):
        ranges = plan_shards(list(range(10)), 3)
        assert ranges == [(0, 4, 4), (4, 8, 4), (8, 10, 2)]

    def test_more_shards_than_points(self):
        ranges = plan_shards([0, 1], 5)
        assert ranges == [(0, 1, 1), (1, 2, 1)]

    def test_sparse_fids(self):
        # Failure points pruned by plans leave holes; ranges follow
        # the surviving fids, not the dense numbering.
        ranges = plan_shards([2, 3, 9, 12], 2)
        assert ranges == [(2, 4, 2), (9, 13, 2)]
        assert sum(points for _lo, _hi, points in ranges) == 4

    def test_empty(self):
        assert plan_shards([], 4) == []


# ----------------------------------------------------------------------
# Journal merging
# ----------------------------------------------------------------------


def _write_journal(path, checksum, fids):
    with open(path, "w") as handle:
        handle.write(json.dumps({
            "type": "header", "version": 1, "checksum": checksum,
            "workload": "w",
        }) + "\n")
        for fid in fids:
            handle.write(json.dumps({
                "type": "post", "fid": fid, "variant": None,
                "bugs": [], "benign_races": 0, "post_events": 1,
                "recovery_crash": None,
            }) + "\n")


class TestMergeShardJournals:
    def test_merges_disjoint_shards(self, tmp_path):
        a = str(tmp_path / "a.journal")
        b = str(tmp_path / "b.journal")
        merged = str(tmp_path / "merged.journal")
        _write_journal(a, "c" * 64, [0, 1])
        _write_journal(b, "c" * 64, [2, 3])
        count, skipped = merge_shard_journals([a, b], merged)
        assert (count, skipped) == (4, [])
        header, posts = read_journal_records(merged)
        assert header["checksum"] == "c" * 64
        assert sorted(fid for fid, _variant in posts) == [0, 1, 2, 3]

    def test_keeps_prior_merged_progress(self, tmp_path):
        a = str(tmp_path / "a.journal")
        merged = str(tmp_path / "merged.journal")
        _write_journal(a, "c" * 64, [0])
        _write_journal(merged, "c" * 64, [5])
        count, _skipped = merge_shard_journals([a], merged)
        assert count == 2
        _header, posts = read_journal_records(merged)
        assert sorted(fid for fid, _variant in posts) == [0, 5]

    def test_mismatched_checksum_skipped(self, tmp_path):
        a = str(tmp_path / "a.journal")
        b = str(tmp_path / "b.journal")
        merged = str(tmp_path / "merged.journal")
        _write_journal(a, "c" * 64, [0])
        _write_journal(b, "d" * 64, [1])
        count, skipped = merge_shard_journals([a, b], merged)
        assert count == 1
        assert skipped == [b]

    def test_torn_tail_tolerated(self, tmp_path):
        a = str(tmp_path / "a.journal")
        merged = str(tmp_path / "merged.journal")
        _write_journal(a, "c" * 64, [0, 1])
        with open(a, "a") as handle:
            handle.write('{"type": "post", "fid": 2')  # SIGKILL here
        count, skipped = merge_shard_journals([a], merged)
        assert (count, skipped) == (2, [])

    def test_unreadable_journal_skipped(self, tmp_path):
        a = str(tmp_path / "a.journal")
        merged = str(tmp_path / "merged.journal")
        with open(a, "w") as handle:
            handle.write("not a journal\n")
        count, skipped = merge_shard_journals([a], merged)
        assert count == 0
        assert skipped == [a]
        assert not os.path.exists(merged)

    def test_missing_files_ignored(self, tmp_path):
        merged = str(tmp_path / "merged.journal")
        count, skipped = merge_shard_journals(
            [str(tmp_path / "never-ran.journal")], merged
        )
        assert (count, skipped) == (0, [])


# ----------------------------------------------------------------------
# Reaper policy
# ----------------------------------------------------------------------


class TestReaper:
    def _reaper(self, now, **kwargs):
        clock = lambda: now[0]  # noqa: E731 — mutable fake clock
        kwargs.setdefault("heartbeat_timeout", 10.0)
        return Reaper(clock=clock, **kwargs)

    def test_fresh_heartbeat_not_stale(self, tmp_path):
        now = [1000.0]
        reaper = self._reaper(now)
        hb = str(tmp_path / "hb")
        with open(hb, "w") as handle:
            handle.write("{}")
        os.utime(hb, (now[0] - 1, now[0] - 1))
        assert not reaper.is_stale(hb, dispatched_at=now[0] - 60)

    def test_silent_shard_judged_from_dispatch(self, tmp_path):
        now = [1000.0]
        reaper = self._reaper(now)
        missing = str(tmp_path / "never-written")
        assert not reaper.is_stale(missing, dispatched_at=now[0] - 5)
        assert reaper.is_stale(missing, dispatched_at=now[0] - 11)

    def test_wall_timeout_beats_heartbeats(self, tmp_path):
        now = [1000.0]
        reaper = self._reaper(now, shard_timeout=30.0)
        hb = str(tmp_path / "hb")
        with open(hb, "w") as handle:
            handle.write("{}")
        os.utime(hb, (now[0], now[0]))  # beating right now
        assert reaper.is_stale(hb, dispatched_at=now[0] - 31)

    def test_reclaim_backoff_grows_and_caps(self):
        now = [0.0]
        reaper = self._reaper(now, max_shard_retries=50,
                              backoff_base=0.5)
        shard = ShardRecord(shard_id=0, lo=0, hi=4, points=4,
                            status="running")
        delays = []
        for _ in range(8):
            assert reaper.reclaim(shard) == "requeued"
            delays.append(shard.eligible_at - now[0])
            shard.status = "running"
        bases = [
            delay / (1.0 + jitter_unit(0, attempt + 1, 0))
            for attempt, delay in enumerate(delays)
        ]
        assert bases[0] == pytest.approx(0.5)
        assert bases[1] == pytest.approx(1.0)
        assert bases[7] == pytest.approx(30.0)  # capped

    def test_budget_exhaustion_abandons(self):
        now = [0.0]
        reaper = self._reaper(now, max_shard_retries=2)
        shard = ShardRecord(shard_id=1, lo=0, hi=4, points=4,
                            status="running")
        assert reaper.reclaim(shard) == "requeued"
        assert reaper.reclaim(shard) == "requeued"
        assert reaper.reclaim(shard) == "abandoned"
        assert shard.status == "abandoned"

    def test_reclaims_do_not_count_dispatch_attempts(self):
        now = [0.0]
        reaper = self._reaper(now)
        shard = ShardRecord(shard_id=0, lo=0, hi=4, points=4,
                            status="running", attempts=3)
        reaper.reclaim(shard)
        assert shard.attempts == 3
        assert shard.reclaims == 1


# ----------------------------------------------------------------------
# Journal fsync knobs (satellite)
# ----------------------------------------------------------------------


class TestJournalFsync:
    def _journal(self, tmp_path, monkeypatch, **kwargs):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        journal = RunJournal(str(tmp_path / "r.journal"), **kwargs)
        journal.begin("e" * 64, "w")
        return journal, calls

    def _post(self, journal, fid):
        journal.record_post(
            fid, None, events=1, has_roi=False, crash_repr=None,
            bugs=[], benign_races=0,
        )

    def test_default_no_fsync(self, tmp_path, monkeypatch):
        journal, calls = self._journal(tmp_path, monkeypatch)
        self._post(journal, 0)
        journal.close()
        assert calls == []

    def test_fsync_every_record(self, tmp_path, monkeypatch):
        journal, calls = self._journal(
            tmp_path, monkeypatch, fsync=True
        )
        before = len(calls)  # header write syncs too
        assert before >= 1
        self._post(journal, 0)
        self._post(journal, 1)
        assert len(calls) == before + 2
        journal.close()

    def test_fsync_batching(self, tmp_path, monkeypatch):
        journal, calls = self._journal(
            tmp_path, monkeypatch, fsync=True, fsync_batch=3
        )
        start = len(calls)
        for fid in range(4):
            self._post(journal, fid)
        # header + 4 posts at batch 3: one sync at the 3rd record;
        # the 2 pending records sync on close.
        assert len(calls) == start + 1
        journal.close()
        assert len(calls) == start + 2

    def test_env_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XFD_JOURNAL_FSYNC", "1")
        monkeypatch.setenv("XFD_JOURNAL_FSYNC_BATCH", "7")
        config = DetectorConfig()
        assert config.journal_fsync is True
        assert config.journal_fsync_batch == 7

    def test_from_config_wires_knobs(self, tmp_path):
        config = DetectorConfig(
            journal=str(tmp_path / "j.journal"),
            journal_fsync=True, journal_fsync_batch=4,
        )
        journal = RunJournal.from_config(config)
        assert journal.fsync is True
        assert journal.fsync_batch == 4
        journal.close()


# ----------------------------------------------------------------------
# Deterministic retry jitter (satellite)
# ----------------------------------------------------------------------


class TestRetryJitter:
    def test_unit_range_and_determinism(self):
        seen = set()
        for fid in range(50):
            for attempt in (1, 2, 3):
                u = jitter_unit(fid, attempt, salt=7)
                assert 0.0 <= u < 1.0
                assert u == jitter_unit(fid, attempt, salt=7)
                seen.add(round(u, 6))
        assert len(seen) > 100  # actually spreads

    def test_salt_decorrelates(self):
        a = [jitter_unit(fid, 1, salt=1) for fid in range(20)]
        b = [jitter_unit(fid, 1, salt=2) for fid in range(20)]
        assert a != b

    def _slept(self, generation, pending, **config_kwargs):
        from repro.resilience import IncidentLog

        delays = []
        supervisor = PhaseSupervisor(
            "post_exec", DetectorConfig(**config_kwargs),
            IncidentLog(), sleep=delays.append,
        )
        supervisor._backoff(generation, pending)
        return delays

    def test_backoff_applies_jitter(self):
        pending = [(3, None, None)]
        (plain,) = self._slept(
            1, pending, retry_backoff=1.0, retry_jitter=0.0
        )
        (spread,) = self._slept(
            1, pending, retry_backoff=1.0, retry_jitter=0.5
        )
        expected = plain * (1.0 + 0.5 * jitter_unit(3, 1, 0))
        assert spread == pytest.approx(expected)
        assert spread >= plain

    def test_salted_supervisors_desynchronize(self):
        pending = [(3, None, None)]
        delays = {
            salt: self._slept(
                1, pending, retry_backoff=1.0, retry_jitter=0.5,
                retry_jitter_salt=salt,
            )[0]
            for salt in (1, 2)
        }
        assert delays[1] != delays[2]

    def test_zero_backoff_never_sleeps(self):
        assert self._slept(
            1, [(0, None, None)],
            retry_backoff=0.0, retry_jitter=0.5,
        ) == []


# ----------------------------------------------------------------------
# Checksum driver-independence
# ----------------------------------------------------------------------


class TestChecksumDigestIp:
    def test_workload_frames_digested(self):
        from repro._location import SourceLocation

        ip = SourceLocation(
            "/x/src/repro/workloads/btree.py", 42, "insert"
        )
        assert _digest_ip(ip) == "btree.py:42:insert"

    def test_driver_frames_normalized(self):
        from repro._location import UNKNOWN_LOCATION, SourceLocation

        for ip in (
            SourceLocation("/x/src/repro/service/shard.py", 199,
                           "run_shard"),
            SourceLocation("<stdin>", 3, "<module>"),
            SourceLocation("/usr/lib/python3.11/contextlib.py", 137,
                           "__enter__"),
            UNKNOWN_LOCATION,
        ):
            assert _digest_ip(ip) == "<engine>"


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------


class TestHeartbeatSink:
    class _Event:
        def __init__(self, kind, **data):
            self.kind = kind
            self.ts = 1.0
            self.data = data

    def test_writes_on_beat_kinds_only(self, tmp_path):
        path = str(tmp_path / "hb")
        sink = HeartbeatSink(path)
        sink.handle(self._Event("point_started", fid=1))
        assert not os.path.exists(path)
        sink.handle(self._Event("heartbeat", done=3, total=9))
        assert sink.beats == 1
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["kind"] == "heartbeat"
        assert payload["data"] == {"done": 3, "total": 9}

    def test_non_scalar_data_dropped(self, tmp_path):
        path = str(tmp_path / "hb")
        sink = HeartbeatSink(path)
        sink.handle(self._Event(
            "heartbeat", done=1, stats={"nested": True}
        ))
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["data"] == {"done": 1}

    def test_mtime_advances(self, tmp_path):
        path = str(tmp_path / "hb")
        sink = HeartbeatSink(path)
        sink.handle(self._Event("heartbeat"))
        os.utime(path, (1.0, 1.0))
        sink.handle(self._Event("heartbeat"))
        assert os.stat(path).st_mtime > 1.0


# ----------------------------------------------------------------------
# Doctor
# ----------------------------------------------------------------------


class TestDoctor:
    def test_finished_job_litter_found_and_cleaned(
        self, tmp_path, monkeypatch
    ):
        from repro.service import doctor
        from repro.service.doctor import clean_findings, diagnose

        # The shm scan is host-wide: a segment a SIGKILLed worker of
        # an earlier test orphaned would be found and cleaned too.
        monkeypatch.setattr(doctor, "find_orphan_segments", lambda: [])
        store = JobStore(str(tmp_path))
        record = store.create(JobSpec(workload="btree"))
        record.advance("RUNNING")
        record.advance("DONE")
        store.save(record)
        shard_path = store.shard_journal_path(record.job_id, 0)
        _write_journal(shard_path, "c" * 64, [0])
        report_path = store.report_path(record.job_id, "text")
        with open(report_path, "w") as handle:
            handle.write("report\n")

        findings = diagnose(str(tmp_path))
        litter = [f for f in findings if f["kind"] == "job_litter"]
        assert [f["path"] for f in litter] == [shard_path]

        removed, kept = clean_findings(findings)
        assert not os.path.exists(shard_path)
        assert os.path.exists(report_path)  # reports are sacred
        assert [f["path"] for f in removed] == [shard_path]

    @pytest.mark.skipif(
        not os.path.isdir("/proc") or not os.path.isdir("/dev/shm"),
        reason="orphan scan needs procfs and /dev/shm",
    )
    def test_segment_born_during_scan_is_not_an_orphan(
        self, monkeypatch
    ):
        """A live run may create a segment while the doctor reads the
        process maps; it must not be reported (and cleaned) as a
        leak."""
        from multiprocessing import shared_memory

        from repro.service import doctor

        born = []
        scan = doctor._mapped_shm_names

        def scan_then_create():
            mapped = scan()
            born.append(
                shared_memory.SharedMemory(create=True, size=4096)
            )
            return mapped

        monkeypatch.setattr(doctor, "_mapped_shm_names", scan_then_create)
        try:
            paths = [f["path"] for f in doctor.find_orphan_segments()]
            assert born
            assert os.path.join("/dev/shm", born[0].name) not in paths
        finally:
            for segment in born:
                segment.close()
                segment.unlink()

    def test_unfinished_job_untouched(self, tmp_path):
        from repro.service.doctor import diagnose

        store = JobStore(str(tmp_path))
        record = store.create(JobSpec(workload="btree"))
        record.advance("RUNNING")
        store.save(record)
        shard_path = store.shard_journal_path(record.job_id, 0)
        _write_journal(shard_path, "c" * 64, [0])
        findings = diagnose(str(tmp_path))
        assert not any(
            f["kind"] == "job_litter" for f in findings
        )
        resumable = [
            f for f in findings if f["kind"] == "resumable_job"
        ]
        assert [f["job"] for f in resumable] == [record.job_id]

    def test_stale_daemon_detected(self, tmp_path):
        from repro.service.doctor import clean_findings, diagnose
        from repro.service.jobstore import atomic_write_json

        store = JobStore(str(tmp_path))
        atomic_write_json(store.daemon_path(), {
            "state": "serving", "pid": 2 ** 22 + 12345,
            "host": "127.0.0.1", "port": 1,
            "url": "http://127.0.0.1:1",
        })
        findings = diagnose(str(tmp_path))
        stale = [f for f in findings if f["kind"] == "stale_daemon"]
        assert len(stale) == 1
        clean_findings(findings)
        assert not os.path.exists(store.daemon_path())

    def test_live_daemon_not_stale(self, tmp_path):
        from repro.service.doctor import diagnose
        from repro.service.jobstore import atomic_write_json

        store = JobStore(str(tmp_path))
        atomic_write_json(store.daemon_path(), {
            "state": "serving", "pid": os.getpid(),
            "host": "127.0.0.1", "port": 1,
            "url": "http://127.0.0.1:1",
        })
        assert not any(
            f["kind"] == "stale_daemon"
            for f in diagnose(str(tmp_path))
        )

    def test_orphan_job_dir_reported_not_cleaned(self, tmp_path):
        from repro.service.doctor import clean_findings, diagnose

        store = JobStore(str(tmp_path))
        orphan = os.path.join(store.root, "jobs", "half-created")
        os.makedirs(orphan)
        findings = diagnose(str(tmp_path))
        assert any(
            f["kind"] == "orphan_job_dir" for f in findings
        )
        clean_findings(findings)
        assert os.path.isdir(orphan)  # needs a human
