"""Building blocks of the resilience layer (repro.resilience)."""

import pytest

from repro.core.config import DetectorConfig
from repro.errors import (
    ChaosCrash,
    DeadlineExceeded,
    HarnessError,
    JournalError,
    ReproError,
    TraversalLimitError,
)
from repro.exec import ProcessExecutor, SerialExecutor
from repro.resilience import (
    ChaosPolicy,
    Deadline,
    Incident,
    IncidentKind,
    IncidentLog,
    PhaseSupervisor,
    ResilienceContext,
    RunJournal,
    Watchdog,
    classify_failure,
    deserialize_bug,
    read_journal_records,
    serialize_bug,
)
from repro.resilience.journal import _digest_ip
from repro.resilience.supervisor import BACKOFF_CAP
from repro.workloads.base import TraversalGuard


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_step_budget_raises(self):
        deadline = Deadline(max_steps=3)
        for _ in range(3):
            deadline.tick()
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.tick()
        assert excinfo.value.steps == 4

    def test_wall_budget_raises(self):
        clock = FakeClock()
        deadline = Deadline(max_seconds=1.0, clock=clock)
        deadline.tick()
        clock.advance(1.5)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.tick()
        assert excinfo.value.seconds == pytest.approx(1.5)

    def test_no_budget_never_expires(self):
        deadline = Deadline()
        for _ in range(10_000):
            deadline.tick()

    def test_check_time_does_not_count_steps(self):
        deadline = Deadline(max_steps=1)
        deadline.check_time()
        deadline.check_time()
        assert deadline.steps == 0

    def test_deadline_exceeded_survives_pickling(self):
        import pickle

        error = DeadlineExceeded("over budget", steps=7, seconds=1.5)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, DeadlineExceeded)
        assert clone.steps == 7
        assert str(clone) == str(error)


class TestWatchdog:
    def test_fires_after_timeout(self):
        import threading

        fired = threading.Event()
        watchdog = Watchdog(0.01, fired.set)
        assert fired.wait(2.0)
        assert watchdog.fired

    def test_cancel_disarms(self):
        calls = []
        with Watchdog(0.05, lambda: calls.append(1)) as watchdog:
            pass  # context exit cancels immediately
        watchdog._thread.join(2.0)
        assert not watchdog.fired
        assert calls == []


class TestChaosPolicy:
    def test_parse_valid_spec(self):
        policy = ChaosPolicy.parse("crash:0.1,hang:0.05")
        assert policy.rates == {"crash": 0.1, "hang": 0.05}

    def test_parse_drops_malformed_clauses(self):
        policy = ChaosPolicy.parse("crash:0.2,bogus:1,hang:nope,,")
        assert policy.rates == {"crash": 0.2}

    def test_parse_empty_or_useless_is_none(self):
        assert ChaosPolicy.parse("") is None
        assert ChaosPolicy.parse(None) is None
        assert ChaosPolicy.parse("bogus:1") is None
        assert ChaosPolicy.parse("crash:0") is None

    def test_rates_clamped_to_one(self):
        policy = ChaosPolicy.parse("crash:7")
        assert policy.rates == {"crash": 1.0}

    def test_decides_is_deterministic(self):
        policy = ChaosPolicy({"crash": 0.5})
        rolls = [
            policy.decides("crash", "post_exec", fid, 0, 1)
            for fid in range(100)
        ]
        again = [
            policy.decides("crash", "post_exec", fid, 0, 1)
            for fid in range(100)
        ]
        assert rolls == again
        assert any(rolls) and not all(rolls)

    def test_attempt_changes_the_roll(self):
        policy = ChaosPolicy({"crash": 0.5})
        first = [
            policy.decides("crash", "post_exec", fid, 0, 1)
            for fid in range(100)
        ]
        second = [
            policy.decides("crash", "post_exec", fid, 0, 2)
            for fid in range(100)
        ]
        assert first != second

    def test_inject_crash_raises_chaos_crash(self):
        policy = ChaosPolicy({"crash": 1.0})
        with pytest.raises(ChaosCrash) as excinfo:
            policy.inject("post_exec", 0, None, 1, forked=False)
        assert excinfo.value.transient

    def test_inject_hang_without_deadline_raises_immediately(self):
        policy = ChaosPolicy({"hang": 1.0})
        with pytest.raises(DeadlineExceeded):
            policy.inject(
                "post_exec", 0, None, 1, forked=False, deadline=None
            )

    def test_inject_hang_spins_until_the_deadline(self):
        clock = FakeClock()
        deadline = Deadline(max_seconds=0.01, clock=clock)
        policy = ChaosPolicy({"hang": 1.0})
        with pytest.raises(DeadlineExceeded):
            policy.inject(
                "post_exec", 0, None, 1, forked=False,
                deadline=deadline, sleep=clock.advance,
            )
        assert clock.now > 0.01


class TestClassifyFailure:
    def test_deadline_is_a_hang(self):
        kind, transient = classify_failure(DeadlineExceeded("slow"))
        assert kind is IncidentKind.HANG
        assert not transient

    def test_chaos_crash_is_a_transient_worker_death(self):
        kind, transient = classify_failure(ChaosCrash("boom"))
        assert kind is IncidentKind.WORKER_DEATH
        assert transient

    def test_broken_pool_is_a_transient_worker_death(self):
        from concurrent.futures.process import BrokenProcessPool

        kind, transient = classify_failure(BrokenProcessPool("died"))
        assert kind is IncidentKind.WORKER_DEATH
        assert transient

    def test_harness_error_keeps_its_transient_flag(self):
        kind, transient = classify_failure(HarnessError("bug"))
        assert kind is IncidentKind.HARNESS_ERROR
        assert not transient

        class FlakyHarnessError(HarnessError):
            transient = True

        _kind, transient = classify_failure(FlakyHarnessError("flaky"))
        assert transient

    def test_unknown_exception_is_a_deterministic_harness_error(self):
        kind, transient = classify_failure(KeyError("oops"))
        assert kind is IncidentKind.HARNESS_ERROR
        assert not transient


class TestIncidentLog:
    def _incident(self, quarantined, kind=IncidentKind.WORKER_DEATH):
        return Incident(
            kind=kind, phase="post_exec", failure_point=3, variant=None,
            attempts=1, quarantined=quarantined, detail="it broke",
        )

    def test_str_and_dict(self):
        incident = self._incident(True, IncidentKind.HANG)
        text = str(incident)
        assert "[hang]" in text and "quarantined" in text
        data = incident.to_dict()
        assert data["kind"] == "hang"
        assert data["quarantined"] is True

    def test_degraded_tracks_quarantined(self):
        log = IncidentLog()
        assert not log.degraded
        log.record(self._incident(False))
        assert len(log) == 1
        assert not log.degraded
        log.record(self._incident(True))
        assert log.degraded
        assert log.quarantined_points() == {(3, None)}


class TestTraversalGuard:
    def test_trips_past_the_limit(self):
        guard = TraversalGuard("unit walk", limit=10)
        for _ in range(10):
            guard.step()
        with pytest.raises(TraversalLimitError) as excinfo:
            guard.step()
        assert "unit walk" in str(excinfo.value)

    def test_limit_error_is_a_finding_not_an_incident(self):
        # TraversalLimitError must remain a ReproError so the task body
        # reports it as a POST_FAILURE_CRASH finding.
        assert issubclass(TraversalLimitError, ReproError)
        kind, _transient = classify_failure(TraversalLimitError("x"))
        # ...and if it ever did reach the supervisor, it would
        # quarantine rather than retry (deterministic).
        assert kind is IncidentKind.HARNESS_ERROR


def _boom(_context, key):
    if key == 1:
        raise ValueError("task 1 exploded")
    return key * 10


class TestExecutorErrorCapture:
    def test_serial_executor_captures_per_task_errors(self):
        outcomes = SerialExecutor().run_phase(None, _boom, [0, 1, 2])
        assert [o.value for o in outcomes] == [0, None, 20]
        assert outcomes[1].error is not None
        assert "task 1 exploded" in str(outcomes[1].error)

    @pytest.mark.skipif(
        not ProcessExecutor.available(),
        reason="needs the fork start method",
    )
    def test_process_executor_captures_per_task_errors(self):
        executor = ProcessExecutor(2)
        try:
            outcomes = executor.run_phase(object(), _boom, [0, 1, 2])
        finally:
            executor.close()
        assert [o.value for o in outcomes] == [0, None, 20]
        assert isinstance(outcomes[1].error, ValueError)
        assert "task 1 exploded" in str(outcomes[1].error)


class _FlakyPhase:
    """A submit callable that fails chosen keys a set number of times."""

    def __init__(self, failures):
        #: key -> list of exceptions to raise, first attempt first.
        self.failures = {k: list(v) for k, v in failures.items()}
        self.submissions = []

    def __call__(self, keys):
        from repro.exec.base import TaskOutcome

        self.submissions.append(list(keys))
        outcomes = []
        for key in keys:
            queue = self.failures.get(key)
            if queue:
                outcomes.append(TaskOutcome(None, error=queue.pop(0)))
            else:
                outcomes.append(TaskOutcome(("ok", key)))
        return outcomes


def _key(fid):
    """A post-exec-shaped task key: ``(fid, variant, mask)``."""
    return (fid, None, None)


class TestPhaseSupervisor:
    def _supervisor(self, incident_log, **config_kwargs):
        config = DetectorConfig(retry_backoff=0.0, **config_kwargs)
        return PhaseSupervisor(
            "post_exec", config, incident_log, sleep=lambda _s: None
        )

    def test_all_clean_is_a_single_wave(self):
        log = IncidentLog()
        phase = _FlakyPhase({})
        keys = [_key(0), _key(1), _key(2)]
        completed = self._supervisor(log).run(phase, keys)
        assert set(completed) == set(keys)
        assert len(phase.submissions) == 1
        assert len(log) == 0

    def test_transient_fault_retries_and_heals(self):
        log = IncidentLog()
        phase = _FlakyPhase({_key(1): [ChaosCrash("boom")]})
        keys = [_key(0), _key(1), _key(2)]
        completed = self._supervisor(log, max_retries=2).run(
            phase, keys
        )
        assert set(completed) == set(keys)
        assert phase.submissions == [keys, [_key(1)]]
        incidents = log.incidents
        assert len(incidents) == 1
        assert incidents[0].kind is IncidentKind.WORKER_DEATH
        assert incidents[0].failure_point == 1
        assert not incidents[0].quarantined
        assert not log.degraded

    def test_transient_fault_quarantines_after_max_retries(self):
        log = IncidentLog()
        phase = _FlakyPhase({_key(1): [ChaosCrash("boom")] * 5})
        completed = self._supervisor(log, max_retries=2).run(
            phase, [_key(0), _key(1)]
        )
        assert set(completed) == {_key(0)}
        # 1 initial + 2 retries = 3 attempts, then quarantine.
        assert phase.submissions == [
            [_key(0), _key(1)], [_key(1)], [_key(1)]
        ]
        incidents = log.incidents
        assert [i.quarantined for i in incidents] == [
            False, False, True
        ]
        assert incidents[-1].attempts == 3
        assert log.degraded

    def test_deterministic_fault_quarantines_immediately(self):
        log = IncidentLog()
        phase = _FlakyPhase({_key(2): [KeyError("harness bug")] * 5})
        completed = self._supervisor(log, max_retries=3).run(
            phase, [_key(0), _key(1), _key(2)]
        )
        assert set(completed) == {_key(0), _key(1)}
        assert len(phase.submissions) == 1
        assert log.incidents[0].kind is IncidentKind.HARNESS_ERROR
        assert log.incidents[0].quarantined

    def test_attempts_shared_with_resilience_context(self):
        log = IncidentLog()
        config = DetectorConfig(
            chaos="crash:0.000001", retry_backoff=0.0, max_retries=1
        )
        resilience = ResilienceContext.from_config(config, "post_exec")
        supervisor = PhaseSupervisor(
            "post_exec", config, log, resilience, sleep=lambda _s: None
        )
        phase = _FlakyPhase({})
        supervisor.run(phase, [(0, None, None)])
        assert resilience.attempts[(0, None, None)] == 1


class TestBackoff:
    def _slept(self, generations, **config_kwargs):
        delays = []
        supervisor = PhaseSupervisor(
            "post_exec", DetectorConfig(**config_kwargs), IncidentLog(),
            sleep=delays.append,
        )
        for generation in generations:
            supervisor._backoff(generation, [_key(0)])
        return delays

    def test_delay_doubles_per_generation_up_to_the_cap(self):
        delays = self._slept(range(1, 10), retry_backoff=0.05)
        assert delays[:4] == pytest.approx([0.05, 0.1, 0.2, 0.4])
        assert max(delays) == BACKOFF_CAP
        assert delays[-3:] == [BACKOFF_CAP] * 3
        assert delays == sorted(delays)

    def test_zero_backoff_never_sleeps(self):
        assert self._slept(range(1, 4), retry_backoff=0.0) == []


class TestResilienceContext:
    def test_disabled_when_all_knobs_off(self):
        config = DetectorConfig()
        assert ResilienceContext.from_config(config, "post_exec") is None

    def test_deadline_only(self):
        config = DetectorConfig(exec_deadline=2.0)
        resilience = ResilienceContext.from_config(config, "post_exec")
        deadline = resilience.new_deadline()
        assert deadline.max_seconds == 2.0
        assert deadline.max_steps is None

    def test_guard_task_without_fork_has_no_watchdog(self):
        config = DetectorConfig(exec_deadline=2.0)
        resilience = ResilienceContext.from_config(config, "post_exec")
        deadline, watchdog = resilience.guard_task((0, None, None))
        assert deadline is not None
        assert watchdog is None  # not in a forked worker

    def test_invalid_chaos_spec_alone_disables(self):
        config = DetectorConfig(chaos="bogus:1")
        assert ResilienceContext.from_config(config, "post_exec") is None


class TestBugRoundTrip:
    def test_bug_survives_serialization(self):
        from repro._location import UNKNOWN_LOCATION, _make_location
        from repro.core.report import Bug, BugKind

        bug = Bug(
            kind=BugKind.CROSS_FAILURE_RACE,
            detail="read of unflushed line",
            address=4096,
            size=8,
            failure_point=3,
            reader_ip=_make_location("btree.py", 42, "get"),
            writer_ip=UNKNOWN_LOCATION,
        )
        clone = deserialize_bug(serialize_bug(bug))
        assert clone == bug
        # UNKNOWN_LOCATION must come back as the sentinel itself:
        # Bug.__str__ compares against it by identity.
        assert clone.writer_ip is UNKNOWN_LOCATION

    def test_round_trip_is_json_safe(self):
        import json

        from repro.core.report import Bug, BugKind

        bug = Bug(
            kind=BugKind.POST_FAILURE_CRASH,
            detail="recovery exploded",
            failure_point=0,
        )
        payload = json.loads(json.dumps(serialize_bug(bug)))
        assert deserialize_bug(payload) == bug


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
            SourceLocation("/x/src/repro/cli.py", 120, "_cmd_run"),
            SourceLocation("/x/tests/integration/test_cli.py", 30,
                           "test_run"),
            SourceLocation("<stdin>", 3, "<module>"),
            SourceLocation("/usr/lib/python3.11/contextlib.py", 137,
                           "__enter__"),
            UNKNOWN_LOCATION,
        ):
            assert _digest_ip(ip) == "<engine>"


class TestJournalFile:
    def _journal(self, path, fids):
        journal = RunJournal(path)
        journal.begin("c" * 64, "hashmap_tx")
        for fid in fids:
            journal.record_post(
                fid, None, events=10, has_roi=False, crash_repr=None,
                bugs=[], benign_races=0,
            )
        return journal

    def test_each_record_is_flushed(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = self._journal(path, [0, 1])
        try:
            header, posts = read_journal_records(path)
        finally:
            journal.close()
        assert header["checksum"] == "c" * 64
        assert sorted(posts) == [(0, None), (1, None)]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "run.journal")
        self._journal(path, [0, 1]).close()
        with open(path, "a") as handle:
            handle.write('{"type": "post", "fid": 2')  # killed here
        _header, posts = read_journal_records(path)
        assert sorted(posts) == [(0, None), (1, None)]

    def test_malformed_middle_line_raises(self, tmp_path):
        path = str(tmp_path / "run.journal")
        self._journal(path, [0]).close()
        with open(path) as handle:
            header, post = handle.read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join([header, "not json", post]) + "\n")
        with pytest.raises(JournalError, match="line 2"):
            read_journal_records(path)
