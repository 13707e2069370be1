"""Tests for the backend replayer's read classification and performance
checks."""

from repro._location import SourceLocation
from repro.core.config import DetectorConfig
from repro.core.replay import TraceReplayer, lower_trace
from repro.core.report import BugKind, DetectionReport
from repro.core.shadow import ShadowPM
from repro.trace.events import EventKind
from repro.trace.recorder import TraceRecorder

W = SourceLocation("writer.py", 1, "w")
R = SourceLocation("reader.py", 2, "r")


def make_replayers(config=None):
    config = config if config is not None else DetectorConfig()
    shadow = ShadowPM()
    report = DetectionReport("t")
    pre = TraceReplayer(shadow, config, "pre", report)
    return shadow, report, pre, config


def post_replayer(shadow, report, config, **kwargs):
    return TraceReplayer(
        shadow.copy(), config, "post", report, failure_point=0, **kwargs
    )


def ev(rec, kind, addr=0, size=0, info="", ip=None):
    return rec.append(kind, addr, size, info, ip)


def process(replayer, event):
    """Replay one event through the compiled-program interface."""
    replayer.run_program(lower_trace([event]))


def pre_sequence(pre, rec, ops):
    for op in ops:
        process(pre, op)


class TestReadClassification:
    def _pre_store(self, pre, rec, addr, persist=False):
        process(pre, ev(rec, EventKind.STORE, addr, 8, ip=W))
        if persist:
            process(pre, ev(rec, EventKind.FLUSH, addr - addr % 64, 64,
                            "CLWB"))
            process(pre, ev(rec, EventKind.FENCE, info="SFENCE"))

    def test_read_of_modified_data_is_race(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        self._pre_store(pre, rec, 0x1000)
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert len(report.races) == 1
        bug = report.races[0]
        assert bug.kind is BugKind.CROSS_FAILURE_RACE
        assert bug.reader_ip is R
        assert bug.writer_ip is W
        assert bug.failure_point == 0

    def test_read_of_pending_data_is_race(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.STORE, 0x1000, 8, ip=W))
        process(pre, ev(rec, EventKind.FLUSH, 0x1000, 64, "CLWB"))
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert len(report.races) == 1

    def test_read_of_persisted_data_is_clean(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        self._pre_store(pre, rec, 0x1000, persist=True)
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert report.bugs == []

    def test_read_of_untouched_data_is_clean(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x9000, 8, ip=R))
        assert report.bugs == []

    def test_post_overwrite_exempts_read(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        self._pre_store(pre, rec, 0x1000)  # modified, unpersisted
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.STORE, 0x1000, 8, ip=R))
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert report.bugs == []

    def test_post_flush_does_not_launder_pre_data(self):
        """A post-failure flush+fence of pre-failure volatile data must
        not make later reads look safe: the flushed value came from the
        crash image."""
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        self._pre_store(pre, rec, 0x1000)
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.FLUSH, 0x1000, 64, "CLWB"))
        process(post, ev(rec, EventKind.FENCE, info="SFENCE"))
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert len(report.races) == 1

    def test_semantic_bug_on_uncommitted_persisted_data(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.COMMIT_VAR, 0x10, 8, "v"))
        process(pre, ev(rec, EventKind.COMMIT_RANGE, 0x1000, 8, "v"))
        self._pre_store(pre, rec, 0x1000, persist=True)
        # No commit write: member persisted but uncommitted.
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert len(report.semantic_bugs) == 1
        assert not report.races

    def test_commit_var_read_is_benign(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.COMMIT_VAR, 0x10, 8, "v"))
        process(pre, ev(rec, EventKind.STORE, 0x10, 8, ip=W))
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x10, 8, ip=R))
        assert report.bugs == []
        assert report.stats.benign_races == 1

    def test_uninitialized_read_is_race(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.ALLOC, 0x1000, 64, "zeroed"))
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert len(report.races) == 1
        assert "never-initialized" in report.races[0].detail

    def test_first_read_only_optimization(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        self._pre_store(pre, rec, 0x1000)
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert len(report.races) == 1

    def test_every_read_checked_when_optimization_off(self):
        config = DetectorConfig(first_read_only=False)
        shadow, report, pre, _ = make_replayers(config)
        rec = TraceRecorder()
        self._pre_store(pre, rec, 0x1000)
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert len(report.races) == 2

    def test_reads_in_library_regions_unchecked(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        self._pre_store(pre, rec, 0x1000)
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LIB_BEGIN, info="recover"))
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        process(post, ev(rec, EventKind.LIB_END, info="recover"))
        assert report.bugs == []

    def test_reads_in_skip_detection_unchecked(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        self._pre_store(pre, rec, 0x1000)
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.SKIP_DET_BEGIN))
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        process(post, ev(rec, EventKind.SKIP_DET_END))
        assert report.bugs == []

    def test_roi_confines_checks(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        self._pre_store(pre, rec, 0x1000)
        post = post_replayer(shadow, report, config, has_roi=True)
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert report.bugs == []  # outside the RoI
        process(post, ev(rec, EventKind.ROI_BEGIN))
        process(post, ev(rec, EventKind.LOAD, 0x1008, 8, ip=R))
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert len(report.races) == 1

    def test_partial_overlap_read_flags_only_dirty_bytes(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        self._pre_store(pre, rec, 0x1000)  # 8 dirty bytes
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x0FF8, 24, ip=R))
        assert len(report.races) == 1
        bug = report.races[0]
        assert bug.address == 0x1000
        assert bug.size == 8


class TestPerfChecks:
    def test_redundant_flush_reported(self):
        shadow, report, pre, _ = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.FLUSH, 0x1000, 64, "CLWB", ip=W))
        assert len(report.perf_bugs) == 1

    def test_useful_flush_not_reported(self):
        shadow, report, pre, _ = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.STORE, 0x1000, 8, ip=W))
        process(pre, ev(rec, EventKind.FLUSH, 0x1000, 64, "CLWB", ip=W))
        assert report.perf_bugs == []

    def test_perf_checks_suppressed_in_lib_regions(self):
        shadow, report, pre, _ = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.LIB_BEGIN, info="fn"))
        process(pre, ev(rec, EventKind.FLUSH, 0x1000, 64, "CLWB", ip=W))
        process(pre, ev(rec, EventKind.LIB_END, info="fn"))
        assert report.perf_bugs == []

    def test_perf_reporting_can_be_disabled(self):
        config = DetectorConfig(report_perf_bugs=False)
        shadow, report, pre, _ = make_replayers(config)
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.FLUSH, 0x1000, 64, "CLWB", ip=W))
        assert report.perf_bugs == []

    def test_duplicate_tx_add_reported(self):
        shadow, report, pre, _ = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.TX_BEGIN, info="1"))
        process(pre, ev(rec, EventKind.TX_ADD, 0x1000, 8, "1", ip=W))
        process(pre, ev(rec, EventKind.TX_ADD, 0x1000, 8, "1", ip=W))
        assert len(report.perf_bugs) == 1
        assert "duplicate TX_ADD" in report.perf_bugs[0].detail

    def test_tx_add_after_commit_not_duplicate(self):
        shadow, report, pre, _ = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.TX_BEGIN, info="1"))
        process(pre, ev(rec, EventKind.TX_ADD, 0x1000, 8, "1", ip=W))
        process(pre, ev(rec, EventKind.TX_COMMIT, info="1"))
        process(pre, ev(rec, EventKind.TX_BEGIN, info="2"))
        process(pre, ev(rec, EventKind.TX_ADD, 0x1000, 8, "2", ip=W))
        assert report.perf_bugs == []


class TestTxReplaySemantics:
    def test_unadded_tx_write_race_before_commit(self):
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.TX_BEGIN, info="1"))
        process(pre, ev(rec, EventKind.STORE, 0x1000, 8, ip=W))
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert len(report.races) == 1

    def test_unadded_tx_write_consistent_after_commit(self):
        """After TX_COMMIT the unadded write is final program intent:
        no semantic bug, but still a race while unflushed."""
        shadow, report, pre, config = make_replayers()
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.TX_BEGIN, info="1"))
        process(pre, ev(rec, EventKind.STORE, 0x1000, 8, ip=W))
        process(pre, ev(rec, EventKind.TX_COMMIT, info="1"))
        post = post_replayer(shadow, report, config)
        process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
        assert len(report.races) == 1
        assert report.semantic_bugs == []

    def test_fail_fast_stops_analysis(self):
        from repro.core.replay import StopAnalysis

        import pytest

        config = DetectorConfig(fail_fast=True)
        shadow, report, pre, _ = make_replayers(config)
        rec = TraceRecorder()
        process(pre, ev(rec, EventKind.STORE, 0x1000, 8, ip=W))
        post = post_replayer(shadow, report, config)
        with pytest.raises(StopAnalysis):
            process(post, ev(rec, EventKind.LOAD, 0x1000, 8, ip=R))
