"""Tests for the v2 packed binary trace format.

Covers the four guarantees the format makes: lossless round-trips
through the columnar recorder (every event kind, randomized payloads),
auto-detection in ``load_trace`` so v1 readers need no changes,
bit-for-bit compatibility with archived v1 text dumps via the checked-in
fixture, and a typed ``TraceFormatError`` for every corrupt input.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._location import UNKNOWN_LOCATION, SourceLocation
from repro.core import DetectorConfig
from repro.core.frontend import Frontend
from repro.errors import TraceFormatError
from repro.trace import (
    EventKind,
    TraceEvent,
    TraceRecorder,
    dump_packed,
    format_trace,
    is_packed,
    load_packed,
    load_trace,
    parse_trace,
)
from repro.trace.serialize import PACKED_MAGIC
from repro.workloads import ALL_WORKLOADS

_FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "trace_v1.txt"

_LOCATIONS = [
    None,
    SourceLocation("/repo/src/wl.py", 42, "insert"),
    SourceLocation("wl.py", 1, "Outer.method"),
    SourceLocation("/a b/odd path.py", 999, "Cls.method.<locals>.inner"),
]


def _random_recorder(rng, count=300):
    recorder = TraceRecorder()
    kinds = list(EventKind)
    for _ in range(count):
        kind = rng.choice(kinds)
        recorder.append(
            kind,
            addr=rng.randrange(0, 1 << 48),
            size=rng.choice([0, 1, 8, 64, 4096]),
            info=rng.choice(["", "CLWB", "1", "valid flag",
                             "atomic word write"]),
            ip=rng.choice(_LOCATIONS),
            tid=rng.randrange(0, 4),
        )
    return recorder


class TestPackedRoundTrip:
    def test_recorder_round_trips(self):
        rng = random.Random(20260809)
        recorder = _random_recorder(rng)
        blob = dump_packed(recorder)
        assert is_packed(blob)
        restored = load_packed(blob)
        assert restored.stage == recorder.stage
        assert restored.has_roi == recorder.has_roi
        assert restored.events == recorder.events

    def test_every_kind_survives(self):
        recorder = TraceRecorder(stage="post")
        for seq, kind in enumerate(EventKind):
            recorder.append(kind, addr=seq * 64, size=8,
                            info=kind.value, tid=seq % 3)
        restored = load_packed(dump_packed(recorder))
        assert restored.events == recorder.events
        assert restored.stage == "post"

    def test_event_iterable_source(self):
        events = [
            TraceEvent(seq=0, kind=EventKind.STORE, addr=0x1000, size=8,
                       info="", ip=SourceLocation("f.py", 1, "f")),
            TraceEvent(seq=1, kind=EventKind.FENCE, info="SFENCE"),
        ]
        assert load_packed(dump_packed(events)).events == events

    def test_roi_flag_and_interning(self):
        recorder = TraceRecorder()
        loc = SourceLocation("wl.py", 5, "run")
        recorder.append(EventKind.ROI_BEGIN)
        recorder.append(EventKind.STORE, addr=0x10, size=8, ip=loc)
        recorder.append(EventKind.LOAD, addr=0x10, size=8, ip=loc)
        restored = load_packed(dump_packed(recorder))
        assert restored.has_roi
        ips = [event.ip for event in restored.events]
        assert ips[0] is UNKNOWN_LOCATION
        # The two identical call sites decode to one interned object.
        assert ips[1] is ips[2]

    def test_empty_trace(self):
        restored = load_packed(dump_packed(TraceRecorder()))
        assert len(restored) == 0
        assert restored.events == []

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError):
            load_packed(b"not a trace at all")
        with pytest.raises(TraceFormatError):
            load_packed(b"not a trace at all")


class TestAutoDetection:
    def test_load_trace_reads_packed(self):
        rng = random.Random(7)
        recorder = _random_recorder(rng, count=50)
        assert load_trace(dump_packed(recorder)) == recorder.events

    def test_load_trace_reads_v1_text(self):
        rng = random.Random(8)
        recorder = _random_recorder(rng, count=50)
        text = format_trace(recorder.events)
        assert load_trace(text) == recorder.events
        # v1 bytes (a file read in binary mode) work too.
        assert load_trace(text.encode("utf-8")) == recorder.events

    def test_magic_does_not_collide_with_text(self):
        assert not is_packed("0 STORE 0x10 8 0 - | f.py:1:f")
        assert not is_packed(b"# comment\n")
        assert is_packed(PACKED_MAGIC + b"anything")


class TestV1FixtureCompat:
    def test_fixture_parses(self):
        events = load_trace(_FIXTURE.read_text())
        assert len(events) == 13
        assert events[0].kind is EventKind.ROI_BEGIN
        assert events[0].ip is UNKNOWN_LOCATION
        assert events[3].kind is EventKind.STORE
        assert events[3].addr == 0x10000000
        assert events[8].info == "atomic word write"
        assert events[8].ip.filename == "/a b/odd path.py"
        assert events[8].ip.function == "Cls.method.<locals>.inner"
        assert events[11].info == "valid flag"

    def test_fixture_upgrades_to_packed_losslessly(self):
        events = parse_trace(_FIXTURE.read_text())
        assert load_packed(dump_packed(events)).events == events


# ----------------------------------------------------------------------
# Corrupt inputs: a mutated packed trace either loads to something that
# dumps back to exactly the same bytes or raises TraceFormatError —
# never a bare struct/Unicode/Index error, never a silent truncation.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def pre_trace_blob():
    config = DetectorConfig(jobs=1, executor="serial", progress=False)
    result = Frontend(config).run(ALL_WORKLOADS["hashmap_tx"](test_size=2))
    return dump_packed(result.pre_recorder)


_mutations = st.lists(
    st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
        st.tuples(st.just("flip"), st.integers(0, 1 << 20),
                  st.integers(1, 255)),
        st.tuples(st.just("insert"), st.integers(0, 1 << 20),
                  st.binary(min_size=1, max_size=8)),
    ),
    min_size=1, max_size=3,
)


def _mutate(blob, mutations):
    out = bytearray(blob)
    for mutation in mutations:
        position = mutation[1] % (len(out) + 1)
        if mutation[0] == "truncate":
            del out[position:]
        elif mutation[0] == "flip":
            if position < len(out):
                out[position] ^= mutation[2]
        else:
            out[position:position] = mutation[2]
    return bytes(out)


class TestCorruptPackedTraces:
    def test_pre_trace_round_trips(self, pre_trace_blob):
        assert dump_packed(load_packed(pre_trace_blob)) == pre_trace_blob

    @pytest.mark.parametrize("cut", [1, 4, 17])
    def test_truncation_raises(self, pre_trace_blob, cut):
        with pytest.raises(TraceFormatError):
            load_packed(pre_trace_blob[:-cut])

    def test_trailing_bytes_raise(self, pre_trace_blob):
        with pytest.raises(TraceFormatError, match="trailing"):
            load_packed(pre_trace_blob + b"\x00")

    def test_invalid_utf8_raises(self):
        blob = bytearray(dump_packed(TraceRecorder(stage="pre")))
        # The stage string follows the 17-byte header and its length.
        blob[21] = 0xFF
        with pytest.raises(TraceFormatError, match="UTF-8"):
            load_packed(bytes(blob))

    def test_index_past_table_raises(self):
        recorder = TraceRecorder(stage="pre")
        recorder.append(EventKind.STORE, addr=0x10, size=8)
        blob = bytearray(dump_packed(recorder))
        # Header, stage string, then one row of the kind, addr, size,
        # tid and info-index columns; the ip index comes next.  Point
        # it past the one-entry ip table.
        ip_index_at = 17 + 4 + len("pre") + (1 + 8 + 8 + 2 + 4)
        assert blob[ip_index_at] == 0
        blob[ip_index_at] = 7
        with pytest.raises(TraceFormatError, match="past"):
            load_packed(bytes(blob))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutations=_mutations)
    def test_corruption_round_trips_or_raises_typed(
        self, pre_trace_blob, mutations
    ):
        blob = _mutate(pre_trace_blob, mutations)
        try:
            recorder = load_packed(blob)
        except TraceFormatError:
            return
        assert dump_packed(recorder) == blob
        assert len(recorder.events) == len(recorder)
