"""Tests for the Figure 9 cache-line persistence state machine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pm.cacheline import (
    CacheModel,
    FenceKind,
    FlushKind,
    LineState,
    PlatformMode,
)
from repro.pm.constants import CACHE_LINE_SIZE


def make_model(backing=None):
    backing = backing if backing is not None else {}

    def read_line(base):
        return backing.get(base, bytes(CACHE_LINE_SIZE))

    return CacheModel(read_line), backing


class TestFigure9Transitions:
    def test_initial_state_unmodified(self):
        model, _ = make_model()
        assert model.state_of(0) is LineState.UNMODIFIED

    def test_store_makes_modified(self):
        model, _ = make_model()
        model.store(10, 4)
        assert model.state_of(10) is LineState.MODIFIED
        assert model.state_of(0) is LineState.MODIFIED  # same line

    def test_store_spanning_lines_marks_both(self):
        model, _ = make_model()
        model.store(60, 10)
        assert model.state_of(0) is LineState.MODIFIED
        assert model.state_of(64) is LineState.MODIFIED
        assert model.state_of(128) is LineState.UNMODIFIED

    def test_clwb_moves_to_writeback_pending(self):
        model, _ = make_model()
        model.store(0, 8)
        assert model.flush(0, FlushKind.CLWB) is True
        assert model.state_of(0) is LineState.WRITEBACK_PENDING
        assert model.has_pending_writebacks()

    def test_fence_completes_writeback(self):
        model, backing = make_model()
        backing[0] = b"x" * CACHE_LINE_SIZE
        model.store(0, 8)
        model.flush(0)
        completed = model.fence()
        assert completed == [0]
        assert model.state_of(0) is LineState.PERSISTED
        assert model.persisted_line(0) == b"x" * CACHE_LINE_SIZE
        assert not model.has_pending_writebacks()

    def test_fence_without_pending_is_not_ordering_point(self):
        model, _ = make_model()
        assert model.fence() == []
        model.store(0, 8)
        assert model.fence() == []  # modified but not flushed

    def test_flush_unmodified_line_is_redundant(self):
        model, _ = make_model()
        assert model.flush(0) is False

    def test_flush_pending_line_is_redundant(self):
        model, _ = make_model()
        model.store(0, 8)
        model.flush(0)
        assert model.flush(0) is False  # Figure 9 yellow edge

    def test_flush_persisted_line_is_redundant(self):
        model, _ = make_model()
        model.store(0, 8)
        model.flush(0)
        model.fence()
        assert model.flush(0) is False

    def test_store_after_persist_remodifies(self):
        model, _ = make_model()
        model.store(0, 8)
        model.flush(0)
        model.fence()
        model.store(0, 8)
        assert model.state_of(0) is LineState.MODIFIED

    def test_clflush_is_synchronous(self):
        model, backing = make_model()
        backing[0] = b"y" * CACHE_LINE_SIZE
        model.store(0, 8)
        assert model.flush(0, FlushKind.CLFLUSH) is True
        assert model.state_of(0) is LineState.PERSISTED
        assert model.persisted_line(0) == b"y" * CACHE_LINE_SIZE

    def test_clflushopt_behaves_like_clwb(self):
        model, _ = make_model()
        model.store(0, 8)
        model.flush(0, FlushKind.CLFLUSHOPT)
        assert model.state_of(0) is LineState.WRITEBACK_PENDING

    def test_nt_store_is_immediately_pending(self):
        model, _ = make_model()
        model.nt_store(0, 8)
        assert model.state_of(0) is LineState.WRITEBACK_PENDING
        assert model.fence(FenceKind.DRAIN) == [0]
        assert model.state_of(0) is LineState.PERSISTED


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        model, _ = make_model()
        model.store(0, 8)
        model.flush(0)
        snap = model.snapshot()
        model.fence()
        assert model.state_of(0) is LineState.PERSISTED
        model.restore(snap)
        assert model.state_of(0) is LineState.WRITEBACK_PENDING
        assert model.has_pending_writebacks()

    def test_persisted_only_overlay_reverts_modified(self):
        model, backing = make_model()
        # Persist an initial value, then modify without flushing.
        backing[0] = b"A" * CACHE_LINE_SIZE
        model.store(0, 64)
        model.flush(0)
        model.fence()
        backing[0] = b"B" * CACHE_LINE_SIZE
        model.store(0, 64)
        overlay = model.persisted_only_overlay(
            0, CACHE_LINE_SIZE, backing[0]
        )
        assert overlay == b"A" * CACHE_LINE_SIZE

    def test_persisted_only_overlay_zero_fills_never_persisted(self):
        model, backing = make_model()
        backing[0] = b"C" * CACHE_LINE_SIZE
        model.store(0, 64)  # modified, never persisted
        overlay = model.persisted_only_overlay(
            0, CACHE_LINE_SIZE, backing[0]
        )
        assert overlay == bytes(CACHE_LINE_SIZE)

    def test_persisted_only_overlay_keeps_untouched_lines(self):
        model, _ = make_model()
        current = b"D" * CACHE_LINE_SIZE
        overlay = model.persisted_only_overlay(
            0, CACHE_LINE_SIZE, current
        )
        assert overlay == current


# ----------------------------------------------------------------------
# Property: for any operation sequence, line states follow Figure 9 and
# a fence is an ordering point iff some line was pending.
# ----------------------------------------------------------------------

_events = st.lists(
    st.tuples(
        st.sampled_from(["store", "nt", "clwb", "clflush", "fence"]),
        st.integers(0, 3),  # line index
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(_events)
def test_fsm_matches_reference_model(events):
    model, _ = make_model()
    reference = {}

    for op, line_idx in events:
        address = line_idx * CACHE_LINE_SIZE
        state = reference.get(line_idx, "U")
        if op == "store":
            model.store(address, 8)
            reference[line_idx] = "M"
        elif op == "nt":
            model.nt_store(address, 8)
            reference[line_idx] = "W"
        elif op == "clwb":
            useful = model.flush(address, FlushKind.CLWB)
            assert useful == (state == "M")
            if state == "M":
                reference[line_idx] = "W"
        elif op == "clflush":
            model.flush(address, FlushKind.CLFLUSH)
            if state in ("M", "W"):
                reference[line_idx] = "P"
        else:
            had_pending = any(v == "W" for v in reference.values())
            completed = model.fence()
            assert bool(completed) == had_pending
            for k, v in reference.items():
                if v == "W":
                    reference[k] = "P"
        for k, v in reference.items():
            assert model.state_of(k * CACHE_LINE_SIZE).value == v


# ----------------------------------------------------------------------
# Differential property: the incremental bookkeeping (the volatile-line
# set, the single-line overlay lookup, the fence's walk of the pending
# set) agrees with from-scratch scans of every tracked line.
# ----------------------------------------------------------------------

_LINES = 6
_SPAN = _LINES * CACHE_LINE_SIZE


class _Window:
    """The ``base``/``end`` pair ``volatile_lines_for`` reads."""

    base = 0
    end = _SPAN


def _scan_volatile(model):
    return tuple(sorted(
        line for line, state in model.line_states().items()
        if state in (LineState.MODIFIED, LineState.WRITEBACK_PENDING)
    ))


def _scan_overlay(model, current):
    """The strict crash contents of the whole window, byte by byte from
    every tracked line."""
    out = bytearray(current)
    for line, state in model.line_states().items():
        if state is LineState.UNMODIFIED:
            continue
        media = model.persisted_line(line)
        if media is None:
            if state is LineState.PERSISTED:
                continue
            media = bytes(CACHE_LINE_SIZE)
        for i in range(CACHE_LINE_SIZE):
            out[line + i] = media[i]
    return bytes(out)


def _scan_fence(model):
    return sorted(
        line for line, state in model.line_states().items()
        if state is LineState.WRITEBACK_PENDING
    )


_cache_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["store", "nt"]),
            st.integers(0, _SPAN - 1),  # address
            st.integers(1, 2 * CACHE_LINE_SIZE),  # size
            st.integers(1, 255),  # byte value written
        ),
        st.tuples(
            st.sampled_from(["clwb", "clflushopt", "clflush"]),
            st.integers(0, _SPAN - 1),
        ),
        st.tuples(st.sampled_from(["fence", "snapshot", "restore"])),
    ),
    max_size=50,
)

_FLUSH_KINDS = {
    "clwb": FlushKind.CLWB,
    "clflushopt": FlushKind.CLFLUSHOPT,
    "clflush": FlushKind.CLFLUSH,
}


def _check_against_scan(model, backing):
    from repro.pm.image import volatile_lines_for

    assert volatile_lines_for(_Window, model) == _scan_volatile(model)
    current = bytes(backing)
    full = model.persisted_only_overlay(0, _SPAN, current)
    assert full == _scan_overlay(model, current)
    for line in range(0, _SPAN, CACHE_LINE_SIZE):
        piece = current[line:line + CACHE_LINE_SIZE]
        assert model.persisted_only_overlay(
            line, CACHE_LINE_SIZE, piece
        ) == full[line:line + CACHE_LINE_SIZE]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(PlatformMode)), _cache_ops)
def test_incremental_paths_match_full_scans(platform, ops):
    backing = bytearray(_SPAN)

    def read_line(base):
        return bytes(backing[base:base + CACHE_LINE_SIZE])

    model = CacheModel(read_line, platform)
    saved = model.snapshot()
    for op in ops:
        name = op[0]
        if name in ("store", "nt"):
            _, address, size, value = op
            size = min(size, _SPAN - address)
            backing[address:address + size] = bytes([value]) * size
            if name == "store":
                model.store(address, size)
            else:
                model.nt_store(address, size)
        elif name in _FLUSH_KINDS:
            model.flush(op[1], _FLUSH_KINDS[name])
        elif name == "fence":
            expected = _scan_fence(model)
            assert model.fence() == expected
        elif name == "snapshot":
            saved = model.snapshot()
        else:
            model.restore(saved)
        _check_against_scan(model, backing)


def test_store_to_writeback_pending_line_is_not_persisted_by_fence():
    """The pending set still holds a line a later store moved back to
    MODIFIED: the fence must skip it, yet stay an ordering point."""
    model, backing = make_model()
    model.store(0, 8)
    model.flush(0, FlushKind.CLWB)
    backing[0] = b"y" * CACHE_LINE_SIZE
    model.store(0, 8)
    assert model.state_of(0) is LineState.MODIFIED
    assert model.is_ordering_fence()
    assert model.fence() == []
    assert model.state_of(0) is LineState.MODIFIED
    assert model.persisted_line(0) is None
    assert model.volatile_lines() == {0}
