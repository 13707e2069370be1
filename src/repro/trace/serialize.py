"""Trace serialization: v1 text lines and v2 packed binary.

The original tool streams trace entries from the Pin frontend to the
backend through FIFOs; this reproduction keeps traces in memory, but
offers two on-disk formats so traces can be dumped, diffed, and
re-analysed offline — the "trace-analysis prototype" workflow.

**v1 (text)** — one event per line, space-separated, ``|`` separates
the source location which may itself contain spaces::

    <seq> <KIND> <addr-hex> <size> <tid> <info-or-dash> | \
        <file>:<line>:<function>

**v2 (packed binary)** — the recorder's columnar layout written out
directly: six little-endian scalar columns followed by the interned
info-string and call-site tables.  Dumping is a handful of
``array.tobytes`` calls instead of per-event string formatting, the
interned tables are written once instead of repeating every call site
per line, and loading rebuilds a columnar recorder without
materializing events.  See :func:`dump_packed` for the exact layout.

:func:`load_trace` auto-detects which format it was handed, so readers
written against v1 text keep working unchanged.
"""

from __future__ import annotations

import struct
import sys
from array import array

from repro._location import UNKNOWN_LOCATION, SourceLocation, intern_location
from repro.errors import TraceFormatError
from repro.trace.events import KIND_BY_CODE, EventKind, TraceEvent


def format_event(event):
    """Render one event as a trace line."""
    info = event.info if event.info else "-"
    ip = event.ip
    return (
        f"{event.seq} {event.kind.value} {event.addr:#x} {event.size} "
        f"{event.tid} {info} | {ip.filename}:{ip.lineno}:{ip.function}"
    )


def format_trace(events):
    """Render an iterable of events as trace text."""
    return "\n".join(format_event(event) for event in events) + "\n"


def parse_event(line):
    """Parse one trace line back into a :class:`TraceEvent`."""
    head, sep, tail = line.partition(" | ")
    if not sep:
        raise ValueError(f"malformed trace line (no location): {line!r}")
    # Split at most 5 times: the trailing info field may itself contain
    # spaces (commit-variable names, library region labels).
    fields = head.split(None, 5)
    if len(fields) != 6:
        raise ValueError(f"malformed trace line: {line!r}")
    seq_text, kind_text, addr_text, size_text, tid_text, info = fields
    filename, _, rest = tail.partition(":")
    lineno_text, _, function = rest.partition(":")
    ip = SourceLocation(filename, int(lineno_text), function)
    if ip == UNKNOWN_LOCATION:
        ip = UNKNOWN_LOCATION
    return TraceEvent(
        seq=int(seq_text),
        kind=EventKind(kind_text),
        addr=int(addr_text, 16),
        size=int(size_text),
        info="" if info == "-" else info,
        ip=ip,
        tid=int(tid_text),
    )


def parse_trace(text):
    """Parse trace text back into a list of events."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        events.append(parse_event(line))
    return events


# ----------------------------------------------------------------------
# v2 packed binary format
# ----------------------------------------------------------------------

#: v2 file magic; the trailing byte is the format version.
PACKED_MAGIC = b"XFDTRC\x00\x02"

_HEADER = struct.Struct("<8sBII")  # magic, has_roi, n_events, reserved
_U32 = struct.Struct("<I")

# Column element types, in file order.  Arrays are written
# little-endian; on big-endian hosts they are byteswapped around
# tobytes/frombytes.
_COLUMN_TYPES = ("B", "Q", "Q", "H", "I", "I")
_SWAP = sys.byteorder == "big"


def _write_str(out, text):
    data = text.encode("utf-8")
    out.append(_U32.pack(len(data)))
    out.append(data)


def _read_u32(buf, offset, what):
    if offset + 4 > len(buf):
        raise TraceFormatError(f"packed trace truncated in {what}")
    return _U32.unpack_from(buf, offset)[0], offset + 4


def _read_str(buf, offset, what):
    length, offset = _read_u32(buf, offset, what)
    end = offset + length
    if end > len(buf):
        raise TraceFormatError(f"packed trace truncated in {what}")
    try:
        text = str(buf[offset:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"invalid UTF-8 in {what}: {exc}") from None
    return text, end


def dump_packed(source):
    """Serialize a trace to v2 packed bytes.

    ``source`` is a :class:`~repro.trace.recorder.TraceRecorder` (fast
    path: its columns are written directly) or any iterable of
    :class:`TraceEvent` (a throwaway recorder is filled first).

    Layout, all integers little-endian::

        8s   magic "XFDTRC\\x00\\x02"
        B    has_roi flag
        I    event count n
        I    reserved (zero)
        str  stage ("pre"/"post"; u32 length + utf-8 bytes)
        n*1  kind codes        (u8)
        n*8  addresses         (u64)
        n*8  sizes             (u64)
        n*2  thread ids        (u16)
        n*4  info-table index  (u32)
        n*4  ip-table index    (u32)
        I    info table count, then per entry: str
        I    ip table count, then per entry: str file, I line, str func
    """
    from repro.trace.recorder import TraceRecorder

    recorder = source
    if not isinstance(source, TraceRecorder):
        recorder = TraceRecorder()
        for event in source:
            ip = event.ip
            recorder.append(
                event.kind, event.addr, event.size, event.info,
                None if ip is UNKNOWN_LOCATION else ip, tid=event.tid,
            )
    columns = (
        recorder._kinds, recorder._addrs, recorder._sizes,
        recorder._tids, recorder._info_idx, recorder._ip_idx,
    )
    out = [_HEADER.pack(
        PACKED_MAGIC, 1 if recorder.has_roi else 0, len(recorder), 0
    )]
    _write_str(out, recorder.stage)
    for column in columns:
        if _SWAP and column.itemsize > 1:
            column = array(column.typecode, column)
            column.byteswap()
        out.append(column.tobytes())
    infos = recorder._infos
    out.append(_U32.pack(len(infos)))
    for info in infos:
        _write_str(out, info)
    ips = recorder._ips
    out.append(_U32.pack(len(ips)))
    for ip in ips:
        _write_str(out, ip.filename)
        out.append(_U32.pack(ip.lineno))
        _write_str(out, ip.function)
    return b"".join(out)


def load_packed(data):
    """Parse v2 packed bytes back into a
    :class:`~repro.trace.recorder.TraceRecorder`."""
    from repro.trace.recorder import TraceRecorder

    if not is_packed(data):
        raise TraceFormatError("not a v2 packed trace (bad magic)")
    if len(data) < _HEADER.size:
        raise TraceFormatError("packed trace truncated in header")
    _magic, has_roi, count, reserved = _HEADER.unpack_from(data, 0)
    if has_roi > 1 or reserved:
        raise TraceFormatError("packed trace header is corrupt")
    stage, offset = _read_str(data, _HEADER.size, "stage")
    columns = []
    for typecode in _COLUMN_TYPES:
        column = array(typecode)
        end = offset + column.itemsize * count
        if end > len(data):
            raise TraceFormatError("packed trace truncated in a column")
        column.frombytes(data[offset:end])
        if _SWAP and column.itemsize > 1:
            column.byteswap()
        offset = end
        columns.append(column)
    n_infos, offset = _read_u32(data, offset, "info table")
    infos = []
    for _ in range(n_infos):
        info, offset = _read_str(data, offset, "info table")
        infos.append(info)
    n_ips, offset = _read_u32(data, offset, "ip table")
    ips = []
    for _ in range(n_ips):
        filename, offset = _read_str(data, offset, "ip table")
        lineno, offset = _read_u32(data, offset, "ip table")
        function, offset = _read_str(data, offset, "ip table")
        ips.append(intern_location(filename, lineno, function))
    if offset != len(data):
        raise TraceFormatError(
            f"{len(data) - offset} trailing byte(s) after packed trace"
        )
    # Index 0 of each table is the recorder's default payload.
    if infos[:1] != [""] or ips[:1] != [UNKNOWN_LOCATION]:
        raise TraceFormatError(
            "packed trace tables lack their default first entry"
        )
    kinds, infos_idx, ips_idx = columns[0], columns[4], columns[5]
    if count and (
        max(kinds) >= len(KIND_BY_CODE)
        or max(infos_idx) >= len(infos)
        or max(ips_idx) >= len(ips)
    ):
        raise TraceFormatError(
            "packed trace refers past its kind, info or ip table"
        )
    recorder = TraceRecorder(stage=stage)
    # Restore through __setstate__: it rebuilds the intern tables and
    # rebinds the column append methods in one place.
    recorder.__setstate__((
        stage, bool(has_roi), columns[0], columns[1], columns[2],
        columns[3], columns[4], columns[5], infos, ips,
    ))
    return recorder


def is_packed(data):
    """True if ``data`` (bytes) begins with the v2 packed magic."""
    return isinstance(data, (bytes, bytearray, memoryview)) \
        and bytes(data[:8]) == PACKED_MAGIC


def load_trace(data):
    """Load a trace from either format, auto-detecting.

    v2 packed bytes are recognised by magic; anything else (str, or
    bytes of v1 text) goes through the line parser.  Returns a list of
    :class:`TraceEvent` either way, so existing v1 readers can be
    pointed at v2 files unchanged.
    """
    if is_packed(data):
        return load_packed(bytes(data)).events
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = bytes(data).decode("utf-8")
    return parse_trace(data)
