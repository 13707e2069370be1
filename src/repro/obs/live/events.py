"""The versioned, typed live-event schema.

One detection run is an ordered stream of :class:`LiveEvent` records:
run lifecycle (``run_started`` / ``run_finished``), phase lifecycle
(``phase_started`` / ``phase_finished``), per-failure-point progress
(``point_injected`` / ``point_dispatched`` / ``point_completed``),
findings and incidents as they are merged, worker lifecycle, and
periodic heartbeats.  Every sink — the TTY progress renderer, the
NDJSON stream file, the Prometheus textfile writer, the HTML report —
consumes exactly this stream, and the future service daemon streams it
to clients unchanged.

The schema is versioned: every serialized event carries ``v``, and
:func:`event_from_dict` refuses records from a different major version
instead of guessing — a stream written by a newer schema is rejected
loudly, never half-parsed.

Determinism contract: with heartbeats, worker-lifecycle events, and
the ``ts`` / ``seq`` / ``worker`` / ``seconds`` / ``run_id`` envelope
fields removed, the stream is identical for the same workload at any
``jobs`` width (asserted by ``tests/integration/test_live_telemetry``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Bump the major version on any incompatible change to the envelope
#: or to an existing kind's payload; consumers refuse other majors.
SCHEMA_VERSION = 1

#: The closed set of event kinds (schema v1).  The ``job_*``/
#: ``shard_*``/``drain_*`` kinds are emitted only by the
#: ``repro.service`` daemon — detection runs never produce them, but
#: they share the schema so one consumer reads both streams.
EVENT_KINDS = frozenset({
    "run_started",
    "run_finished",
    "phase_started",
    "phase_finished",
    "point_injected",
    "point_dispatched",
    "point_completed",
    "finding",
    "incident",
    # Emitted by no current run (crash-state dedup classes are gone);
    # kept so v1 streams recorded while they existed still load.
    "dedup_hit",
    "heartbeat",
    "worker_spawned",
    "worker_died",
    "job_submitted",
    "job_state",
    "shard_dispatched",
    "shard_completed",
    "shard_reclaimed",
    "drain_started",
    "drain_finished",
})

#: Kinds whose presence/ordering depends on wall-clock or worker
#: identity rather than the detection schedule.  Determinism
#: comparisons drop these (everything else must match exactly) —
#: every service kind lands here because fleet scheduling is
#: wall-clock-driven by nature.
NONDETERMINISTIC_KINDS = frozenset({
    "heartbeat", "worker_spawned", "worker_died",
    "job_submitted", "job_state", "shard_dispatched",
    "shard_completed", "shard_reclaimed",
    "drain_started", "drain_finished",
})

#: Envelope/payload fields that carry wall-clock, worker identity, or
#: the executor choice itself (``jobs``/``executor`` describe the
#: schedule being compared, not the detection outcome).
NONDETERMINISTIC_FIELDS = (
    "ts", "seq", "run_id", "worker", "seconds", "jobs", "executor",
)


class SchemaVersionError(ValueError):
    """An event stream was written by an incompatible schema version."""


@dataclass(frozen=True)
class LiveEvent:
    """One event on the run's live bus.

    The envelope (``kind``, ``seq``, ``ts``, ``run_id``) is fixed;
    kind-specific payload lives under ``data`` so payload keys can
    never collide with envelope keys.
    """

    kind: str
    seq: int
    ts: float
    run_id: str
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown live-event kind {self.kind!r}")

    def to_dict(self):
        return {
            "v": SCHEMA_VERSION,
            "kind": self.kind,
            "seq": self.seq,
            "ts": self.ts,
            "run_id": self.run_id,
            "data": dict(self.data),
        }


def event_from_dict(record):
    """Rebuild a :class:`LiveEvent` from its serialized form.

    Raises :class:`SchemaVersionError` on a version mismatch and
    ``ValueError`` on a malformed record or unknown kind, so a corrupt
    or future-format stream fails loudly at the first bad line.
    """
    if not isinstance(record, dict):
        raise ValueError(f"live event must be a dict, got {record!r}")
    version = record.get("v")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"live-event schema v{version!r} is not supported "
            f"(this reader speaks v{SCHEMA_VERSION})"
        )
    try:
        return LiveEvent(
            kind=record["kind"],
            seq=int(record["seq"]),
            ts=float(record["ts"]),
            run_id=str(record["run_id"]),
            data=dict(record.get("data") or {}),
        )
    except KeyError as exc:
        raise ValueError(
            f"live event missing required field {exc.args[0]!r}"
        ) from None


def read_events(path):
    """Parse an NDJSON event-stream file into :class:`LiveEvent`\\ s.

    Blank lines are skipped (an append-only file may end mid-write
    after a crash — a trailing partial line is reported with its line
    number rather than swallowed).
    """
    import json

    events = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from None
            events.append(event_from_dict(record))
    return events


def normalized_stream(events):
    """The deterministic projection of an event stream.

    Drops wall-clock-dependent kinds and scrubs the nondeterministic
    envelope/payload fields, returning sorted canonical dicts — two
    runs of the same workload must produce equal projections whatever
    the executor or pool width.
    """
    import json

    kept = []
    for event in events:
        if event.kind in NONDETERMINISTIC_KINDS:
            continue
        record = event.to_dict()
        for fieldname in NONDETERMINISTIC_FIELDS:
            record.pop(fieldname, None)
            record["data"].pop(fieldname, None)
        kept.append(record)
    return sorted(kept, key=lambda r: json.dumps(r, sort_keys=True))
