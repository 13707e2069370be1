"""The JSON job schema: what a client submits, validated once.

A :class:`JobSpec` is the *whole* detection request — workload,
sizing, faults, detection knobs, and the job's sharding shape.  It is
deliberately a plain dataclass over JSON-native types so it survives
``to_dict``/``from_dict`` round trips bit-for-bit: the daemon persists
it verbatim in ``spec.json`` and every shard (and the byte-identity
reference run in the tests) rebuilds its config from the same dict.

Determinism contract: :meth:`detector_config` must yield configs whose
journal checksum (:func:`repro.resilience.run_checksum`) is identical
for every shard of one job — only scheduling fields
(``failure_point_window``, jobs, journal paths, telemetry) may differ
between the shards, the merge run, and the one-shot reference.
"""

from __future__ import annotations

import dataclasses
import re

from repro.core.config import DetectorConfig
from repro.pm.image import CrashImageMode
from repro.workloads import ALL_WORKLOADS

SPEC_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class SpecError(ValueError):
    """A submitted job spec failed validation."""


@dataclasses.dataclass
class JobSpec:
    """One detection job as submitted over the API."""

    workload: str
    faults: list = dataclasses.field(default_factory=list)
    init_size: int = 0
    test_size: int = 4
    #: Detection knobs (checksum-relevant: identical on every shard).
    crash_state_variants: int = 0
    plan_mode: str | None = None
    max_failure_points: int | None = None
    strict_image: bool = False
    report_perf_bugs: bool = True
    #: Sharding shape: how many contiguous fid ranges the plan splits
    #: into.  1 = no fan-out (still journaled + resumable).
    shards: int = 2
    #: Resilience knobs forwarded to every shard run.
    exec_deadline: float | None = None
    max_retries: int | None = None
    chaos: str | None = None
    #: Free-form tag echoed in status output (e.g. a CI build id).
    label: str | None = None

    def __post_init__(self):
        if self.workload not in ALL_WORKLOADS:
            raise SpecError(
                f"unknown workload {self.workload!r} (have: "
                f"{', '.join(sorted(ALL_WORKLOADS))})"
            )
        if self.label is not None and not _NAME_RE.match(self.label):
            raise SpecError(
                f"label {self.label!r} must match {_NAME_RE.pattern}"
            )
        self.faults = [str(fault) for fault in self.faults]
        self.init_size = int(self.init_size)
        self.test_size = int(self.test_size)
        self.shards = max(1, int(self.shards))
        if self.test_size < 1:
            raise SpecError("test_size must be >= 1")

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SpecError(f"job spec must be an object, got {data!r}")
        version = data.get("v", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SpecError(
                f"job spec v{version!r} not supported "
                f"(this daemon speaks v{SPEC_VERSION})"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known - {"v"}
        if unknown:
            raise SpecError(
                f"unknown job spec field(s): {', '.join(sorted(unknown))}"
            )
        if "workload" not in data:
            raise SpecError("job spec needs a 'workload'")
        try:
            return cls(**{k: v for k, v in data.items() if k != "v"})
        except TypeError as exc:
            raise SpecError(f"bad job spec: {exc}") from exc

    def to_dict(self):
        payload = {"v": SPEC_VERSION}
        payload.update(dataclasses.asdict(self))
        return payload

    # -- build ----------------------------------------------------------

    def build_workload(self):
        return ALL_WORKLOADS[self.workload](
            faults=set(self.faults),
            init_size=self.init_size,
            test_size=self.test_size,
        )

    def detector_config(self, **overrides):
        """A :class:`DetectorConfig` for one run of this job.

        ``overrides`` carry the per-run scheduling fields (shard
        window, journal paths, executor shape, telemetry) — everything
        checksum-relevant comes from the spec itself.
        """
        fields = {
            "crash_image_mode": (
                CrashImageMode.PERSISTED_ONLY if self.strict_image
                else CrashImageMode.AS_WRITTEN
            ),
            "crash_state_variants": self.crash_state_variants,
            "max_failure_points": self.max_failure_points,
            "report_perf_bugs": self.report_perf_bugs,
            # The daemon is headless: no TTY progress line, and chaos
            # only when the spec asks for it (never from the daemon's
            # own environment).
            "progress": False,
            "chaos": self.chaos,
        }
        if self.plan_mode is not None:
            fields["plan_mode"] = self.plan_mode
        if self.exec_deadline is not None:
            fields["exec_deadline"] = self.exec_deadline
        if self.max_retries is not None:
            fields["max_retries"] = max(0, int(self.max_retries))
        fields.update(overrides)
        return DetectorConfig(**fields)
