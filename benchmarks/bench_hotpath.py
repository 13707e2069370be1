"""Serial engine hot path: columnar traces + compiled replay plans.

Every other speedup in the repo (exec parallelism, the replay-prefix
memo, mechanism pruning, warm pools) multiplies the serial per-PM-op
cost; this benchmark tracks that cost directly.  Two gates:

* **Speedup** — full detection of ``hashmap_tx`` @ 30 pre-failure
  transactions, jobs=1 (the acceptance configuration), timed
  best-of-N and compared against the measured pre-change baseline
  recorded in :data:`PRECHANGE_BASELINE`.  Ops/sec and the per-phase
  split land in ``BENCH_hotpath.json``.

* **Byte identity** — the optimized engine (columnar recorder,
  checkpointed replay, image memo, coalescing/memoized ShadowPM)
  against two references on the full Table 4 microbenchmark set (tiny
  sizes, so CI can afford it): the interleaved schedule over the
  unoptimized shadow (:func:`tests.shadow_ref.reference_bugs`,
  same bug list), and an audited run — ``DetectorConfig(audit=True)``
  replays every point into its own audit scope and bypasses the
  shadow's coalescing and memo lookups whenever an audit sink is
  attached.  The audited report must match byte-for-byte, timings
  aside.

Run with ``--benchmark-only``::

    PYTHONPATH=src python -m pytest -q --benchmark-only \\
        benchmarks/bench_hotpath.py
"""

import os
import time

import pytest

from benchmarks._common import (
    format_table,
    run_detection,
    table_records,
    write_result,
    write_trajectory,
)
from repro.core import DetectorConfig, XFDetector
from repro.core.frontend import Frontend
from repro.core.report import DetectionReport
from repro.workloads import MICROBENCHMARKS

from tests.shadow_ref import reference_bugs

#: Pre-change serial cost of the acceptance configuration (hashmap_tx
#: @ 30 transactions, jobs=1, with the since-removed crash-state dedup
#: switch on, as it then was by default): best of 5 runs on the
#: development machine at commit 4041489, immediately before the
#: hot-path work landed.  ``cpu_seconds`` (``time.process_time``) is
#: the gated metric — it excludes scheduler wait and so stays stable
#: on a shared machine, where wall clock swings by 2x with load; the
#: wall figure is kept for context.  Machine-specific by nature — the
#: recorded ``speedup_vs_prechange`` is only meaningful against this
#: provenance row, which is why the row is written into the
#: trajectory file.
PRECHANGE_BASELINE = {
    "workload": "hashmap_tx",
    "transactions": 30,
    "jobs": 1,
    "dedup": True,
    "cpu_seconds": 1.836,
    "wall_seconds": 3.149,
    "measured_at_commit": "4041489",
}

#: Wall-clock floor the tentpole promises over PRECHANGE_BASELINE.
SPEEDUP_FLOOR = 2.0

TX_COUNT = 30
ROUNDS = 3

#: Tiny sizes for the identity sweep: every Table 4 microbenchmark,
#: cheap enough for the CI perf-smoke job.
IDENTITY_TEST_SIZE = 3


def _strip_timings(report):
    data = report.to_dict(unique=False)
    data["stats"] = {
        key: value for key, value in data["stats"].items()
        if not key.endswith("seconds")
    }
    return data


def _timed_run(config):
    cpu_started = time.process_time()
    started = time.perf_counter()
    report = run_detection(
        MICROBENCHMARKS["hashmap_tx"](test_size=TX_COUNT), config
    )
    return (
        time.perf_counter() - started,
        time.process_time() - cpu_started,
        report,
    )


def test_hotpath_speedup(benchmark):
    """Best-of-N serial detection vs the pre-change baseline."""
    config = DetectorConfig(jobs=1)
    best = best_cpu = None
    best_report = None
    for _ in range(ROUNDS):
        elapsed, cpu, report = _timed_run(config)
        if best is None or elapsed < best:
            best = elapsed
        if best_cpu is None or cpu < best_cpu:
            best_cpu, best_report = cpu, report
    stats = best_report.stats
    total_events = stats.pre_trace_events + stats.post_trace_events
    events_per_s = int(total_events / best_cpu)
    speedup = PRECHANGE_BASELINE["cpu_seconds"] / best_cpu
    wall_speedup = PRECHANGE_BASELINE["wall_seconds"] / best

    benchmark.pedantic(
        lambda: run_detection(
            MICROBENCHMARKS["hashmap_tx"](test_size=TX_COUNT), config
        ),
        rounds=1, iterations=1,
    )

    headers = ["row", "cpu_s", "wall_s", "events", "events_per_cpu_s",
               "speedup_vs_prechange", "note"]
    rows = [
        ["prechange", f"{PRECHANGE_BASELINE['cpu_seconds']:.3f}",
         f"{PRECHANGE_BASELINE['wall_seconds']:.3f}", "-", "-", "1.00",
         f"measured at commit {PRECHANGE_BASELINE['measured_at_commit']}"],
        ["optimized", f"{best_cpu:.3f}", f"{best:.3f}", total_events,
         events_per_s, f"{speedup:.2f}", f"best of {ROUNDS} (cpu)"],
    ]
    phase_rows = [
        ["pre-failure", "-", f"{stats.pre_failure_seconds:.3f}",
         stats.pre_trace_events,
         int(stats.pre_trace_events
             / max(stats.pre_failure_seconds, 1e-9)), "-", ""],
        ["post-failure", "-", f"{stats.post_failure_seconds:.3f}",
         stats.post_trace_events,
         int(stats.post_trace_events
             / max(stats.post_failure_seconds, 1e-9)), "-", ""],
        ["backend", "-", f"{stats.backend_seconds:.3f}", total_events,
         int(total_events / max(stats.backend_seconds, 1e-9)), "-",
         "replays pre+post programs"],
    ]
    text = format_table(
        headers, rows + phase_rows,
        title=(
            "Serial hot path — hashmap_tx @ 30 tx, jobs=1 "
            f"(floor: {SPEEDUP_FLOOR}x vs pre-change baseline)"
        ),
    )
    write_result(
        "hotpath", text,
        records=table_records("hotpath", headers, rows + phase_rows),
    )
    write_trajectory(
        "hotpath",
        [dict(zip(headers, row)) for row in rows + phase_rows],
        summary={
            "workload": "hashmap_tx",
            "transactions": TX_COUNT,
            "jobs": 1,
            "cpu_count": os.cpu_count() or 1,
            "prechange_baseline": PRECHANGE_BASELINE,
            "best_cpu_seconds": round(best_cpu, 3),
            "best_wall_seconds": round(best, 3),
            "events_per_cpu_s": events_per_s,
            "failure_points": stats.failure_points,
            "speedup_vs_prechange": round(speedup, 3),
            "wall_speedup_vs_prechange": round(wall_speedup, 3),
            "speedup_floor": SPEEDUP_FLOOR,
            "phase_seconds": {
                "pre_failure": round(stats.pre_failure_seconds, 3),
                "post_failure": round(stats.post_failure_seconds, 3),
                "backend": round(stats.backend_seconds, 3),
            },
        },
    )

    floor_message = (
        f"serial hot path {best_cpu:.3f} cpu-s is only {speedup:.2f}x "
        "over the pre-change baseline "
        f"{PRECHANGE_BASELINE['cpu_seconds']:.3f} cpu-s (floor "
        f"{SPEEDUP_FLOOR}x); the baseline is provenance from the "
        "development machine — rerun there before reading a miss on "
        "different hardware as a regression"
    )
    if os.environ.get("XFD_HOTPATH_STRICT", "1") == "0":
        # Foreign hardware (CI runners): the baseline does not
        # describe this machine, so record the trajectory but only
        # warn on a floor miss.
        if speedup < SPEEDUP_FLOOR:
            print(f"\nWARNING (non-strict): {floor_message}")
    else:
        assert speedup >= SPEEDUP_FLOOR, floor_message


@pytest.mark.parametrize("name", list(MICROBENCHMARKS))
def test_hotpath_byte_identity(benchmark, name):
    """Optimized engine vs the reference oracle and an audited run.

    The oracle replays the interleaved schedule over the unoptimized
    reference shadow; ``audit=True`` replays every point live through
    a ShadowPM whose coalescing and memo fast paths are disabled by the
    attached audit sink.  Every optimization must be observationally
    invisible to both.
    """
    workload_cls = MICROBENCHMARKS[name]
    config = DetectorConfig(jobs=1)
    detector = XFDetector(config)
    result = Frontend(config, telemetry=detector.telemetry).run(
        workload_cls(test_size=IDENTITY_TEST_SIZE)
    )
    optimized = detector.analyze(result)
    oracle = DetectionReport(optimized.workload_name)
    oracle.bugs = reference_bugs(result, config)
    assert (
        optimized.to_dict(unique=False)["bugs"]
        == oracle.to_dict(unique=False)["bugs"]
    ), f"{name}: optimized bug list differs from the reference oracle"
    audited = run_detection(
        workload_cls(test_size=IDENTITY_TEST_SIZE),
        DetectorConfig(jobs=1, audit=True),
    )
    assert _strip_timings(optimized) == _strip_timings(audited), (
        f"{name}: optimized report differs from the audited run"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
