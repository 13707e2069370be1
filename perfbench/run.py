"""The repo benchmark: full XFDetector detections with known answers.

Run from the repository root::

    python3 perfbench/run.py --workload table4 --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (detection runs over the measured passes)
and ``metrics``, each ``{"value", "unit"}``.  ``--trace 0`` reports the
end-to-end metrics, measured untraced; ``--trace 1`` reports the
per-layer metrics of a traced run (spans written under
``perfbench/out/``).  The line before it holds the details: provenance,
the drawn jobs and why, per-pass figures, sample counts and failures.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "fp_per_s": "1/s",
    "verdict_s_p50": "s",
    "verdict_s_p75": "s",
    "verdict_ok_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics and their units (``--trace 1``).
PER_LAYER = {
    "setup.s": "s",
    "pre.s": "s",
    "pre.events": "count",
    "pre.ns_per_event": "ns",
    "recovery.s": "s",
    "post.events": "count",
    "recovery.ns_per_event": "ns",
    "fp.total": "count",
    "fp.executed": "count",
    "fp.executed_ratio": "ratio",
    "snapshot.capture.s": "s",
    "snapshot.capture.n": "count",
    "memo.restore.s": "s",
    "dedup.post_skipped": "count",
    "dedup.replay_skipped": "count",
    "dedup.hit_ratio": "ratio",
    "post.task.self_s": "s",
    "exec.prewarm_s": "s",
    "exec.phase_wait_s": "s",
    "exec.close_s": "s",
    "exec.worker_cpu_s": "s",
    "exec.parent_cpu_s": "s",
    "exec.busy_share": "share",
    "backend.s": "s",
    "backend.self_s": "s",
    "replay.lower.s": "s",
    "replay.lower.n": "count",
    "replay.run.s": "s",
    "replay.ns_per_event": "ns",
    "shadow.checkpoint.s": "s",
    "shadow.fork.s": "s",
    "report.render.s": "s",
    "frontend.s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "share",
}

#: DetectionStats fields summed over a pass.
STATS = ("failure_points", "failure_points_executed", "pre_trace_events",
         "post_runs_analyzed", "post_runs_deduped", "replays_deduped")

#: Fresh interpreters started to time set-up (the median is reported).
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ratio(num, den):
    return num / den if den else 0.0


def run_pass(jobs, recorder=None):
    """Run every job once, in order; never stops at a failing job.

    Each job starts from a collected heap (the collection is not
    timed): without it, cyclic garbage left by earlier detections
    holds their PM images and the peak RSS depends on when the
    collector last ran.  The reference loop is timed on the collected
    heap before each job, so no job's garbage can slow it.  Returns
    per-job wall and CPU seconds (this process plus reaped workers),
    the CPU split, the reference samples, summed stats and failures.
    """
    from measure import reference_seconds, split_cpu_seconds
    from repro.core import XFDetector
    from suite import check

    def render(report):
        # What the CLI prints: the text report and the --json payload.
        return report.format(), report.to_json()

    if recorder is not None:
        render = recorder.wrap("report.render", render)
    stats = dict.fromkeys(STATS, 0)
    walls, cpus, refs, failures = [], [], [], []
    self_cpu = child_cpu = 0.0
    for job in jobs:
        gc.collect()
        refs.append(reference_seconds())
        cpu0 = split_cpu_seconds()
        began = time.perf_counter()
        try:
            report = XFDetector(job.detector_config()).run(job.make())
            render(report)
        except Exception as exc:  # a raising run is a failed run
            traceback.print_exc()
            problem = f"raised {type(exc).__name__}: {exc}"
            report = None
        walls.append(time.perf_counter() - began)
        cpu1 = split_cpu_seconds()
        self_cpu += cpu1[0] - cpu0[0]
        child_cpu += cpu1[1] - cpu0[1]
        cpus.append(sum(cpu1) - sum(cpu0))
        if report is not None:
            problem = check(job, report)
            for name in STATS:
                stats[name] += getattr(report.stats, name)
        if problem is not None:
            failures.append({"job": job.label, "why": problem})
    return {
        "wall_s": sum(walls),
        "job_wall_s": walls,
        "job_cpu_s": cpus,
        "self_cpu_s": self_cpu,
        "child_cpu_s": child_cpu,
        "reference_s": refs,
        "stats": stats,
        "failures": failures,
    }


def median_per_job(passes, key):
    """Each job's median figure over ``passes``."""
    return [statistics.median(column)
            for column in zip(*(r[key] for r in passes))]


def layer_metrics(recorder, result, width):
    """One traced pass's per-layer metrics."""
    import spantrace as st

    spans = recorder.spans
    own = st.self_times(spans)
    counts = recorder.counts
    stats = result["stats"]
    wall = result["wall_s"]

    pre_s = st.total(spans, "workload.pre_failure", own)
    recovery_s = st.total(spans, "workload.post_failure")
    replay_s = st.total(spans, "replay.run")
    analyzed = stats["post_runs_analyzed"]
    skipped = stats["post_runs_deduped"] + stats["replays_deduped"]
    # Every analyzed run was either executed or cloned, once as a
    # post-failure execution and once as a backend replay.
    executed = 2 * analyzed - skipped
    worker_cpu = result["child_cpu_s"]
    return {
        "setup.s": st.total(spans, "workload.setup"),
        "pre.s": pre_s,
        "pre.events": stats["pre_trace_events"],
        "pre.ns_per_event": 1e9 * _ratio(pre_s, stats["pre_trace_events"]),
        "recovery.s": recovery_s,
        "post.events": counts.get("post.events", 0),
        "recovery.ns_per_event":
            1e9 * _ratio(recovery_s, counts.get("post.events", 0)),
        "fp.total": stats["failure_points"],
        "fp.executed": stats["failure_points_executed"],
        "fp.executed_ratio": _ratio(stats["failure_points_executed"],
                                    stats["failure_points"]),
        "snapshot.capture.s": st.total(spans, "snapshot.capture"),
        "snapshot.capture.n": st.calls(spans, "snapshot.capture"),
        "memo.restore.s": st.total(spans, "memo.restore"),
        "dedup.post_skipped": stats["post_runs_deduped"],
        "dedup.replay_skipped": stats["replays_deduped"],
        "dedup.hit_ratio": _ratio(skipped, executed),
        "post.task.self_s": st.total(spans, "post.task", own),
        "exec.prewarm_s": st.total(spans, "exec.prewarm"),
        "exec.phase_wait_s": st.total(spans, "exec.phase_wait"),
        "exec.close_s": st.total(spans, "exec.close"),
        "exec.worker_cpu_s": worker_cpu,
        "exec.parent_cpu_s": result["self_cpu_s"],
        "exec.busy_share": _ratio(worker_cpu, width * wall),
        "backend.s": st.total(spans, "backend"),
        "backend.self_s": st.total(spans, "backend", own),
        "replay.lower.s": st.total(spans, "replay.lower"),
        "replay.lower.n": st.calls(spans, "replay.lower"),
        "replay.run.s": replay_s,
        "replay.ns_per_event":
            1e9 * _ratio(replay_s, counts.get("replay.events", 0)),
        "shadow.checkpoint.s": st.total(spans, "shadow.checkpoint"),
        "shadow.fork.s": st.total(spans, "shadow.fork"),
        "report.render.s": st.total(spans, "report.render"),
        "frontend.s": st.total(spans, "frontend"),
        "trace.coverage": _ratio(st.top_level(spans), wall),
    }


def run_workload(name, seed, seconds, trace):
    """Warm up, then run passes of workload ``name`` until the next
    one would end past ``seconds``.  Returns ``(metrics, details,
    attempted, failures)``."""
    import measure as ms
    import suite
    from repro.core import DetectorConfig, XFDetector
    from repro.exec.base import resolve_executor
    from repro.workloads import HashmapTxWorkload

    jobs = suite.build(name, seed)
    # The same warm-up detection set-up time ends with, then one
    # small pass of the same programs: lazy caches (struct packers,
    # interned tables, memoized digests) fill before timing starts.
    XFDetector(DetectorConfig(jobs=1, executor="serial",
                              progress=False)).run(
        HashmapTxWorkload(test_size=1))
    run_pass(suite.build(name, seed, small=True))
    # The benchmark's own heap (modules, job lists) is frozen, so the
    # collection before each job walks only what detections left.
    gc.collect()
    gc.freeze()

    executors = {}
    for job in jobs:
        executor = resolve_executor(job.detector_config())
        executors[job.label] = type(executor).__name__
        executor.close()
    width = max(job.detector_config().jobs for job in jobs)

    recorder = tracer = None
    if trace:
        import spantrace

        recorder = spantrace.SpanRecorder()
        tracer = spantrace.Tracer(recorder)

    plain, traced, layers, exported = [], [], [], []
    start = time.perf_counter()
    while True:
        # Traced runs alternate untraced and traced passes, so drift
        # hits both sides of ``trace.overhead`` alike.
        if trace and len(traced) < len(plain):
            recorder.reset()
            with tracer:
                result = run_pass(jobs, recorder)
            traced.append(result)
            layers.append(layer_metrics(recorder, result, width))
            exported.append(recorder.export())
        else:
            plain.append(run_pass(jobs))
        elapsed = time.perf_counter() - start
        if trace and not traced:
            continue
        per_pass = elapsed / (len(plain) + len(traced))
        if elapsed + per_pass > seconds:
            break

    passes = plain + traced
    attempted = len(jobs) * len(passes)
    failures = [f for r in passes for f in r["failures"]]
    job_walls = median_per_job(plain, "job_wall_s")
    references = [ref for r in plain for ref in r["reference_s"]]
    scale = ms.speed_scale(references)
    verdicts = [wall * scale for wall in job_walls]
    details = {
        "workload": name,
        "why": suite.WHY[name],
        "provenance": ms.provenance(ROOT, SRC, seed, executors),
        "jobs": [{"job": j.label, "why": j.why} for j in jobs],
        "passes": [
            {"wall_s": r["wall_s"],
             "cpu_s": r["self_cpu_s"] + r["child_cpu_s"],
             "failure_points": r["stats"]["failure_points"],
             "traced": index >= len(plain)}
            for index, r in enumerate(passes)
        ],
        "median_job_wall_s": dict(zip((j.label for j in jobs),
                                      job_walls)),
        "reference_s": statistics.median(references),
        "speed_scale": scale,
        "verdict_samples": len(verdicts),
        "highest_reportable_percentile":
            ms.highest_reportable(len(verdicts)),
        "failures": failures,
    }

    if trace:
        metrics = {key: statistics.median(layer[key] for layer in layers)
                   for key in layers[0]}
        metrics["trace.overhead"] = (
            sum(median_per_job(traced, "job_wall_s"))
            / sum(job_walls) - 1.0
        )
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-seed{seed}.json"
        with open(spans_path, "w") as out:
            json.dump({"workload": name, "seed": seed,
                       "passes": exported}, out)
        details["spans"] = str(spans_path.relative_to(ROOT))
        units = PER_LAYER
    else:
        wall = sum(verdicts)
        metrics = {
            "wall_s": wall,
            "cpu_s": sum(median_per_job(plain, "job_cpu_s")) * scale,
            "fp_per_s": plain[0]["stats"]["failure_points"] / wall,
            "verdict_s_p50": ms.percentile(verdicts, 50),
            "verdict_s_p75": ms.percentile(verdicts, 75),
            "verdict_ok_share": 1.0 - len(failures) / attempted,
            "peak_rss_mb": ms.peak_rss_mb(),
        }
        setup = ms.setup_seconds(SRC, ROOT, SETUP_REPEATS)
        metrics["setup_s"] = statistics.median(n for _, n in setup)
        details["setup_samples_s"] = setup
        units = END_TO_END
    return ({key: {"value": metrics[key], "unit": unit}
             for key, unit in units.items()},
            details, attempted, failures)


def stop_children():
    """Stop every process the run started and wait until each has
    ended: pool workers first, then multiprocessing's resource
    tracker, which the warm process executor starts and which would
    otherwise outlive this process until it noticed the exit.  The
    shared-memory segments are released while the tracker still runs,
    so their exit hook has nothing left to unregister."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    shm = sys.modules.get("repro.exec.shm")
    if shm is not None:
        shm._release_all()
    resource_tracker._resource_tracker._stop()


def main(argv=None):
    args = parse_args(argv)
    # A terminated benchmark still stops its children on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    for key in [k for k in os.environ if k.startswith("XFD_")]:
        del os.environ[key]  # detection runs on the defaults
    import suite

    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(suite.WORKLOADS)})",
              file=sys.stderr)
        return 2
    try:
        metrics, details, attempted, failures = run_workload(
            args.workload, args.seed, args.seconds, args.trace)
    finally:
        stop_children()
    print(json.dumps({"details": details}))
    for key, metric in metrics.items():
        print(f"  {key:24s} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
