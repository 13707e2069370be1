"""Measurement helpers: percentiles, process resources, set-up time
and provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50, 75, 90, 95, 99)


def percentile(values, p):
    """The ``p``-th percentile of ``values`` (``statistics.quantiles``,
    exclusive method; the single value for one sample)."""
    values = sorted(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1 or p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[p - 1]


def highest_reportable(count, beyond=10):
    """The highest percentile in :data:`PERCENTILES` with at least
    ``beyond`` of ``count`` samples above it, or None if even the
    median has fewer."""
    best = None
    for p in PERCENTILES:
        if count * (100 - p) >= beyond * 100:
            best = p
    return best


def split_cpu_seconds():
    """``(self, reaped children)`` CPU seconds."""
    out = []
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        out.append(usage.ru_utime + usage.ru_stime)
    return tuple(out)


def peak_rss_mb():
    """Peak resident set of this process or of its largest reaped
    child (``ru_maxrss`` is in KiB on Linux)."""
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN))
    return peak / 1024.0


#: The reference loop's time on the development VM in a fast phase.
#: Normalized timings are scaled to it, so they read close to that
#: machine's uncontended seconds.
REFERENCE_SECONDS = 0.0017


def reference_seconds():
    """Seconds one fixed pure-Python loop takes right now.

    The loop does in small what detection spends its time on: it
    allocates tuples and strings, fills a dict and looks entries up
    again.  It uses nothing of ``repro``, so a change to the program
    under test cannot move it.  Only the speed of the machine can.
    """
    start = time.perf_counter()
    rows = [(i, i * 3, str(i)) for i in range(6000)]
    index = {row[2]: row for row in rows}
    total = 0
    for key in range(0, 6000, 3):
        total += index[str(key)][1]
    return time.perf_counter() - start


def speed_scale(reference_samples):
    """The factor that normalizes timings taken while the reference
    loop ran at ``reference_samples`` to :data:`REFERENCE_SECONDS`."""
    return REFERENCE_SECONDS / statistics.median(reference_samples)


#: A fresh interpreter's set-up: import ``repro`` and run one warm-up
#: detection, then print the monotonic clock (system-wide on Linux, so
#: the parent can subtract its own spawn time).  After the clock, the
#: child times the reference loop, to normalize its own set-up time.
SETUP_PROGRAM = """\
import time
from repro.core import DetectorConfig, XFDetector
from repro.workloads import HashmapTxWorkload
XFDetector(DetectorConfig(jobs=1, executor="serial", progress=False)).run(
    HashmapTxWorkload(test_size=1))
print(time.monotonic())
from measure import reference_seconds
print(*(reference_seconds() for _ in range(5)))
"""


def clean_env(src_dir):
    """The environment detection runs under: no ``XFD_*`` overrides,
    ``repro`` imported from ``src_dir``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("XFD_")}
    env["PYTHONPATH"] = os.pathsep.join([str(src_dir), str(HERE)])
    return env


def setup_seconds(src_dir, cwd, repeats=5):
    """Per-repeat ``(raw, normalized)`` seconds from spawning a fresh
    interpreter to the end of its warm-up detection."""
    env = clean_env(src_dir)
    samples = []
    for _ in range(repeats):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROGRAM], env=env, cwd=cwd,
            capture_output=True, text=True, timeout=60, check=True,
        )
        end, refs = done.stdout.splitlines()[-2:]
        raw = float(end) - start
        samples.append(
            (raw, raw * speed_scale([float(r) for r in refs.split()])))
    return samples


def _git_commit(root):
    """HEAD of ``root/.git`` read from its files (no ``git`` process,
    no search above ``root``); None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src_dir):
    """SHA-256 over every ``.py`` file under ``src_dir`` (path and
    bytes): identifies the code when there is no git commit."""
    digest = hashlib.sha256()
    for path in sorted(Path(src_dir).rglob("*.py")):
        digest.update(str(path.relative_to(src_dir)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root, src_dir, seed, executors):
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "python": platform.python_version(),
        "commit": _git_commit(Path(root)),
        "src_sha256": src_digest(src_dir),
        "seed": seed,
        "executors": executors,
    }
