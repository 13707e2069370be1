"""The benchmark's workloads: seeded detection jobs with known answers.

A *job* is one full ``XFDetector(config).run(workload)`` detection plus
the answer it must give.  A *workload* is the ordered list of jobs one
pass runs.  Every input is derived from ``--seed``: the bug-suite draws
and the key sequences of the clean programs.  The detector only ever
sees the generated workload objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bugsuite import NEW_BUGS, bug_entries, build_workload
from repro.core import DetectorConfig
from repro.workloads import (
    BTreeWorkload,
    CTreeWorkload,
    HashmapAtomicWorkload,
    HashmapTxWorkload,
    MICROBENCHMARKS,
    PMCacheWorkload,
    PMKVWorkload,
    RBTreeWorkload,
)
from repro.workloads.base import deterministic_keys

#: Worker-pool width of the ``parallel`` workload (within a 2-core box).
PARALLEL_JOBS = 2

#: Why each workload exists, and what it is sized to.  Printed with
#: every result so a number can be traced back to its inputs.
WHY = {
    "table4": (
        "many short detections that produce findings: per-run fixed "
        "cost and small-scale recovery dominate; traces and images "
        "stay small"
    ),
    "long_trace": (
        "failure-point count and post-trace length grow together: "
        "exposes layers whose cost per failure point rises with trace "
        "length; the image stays small"
    ),
    "large_image": (
        "few failure points on a large PM image: recovery walks the "
        "whole structure, so replay is read-heavy and INITSIZE setup "
        "is paid on every run"
    ),
    "parallel": (
        "jobs=2 on the default warm process executor: measures "
        "prewarm/fork, shared-memory publication, batching, outcome "
        "pickling and the merge"
    ),
}

WORKLOADS = tuple(WHY)


@dataclass
class Job:
    """One detection run and its known answer.

    ``expect`` is ``()`` for a clean program (no bug may be reported),
    otherwise the bug kinds of which at least one must be reported.
    """

    label: str
    make: object  # () -> repro Workload
    expect: tuple = ()
    config: dict = field(default_factory=dict)
    why: str = ""

    def detector_config(self):
        return DetectorConfig(**self.config)


def _rng(seed, *scope):
    """An RNG private to one draw: the same seed and scope always give
    the same sequence, whatever else the benchmark draws."""
    return random.Random(":".join(["perfbench", str(seed), *scope]))


def key_seed(seed, program):
    """The key-generator seed one clean program gets for ``seed``."""
    return _rng(seed, "keys", program).randrange(1, (1 << 31) - 1)


class _KeysFromSeed:
    """The five microbenchmarks draw keys from ``_keys()``; here they
    come from :func:`deterministic_keys` on a seeded generator seed."""

    def __init__(self, *args, key_seed, **kwargs):
        super().__init__(*args, **kwargs)
        self.key_seed = key_seed

    def _keys(self):
        total = self.init_size + self.test_size + 1
        return deterministic_keys(total, seed=self.key_seed)


class _PairsFromSeed:
    """The Redis and Memcached cores name their keys by index, and the
    update and delete steps address the first two test keys by name;
    here the seed permutes the order in which the pairs are set."""

    def __init__(self, *args, key_seed, **kwargs):
        super().__init__(*args, **kwargs)
        self.key_seed = key_seed

    def _pairs(self, count, offset=0):
        pairs = super()._pairs(count, offset)
        random.Random(self.key_seed + offset).shuffle(pairs)
        return pairs


# Module-level, so a workload pickles by reference to pool workers.
class SeededBTree(_KeysFromSeed, BTreeWorkload):
    pass


class SeededCTree(_KeysFromSeed, CTreeWorkload):
    pass


class SeededRBTree(_KeysFromSeed, RBTreeWorkload):
    pass


class SeededHashmapTx(_KeysFromSeed, HashmapTxWorkload):
    pass


class SeededHashmapAtomic(_KeysFromSeed, HashmapAtomicWorkload):
    pass


class SeededRedis(_PairsFromSeed, PMKVWorkload):
    pass


class SeededMemcached(_PairsFromSeed, PMCacheWorkload):
    pass


SEEDED = {
    "btree": SeededBTree,
    "ctree": SeededCTree,
    "rbtree": SeededRBTree,
    "hashmap_tx": SeededHashmapTx,
    "hashmap_atomic": SeededHashmapAtomic,
    "redis": SeededRedis,
    "memcached": SeededMemcached,
}


def seeded_program(name, seed, **params):
    """A factory for clean Table 4 program ``name`` whose key sequence
    comes from ``seed``."""
    cls = SEEDED[name]
    kseed = key_seed(seed, name)
    return lambda: cls(key_seed=kseed, **params)


def _bug_job(bug, seed, why, config=None):
    return Job(
        label=f"{bug.workload}:{bug.flag}",
        make=lambda: build_workload(bug),
        expect=(bug.expected_kind,),
        config=dict(config or {}),
        why=f"{why} (seed {seed})",
    )


def draw_table4_bugs(seed):
    """About half of the registry: ceil(n/2) cases from every
    (workload, bug class) stratum, so each seed draws the same mix."""
    strata = {}
    for bug in bug_entries():
        strata.setdefault((bug.workload, bug.bug_class), []).append(bug)
    drawn = []
    for (workload, bug_class), bugs in strata.items():
        rng = _rng(seed, "table4", workload, bug_class)
        picked = set(rng.sample(range(len(bugs)), (len(bugs) + 1) // 2))
        drawn.extend(bug for i, bug in enumerate(bugs) if i in picked)
    return drawn


def draw_parallel_bugs(seed, per_workload=2):
    """``per_workload`` registry cases from each microbenchmark."""
    drawn = []
    for workload in MICROBENCHMARKS:
        bugs = bug_entries(workload=workload)
        rng = _rng(seed, "parallel", workload)
        picked = set(rng.sample(range(len(bugs)), per_workload))
        drawn.extend(bug for i, bug in enumerate(bugs) if i in picked)
    return drawn


def build(name, seed, small=False):
    """The ordered job list of workload ``name`` for ``seed``.

    ``small`` shrinks every size for the self-tests' smoke pass; the
    job mix and the known answers stay the same.
    """
    # The TTY progress renderer stays off, so figures do not depend on
    # whether stderr is a terminal.
    serial = {"jobs": 1, "executor": "serial", "progress": False}
    if name == "table4":
        size = 2 if small else 8
        jobs = [
            Job(f"{p}@{size}", seeded_program(p, seed, test_size=size),
                config=serial,
                why=f"clean Table 4 program, keys from seed {seed}")
            for p in SEEDED
        ]
        bugs = draw_table4_bugs(seed)
        if small:
            bugs = bugs[::8]
        jobs += [
            _bug_job(bug, seed, "registry case, stratified draw",
                     serial)
            for bug in bugs
        ]
        jobs += [
            Job(f"new_bug_{s.number}", s.make_workload,
                expect=tuple(s.expected_kinds),
                config={**serial,
                        "crash_image_mode": s.config.crash_image_mode},
                why="paper Section 6.3.2 new bug")
            for s in NEW_BUGS
        ]
        return jobs
    if name == "long_trace":
        sizes = (("hashmap_tx", 6), ("btree", 4)) if small else (
            ("hashmap_tx", 120), ("btree", 30))
        return [
            Job(f"{p}@{n}", seeded_program(p, seed, test_size=n),
                config=serial,
                why=f"long pre/post traces, keys from seed {seed}")
            for p, n in sizes
        ]
    if name == "large_image":
        sizes = (("hashmap_tx", 20, 2), ("btree", 10, 2)) if small else (
            ("hashmap_tx", 500, 10), ("btree", 200, 10))
        return [
            Job(f"{p}@init{i}/test{n}",
                seeded_program(p, seed, init_size=i, test_size=n),
                config=serial,
                why=f"large initial image, keys from seed {seed}")
            for p, i, n in sizes
        ]
    if name == "parallel":
        pool = {"jobs": PARALLEL_JOBS, "progress": False}
        size = 6 if small else 60
        jobs = [
            Job(f"hashmap_tx@{size}",
                seeded_program("hashmap_tx", seed, test_size=size),
                config=pool,
                why=f"long run, dispatch-bound, keys from seed {seed}")
        ]
        bugs = draw_parallel_bugs(seed, per_workload=1 if small else 2)
        jobs += [
            _bug_job(bug, seed, "registry case, pool fixed cost", pool)
            for bug in bugs
        ]
        return jobs
    raise KeyError(name)


def check(job, report):
    """Why ``report`` is a wrong answer for ``job``, or None if right.

    Wrong means: a degraded report or absorbed incidents, a broken
    failure-point account, or the wrong verdict.
    """
    stats = report.stats
    if report.degraded or report.incidents:
        return f"{len(report.incidents)} incident(s)"
    if (stats.failure_points_executed
            + stats.failure_points_skipped_by_plan
            != stats.failure_points):
        return "failure points executed + skipped != placed"
    kinds = {bug.kind for bug in report.bugs}
    if not job.expect:
        if kinds:
            return f"clean program reported {sorted(k.name for k in kinds)}"
        return None
    if not kinds.intersection(job.expect):
        return (f"expected one of {[k.name for k in job.expect]}, "
                f"got {sorted(k.name for k in kinds)}")
    return None
