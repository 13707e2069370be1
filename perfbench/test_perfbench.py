"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
import suite  # noqa: E402
from repro.core import BugKind  # noqa: E402


# -- percentiles -------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75),
    (100, 90), (199, 90), (200, 95), (1000, 99),
])
def test_highest_reportable_needs_ten_samples_beyond(count, expected):
    assert measure.highest_reportable(count) == expected


def test_percentile_matches_statistics_quantiles():
    values = [float(v) for v in range(1, 41)]
    assert measure.percentile(values, 50) == 20.5
    assert measure.percentile(values, 75) == pytest.approx(30.75)
    assert measure.percentile([3.0], 75) == 3.0


# -- spans -------------------------------------------------------------


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_union_of_children():
    # root 0..10 with children a 1..4 and b 6..9 (a has child c 2..3).
    rec = spantrace.SpanRecorder(FakeClock(0, 1, 2, 3, 4, 6, 9, 10))
    root = rec.begin("root")
    a = rec.begin("a")
    c = rec.begin("c")
    rec.end(c)
    rec.end(a)
    b = rec.begin("b")
    rec.end(b)
    rec.end(root)
    own = spantrace.self_times(rec.spans)
    assert own == {root.sid: 4, a.sid: 2, c.sid: 1, b.sid: 3}
    assert spantrace.total(rec.spans, "a") == 3
    assert spantrace.total(rec.spans, "a", own) == 2
    assert spantrace.top_level(rec.spans) == 10


def test_covered_merges_overlaps():
    assert spantrace._covered([(0, 2), (1, 3), (5, 6)]) == 4


def test_wrap_records_parent_and_restores_on_error():
    rec = spantrace.SpanRecorder()

    def boom():
        raise ValueError("x")

    outer = rec.wrap("outer", lambda: rec.wrap("inner", boom)())
    with pytest.raises(ValueError):
        outer()
    inner = rec.spans[1]
    assert inner.parent == rec.spans[0].sid
    assert rec._stack == []


def test_tracer_restores_every_entry_point():
    from repro.core import XFDetector
    from repro.workloads.base import Workload

    before = (XFDetector.run, Workload.setup)
    with spantrace.Tracer(spantrace.SpanRecorder()):
        assert XFDetector.run is not before[0]
    assert (XFDetector.run, Workload.setup) == before


# -- seeded draws ------------------------------------------------------


def test_draws_are_stable_per_seed_and_differ_across_seeds():
    first = suite.draw_table4_bugs(1)
    assert first == suite.draw_table4_bugs(1)
    assert first != suite.draw_table4_bugs(2)
    assert len(first) == len(suite.draw_table4_bugs(2)) == 32
    assert suite.draw_parallel_bugs(3) == suite.draw_parallel_bugs(3)
    assert suite.draw_parallel_bugs(3) != suite.draw_parallel_bugs(4)
    assert suite.key_seed(1, "btree") != suite.key_seed(2, "btree")


def test_seeded_programs_change_their_keys():
    a = suite.seeded_program("btree", 1, test_size=4)()
    b = suite.seeded_program("btree", 2, test_size=4)()
    assert a._keys() != b._keys()
    assert a._keys() == suite.seeded_program("btree", 1, test_size=4)()._keys()
    r1 = suite.seeded_program("redis", 1, test_size=6)()._pairs(6)
    r2 = suite.seeded_program("redis", 5, test_size=6)()._pairs(6)
    assert sorted(r1) == sorted(r2) and r1 != r2


# -- known answers -----------------------------------------------------


def test_wrong_verdict_and_raise_count_as_failures_and_pass_continues():
    clean = suite.seeded_program("hashmap_tx", 1, test_size=1)

    def broken():
        raise RuntimeError("cannot build")

    serial = {"jobs": 1, "executor": "serial"}
    jobs = [
        suite.Job("wrong", clean, expect=(BugKind.CROSS_FAILURE_RACE,),
                  config=serial),
        suite.Job("raises", broken, config=serial),
        suite.Job("right", clean, config=serial),
    ]
    result = run.run_pass(jobs)
    assert len(result["job_wall_s"]) == 3
    assert [f["job"] for f in result["failures"]] == ["wrong", "raises"]


# -- smoke -------------------------------------------------------------


@pytest.mark.parametrize("name", suite.WORKLOADS)
def test_smoke_pass_every_workload(name):
    jobs = suite.build(name, seed=1, small=True)
    assert run.run_pass(jobs)["failures"] == []
    recorder = spantrace.SpanRecorder()
    with spantrace.Tracer(recorder):
        result = run.run_pass(jobs, recorder)
    assert result["failures"] == []
    layers = run.layer_metrics(recorder, result, width=2)
    assert set(layers) | {"trace.overhead"} == set(run.PER_LAYER)
    assert layers["trace.coverage"] > 0.9
    if name != "parallel":  # post-failure work runs in the workers
        assert layers["recovery.s"] > 0 and layers["replay.run.s"] > 0


def test_stop_children_ends_workers_and_resource_tracker():
    import multiprocessing
    from multiprocessing import resource_tracker

    jobs = suite.build("parallel", seed=1, small=True)
    assert run.run_pass(jobs)["failures"] == []
    assert resource_tracker._resource_tracker._pid is not None
    run.stop_children()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "table4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
