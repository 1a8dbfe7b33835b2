"""Tests of the benchmark's own logic (not of the compiler it measures).

Run from the root of the repository::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from perfbench import draw
from perfbench.common import END_TO_END, PER_LAYER
from perfbench.spans import Recorder, metrics_snapshot
from perfbench.stats import (
    MIN_BEYOND,
    Tally,
    geomean,
    rank_percentile,
    spearman,
    tail,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- seeded draws ------------------------------------------------------------

DRAWS = [
    lambda seed: draw.compile_blocks(seed, 2),
    draw.serve_set,
    lambda seed: draw.serve_stream(seed, draw.serve_set(seed), 200),
    draw.native_inputs,
    draw.verify_inputs,
]


@pytest.mark.parametrize("make", DRAWS)
def test_draw_is_identical_for_a_seed(make):
    assert make(7) == make(7)


@pytest.mark.parametrize("make", DRAWS)
def test_draw_differs_across_seeds(make):
    assert make(7) != make(8)


def test_every_compile_block_holds_the_same_requests():
    from collections import Counter

    from repro.api import workload_names

    blocks = draw.compile_blocks(3, 3)
    compiles = [Counter(q for q in b if q.kind == "compile") for b in blocks]
    assert compiles[0] == compiles[1] == compiles[2]
    assert sum(compiles[0].values()) == 3 * len(workload_names())
    for name in workload_names():
        configs = [q for q in compiles[0] if q.program == name]
        assert {q.target for q in configs} == set(draw.TARGETS)
        assert {q.size for q in configs} == set(draw.COMPILE_SIZES[name])
    for b in blocks:
        partitioned = sorted(q.program for q in b if q.kind == "partition")
        assert partitioned == sorted(draw.PARTITION_PROGRAMS)
    assert blocks[0] != blocks[1]  # seeded order


def test_every_drawn_size_builds_positive_extents():
    """The sizes tables stay inside each program's valid range."""
    from repro.api import get_workload

    for name, sizes in draw.COMPILE_SIZES.items():
        for size in sizes:
            prog = get_workload(name, size)
            for t in prog.tensors.values():
                assert all(e > 0 for e in t.concrete_shape(prog.params)), (name, size)


def test_known_defect_minima_are_the_smallest_valid_sizes():
    """One below each recorded minimum ``get_workload`` still builds a
    program, with a non-positive extent: the defect the draws step around."""
    from repro.api import get_workload

    def valid(name, size):
        prog = get_workload(name, size)
        try:
            for t in prog.tensors.values():
                t.concrete_shape(prog.params)
        except ValueError:
            return False
        return True

    for name, (minimum, _why) in draw.KNOWN_DEFECTS.items():
        assert min(draw.COMPILE_SIZES[name]) >= minimum
        assert valid(name, minimum)
        assert not valid(name, minimum - 1)
    assert not valid("multiscale_interp", 512)  # the registry default
    assert not valid("local_laplacian", 32)


# -- tails, failures, geometric mean ----------------------------------------

def test_tail_has_at_least_ten_samples_beyond_it():
    for n in (20, 39, 40, 99, 100, 150, 999, 1000, 5000):
        values = [float(i) for i in range(n)]
        p, value = tail(values)
        beyond = sum(v > value for v in values)
        assert beyond >= MIN_BEYOND, (n, p)


def test_tail_is_the_highest_qualifying_percentile():
    assert tail(list(range(39)))[0] == 50.0
    assert tail(list(range(40)))[0] == 75.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(1000)))[0] == 99.0
    # p90 of 100 samples is the 90th smallest: 10 samples lie beyond it.
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)


def test_tail_mean_averages_the_samples_beyond_the_percentile():
    from perfbench.stats import tail_mean

    values = [float(i) for i in range(1, 101)]  # p90 = 90, beyond: 91..100
    assert tail_mean(values) == pytest.approx(95.5)
    assert tail_mean(values, max_pct=75.0) == pytest.approx(88.0)  # 76..100


def test_tail_counts_ties_by_rank():
    # All samples tie: none is strictly greater, yet ten ranks lie beyond.
    value, beyond = rank_percentile([1.0] * 40, 75.0)
    assert (value, beyond) == (1.0, 10)


def test_failures_count_against_attempted():
    t = Tally()
    t.ok()
    t.fail("raised")
    t.ok()
    t.recheck_failed("wrong output found afterwards")
    assert (t.attempted, t.failed) == (3, 2)
    assert t.reasons == ["raised", "wrong output found afterwards"]


def test_geomean_of_medians_weighs_each_group_once():
    from perfbench.stats import geomean_of_medians

    groups = {"a": [1.0, 2.0, 100.0], "b": [8.0] * 50}
    assert geomean_of_medians(groups) == pytest.approx(4.0)


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([5.0]) == pytest.approx(5.0)
    assert geomean([1.0, 10.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([])


def test_spearman():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9486833, rel=1e-6)


# -- host speed --------------------------------------------------------------

def test_local_slowdown_is_the_median_of_the_bursts_around_each():
    from perfbench.hostspeed import HostSpeed, interp_burst

    speed = HostSpeed(interp_burst)
    with pytest.raises(RuntimeError):
        speed.slowdown()
    speed.samples = [n * speed.nominal for n in (1, 1, 4, 1, 2, 2, 2)]
    assert speed.local_slowdowns(3) == pytest.approx([1, 1, 1, 2, 2, 2, 2])
    assert speed.slowdown() == pytest.approx(2)


@pytest.mark.parametrize("burst", ["interp_burst", "array_burst"])
def test_sample_times_every_burst(burst):
    from perfbench import hostspeed

    speed = hostspeed.HostSpeed(getattr(hostspeed, burst))
    speed.sample(3)
    assert len(speed.samples) == 3 and all(t > 0 for t in speed.samples)
    assert speed.spent >= sum(speed.samples)


def test_rescaling_undoes_a_slower_host():
    from perfbench.serve_warm import _grouped

    # The same 2 ms request, timed once at nominal speed and once on a host
    # running at half speed, and a 30 ms autotune at half speed.
    timed = [("compile", "a", 0.002, 0), ("compile", "a", 0.004, 1),
             ("autotune", "b", 0.060, 1)]
    serve_ms, tune_s = _grouped(timed, [1.0, 2.0])
    assert serve_ms == {"compile:a": pytest.approx([2.0, 2.0])}
    assert tune_s == {"b": pytest.approx([0.030])}


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    events = {e.name: [] for e in rec.report.events}
    for e in rec.report.events:
        events[e.name].append(e)
    selfs = rec.self_seconds()
    outer = events["outer"][0].duration
    inner = sum(e.duration for e in events["inner"])
    assert selfs["outer"] == pytest.approx(outer - inner)
    assert selfs["inner"] == pytest.approx(inner)


def test_patched_wraps_and_restores():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    rec = Recorder()
    with rec.patched([(mod, "f", "layer.f", lambda r, out: r.count("layer.out", out))]):
        assert mod.f(1) == 2
    assert mod.f is original
    assert rec.report.counters["layer.out"] == 2
    assert [e.name for e in rec.report.events] == ["layer.f"]


def test_exports_pass_the_repository_validators():
    from repro.obs import validate_chrome_trace, validate_metrics_snapshot

    rec = Recorder()
    with rec.span("a", program="x"):
        with rec.span("b"):
            pass
    assert validate_chrome_trace(rec.chrome()) == []
    snap = metrics_snapshot({"core.validate_ms": 1.5}, {"serve.compiles": 3}, seed=1)
    assert validate_metrics_snapshot(snap) == []


# -- the contract ------------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    from perfbench.run import WORKLOADS

    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    """In a directory holding only the benchmark it exits non-zero and
    prints no result."""
    import shutil

    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_overhead_is_relative_to_the_untraced_time():
    from perfbench.common import overhead_pct

    assert overhead_pct([1.0, 1.0], [1.1, 1.1]) == pytest.approx(10.0)
    assert math.isclose(overhead_pct([2.0], [2.0]), 0.0)
