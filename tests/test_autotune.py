"""Tests for the tile-size auto-tuner."""

import pytest

from repro import CompileOptions
from repro.core import optimize
from repro.machine import analyze_optimized, cpu_time
from repro.pipelines import unsharp_mask
from repro.scheduler.autotune import (
    TuneResult,
    _combinations,
    autotune_tile_sizes,
    liveout_extent_bounds,
)
from repro.workloads import build_workload


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


class TestCombinations:
    def test_two_dims(self):
        combos = _combinations([8, 16], 2)
        assert set(combos) == {(8, 8), (8, 16), (16, 8), (16, 16)}

    def test_one_dim(self):
        assert _combinations([8, 16], 1) == [(8,), (16,)]


class TestAutotune:
    @pytest.fixture(scope="class")
    def tuned(self):
        prog = unsharp_mask.build(256)
        return prog, autotune_tile_sizes(prog, options=CompileOptions(target="cpu", mode="serial"), threads=32, candidates=(8, 32, 128))

    def test_search_covers_grid(self, tuned):
        _prog, result = tuned
        assert len(result.evaluations) + len(result.failures) == 9

    def test_best_is_minimum(self, tuned):
        _prog, result = tuned
        assert result.best_time == min(result.evaluations.values())
        assert result.evaluations[result.best_sizes] == result.best_time

    def test_best_sizes_usable(self, tuned):
        prog, result = tuned
        opt = optimize(prog, CompileOptions(target="cpu", tile_sizes=result.best_sizes))
        t = cpu_time(analyze_optimized(opt), 32)
        assert t == pytest.approx(result.best_time, rel=1e-6)

    def test_oversized_candidates_skipped(self):
        prog = unsharp_mask.build(64)
        result = autotune_tile_sizes(
            prog, candidates=(8, 512), max_extent=None
        )
        assert all(s <= 64 for sizes in result.evaluations for s in sizes)

    def test_top_k(self, tuned):
        _prog, result = tuned
        top = result.top(3)
        assert len(top) == 3
        assert top[0][1] <= top[1][1] <= top[2][1]


def test_removed_per_keyword_configuration_rejected(cache_dir):
    """Every retired per-keyword spelling raises the pointed TypeError."""
    from repro.core import optimize
    from repro.service.driver import CompileRequest, cached_optimize, compile_batch

    prog = build_workload("mvt", 64)
    opts = CompileOptions(target="cpu")
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        autotune_tile_sizes(prog, target="cpu", options=opts)
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        autotune_tile_sizes(prog, mode="serial", options=opts)
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        optimize(prog, target="cpu", options=opts)
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        optimize(prog, tile_sizes=None, options=opts)
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        cached_optimize(prog, startup="smartfuse", options=opts)
    with pytest.raises(TypeError, match="no longer accepts per-keyword"):
        compile_batch([CompileRequest(prog)], mode="auto", options=opts)
    # the options spelling is the one path, defaults included
    result = optimize(prog, CompileOptions(target="cpu", tile_sizes=(8, 8)))
    assert result.tile_sizes == (8, 8)


def test_tune_result_top_tie_break_is_insertion_independent():
    a = TuneResult(best_sizes=(4, 4), best_time=1.0)
    b = TuneResult(best_sizes=(4, 4), best_time=1.0)
    a.evaluations = {(8, 8): 2.0, (4, 4): 1.0, (2, 2): 1.0, (16, 16): 2.0}
    b.evaluations = {(16, 16): 2.0, (2, 2): 1.0, (4, 4): 1.0, (8, 8): 2.0}
    assert a.top(4) == b.top(4) == [
        ((2, 2), 1.0), ((4, 4), 1.0), ((8, 8), 2.0), ((16, 16), 2.0)
    ]


def test_per_dimension_bounds_from_minimum_liveout(cache_dir):
    """Out-of-range candidates are skipped and recorded, per dimension."""
    prog = build_workload("doitgen", 16)  # small live-out extents
    bounds = liveout_extent_bounds(prog, 2)
    r = autotune_tile_sizes(prog, candidates=(4, 8, 64, 512), dims=2)
    skipped = {s for s, msg in r.failures.items() if msg.startswith("skipped:")}
    for sizes in skipped:
        assert any(sizes[d] > bounds[d] for d in range(2))
    for sizes in r.evaluations:
        assert all(sizes[d] <= bounds[d] for d in range(2))
    assert skipped, "expected out-of-range candidates on a 16^3 workload"
    # every grid point is accounted for: evaluated, failed, or skipped
    assert len(r.evaluations) + len(r.failures) == 16
    # the best candidate respects the per-dimension bounds
    assert all(r.best_sizes[d] <= bounds[d] for d in range(2))


def test_liveout_extent_bounds_shapes():
    prog = build_workload("unsharp_mask", 128)
    b = liveout_extent_bounds(prog, 2)
    assert len(b) == 2 and all(x > 0 for x in b)
    # rank-1 live-outs fall back to their maximal extent (the historical
    # scalar derivation) instead of crashing on a missing dimension
    atax = build_workload("atax", 64)
    b2 = liveout_extent_bounds(atax, 2)
    assert len(b2) == 2 and all(x > 0 for x in b2)
