"""Integration tests: every pipeline builds, optimizes, and (at small
sizes) executes identically to the naive program order."""

import numpy as np
import pytest

from repro import CompileOptions
from repro.codegen.interp import execute_naive, make_store, run_program
from repro.core import optimize
from repro.pipelines import (
    IMAGE_PIPELINES,
    bilateral_grid,
    camera_pipeline,
    equake,
    harris,
    local_laplacian,
    multiscale_interp,
    polybench,
    resnet,
    unsharp_mask,
)


def check_equivalence(prog, tile_sizes, target="cpu"):
    ref_store = make_store(prog)
    execute_naive(prog, ref_store)
    result = optimize(prog, CompileOptions(target=target, tile_sizes=tile_sizes))
    store, _ = run_program(prog, result.tree)
    for tensor in prog.liveout:
        np.testing.assert_allclose(
            store[tensor], ref_store[tensor], rtol=1e-9, atol=1e-12,
            err_msg=f"live-out {tensor} differs for {prog.name}",
        )
    return result


class TestStageCounts:
    """Table I's stage counts must hold exactly."""

    @pytest.mark.parametrize(
        "mod,expected",
        [
            (bilateral_grid, 7),
            (camera_pipeline, 32),
            (harris, 11),
            (local_laplacian, 99),
            (multiscale_interp, 49),
            (unsharp_mask, 4),
        ],
    )
    def test_stage_count(self, mod, expected):
        size = 2048 if mod in (multiscale_interp, local_laplacian) else 256
        prog = mod.build(size)
        assert len(prog.statements) == expected
        assert mod.STAGE_COUNT == expected


class TestImagePipelineCorrectness:
    def test_unsharp_mask(self):
        res = check_equivalence(unsharp_mask.build(24), (4, 8))
        assert len(res.fusion_summary()) == 1  # fully fused

    def test_harris(self):
        res = check_equivalence(harris.build(24), (4, 8))
        assert len(res.fusion_summary()) == 1

    def test_bilateral_grid(self):
        # At miniature sizes the recomputation budget may split the cheap
        # grid-construction stage off; correctness must hold regardless.
        res = check_equivalence(bilateral_grid.build(128), (8, 16))
        assert len(res.fusion_summary()) <= 2

    def test_bilateral_grid_fully_fuses_at_scale(self):
        """With the Table I image size and auto-tuned tiles, the halo work
        amortises and all 7 stages fuse into one cluster."""
        from repro.core import optimize

        prog = bilateral_grid.build(1024)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=bilateral_grid.TILE_SIZES))
        assert len(res.fusion_summary()) == 1

    def test_camera_pipeline(self):
        check_equivalence(camera_pipeline.build(24), (4, 8))

    def test_local_laplacian_small(self):
        prog = local_laplacian.build(48, blocks=2)
        check_equivalence(prog, (4, 8))

    def test_multiscale_interp_small(self):
        prog = multiscale_interp.build(64, levels=2)
        check_equivalence(prog, (4, 8))

    def test_gpu_target_unsharp(self):
        check_equivalence(unsharp_mask.build(24), (4, 8), target="gpu")


class TestPartitions:
    @pytest.mark.parametrize("name", sorted(IMAGE_PIPELINES))
    def test_partitions_cover_program(self, name):
        mod = IMAGE_PIPELINES[name]
        size = 2048 if name in ("multiscale_interp", "local_laplacian") else 256
        prog = mod.build(size)
        for partition_fn in (mod.halide_partition, mod.polymage_partition):
            partition = partition_fn(prog)
            flat = [s for part in partition for s in part]
            assert sorted(flat) == sorted(prog.statement_names)


class TestEquake:
    def test_partitions_cover(self):
        prog = equake.build(n=64)
        for part in equake.PARTITIONS.values():
            flat = [s for p in part for s in p]
            assert sorted(flat) == sorted(prog.statement_names)

    def test_correctness(self):
        check_equivalence(equake.build(n=64), None)

    def test_our_pass_fuses_the_follow_up_nests(self):
        prog = equake.build(n=64)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=None))
        # everything lands in one cluster: at least as aggressive as the
        # maxfuse grouping the paper reports
        assert len(res.fusion_summary()) == 1


class TestPolyBench:
    def test_2mm_correct(self):
        prog = polybench.build_2mm(12)
        check_equivalence(prog, (4, 4))

    def test_2mm_no_redundant_fusion_at_scale(self):
        """At realistic sizes the first matmul must NOT fuse into the
        second's tiles: each D tile would recompute whole rows of tmp —
        the redundancy the paper's fusion strategy never introduces."""
        prog = polybench.build_2mm(512)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(32, 32)))
        assert len(res.fusion_summary()) == 2

    def test_2mm_matches_numpy(self):
        prog = polybench.build_2mm(10)
        store = make_store(prog)
        execute_naive(prog, store)
        A, B, C, D0 = (store[t] for t in ("A", "B", "C", "D0"))
        expected = (A @ B * 1.5) @ C + 0.0
        np.testing.assert_allclose(store["tmp"], A @ B * 1.5)
        np.testing.assert_allclose(store["D"], D0 * 1.2 + store["tmp"] @ C)

    def test_gemver_correct(self):
        check_equivalence(polybench.build_gemver(12), (4, 4))

    def test_gemver_shared_space_not_fused(self):
        """A2 is read by both live-out chains with full overlap: Algorithm 3
        must keep it unfused (no recomputation, ever)."""
        prog = polybench.build_gemver(12)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        summaries = res.fusion_summary()
        sa_cluster = [c for c in summaries if "Sa" in c]
        assert sa_cluster and sa_cluster[0] == ["Sa"]

    def test_covariance_correct(self):
        check_equivalence(polybench.build_covariance(12), (4, 4))

    def test_covariance_matches_numpy(self):
        prog = polybench.build_covariance(8)
        store = make_store(prog)
        execute_naive(prog, store)
        data = store["data"]
        m = data.shape[0]
        mean = data.mean(axis=0)
        centered = data - mean
        cov = centered.T @ centered / (m - 1)
        got = store["cov"]
        for i in range(8):
            for j in range(i, 8):
                assert got[i, j] == pytest.approx(cov[i, j])


class TestResNet:
    def test_layer_count(self):
        assert len(resnet.resnet50_layers()) == 53

    def test_layer_shapes_flow(self):
        layers = resnet.resnet50_layers()
        assert layers[0].name == "conv1"
        assert layers[-1].c_out == 2048
        assert layers[-1].h == 7

    def test_operator_pair_correct(self):
        prog = resnet.build_operator_pair(12, 12)
        res = check_equivalence(prog, (4, 4))
        assert len(res.fusion_summary()) == 1


# -- problem sizes too small for a pipeline --------------------------------


def test_too_small_pyramid_raises_typed_size_error():
    """A size that would give some stage a non-positive extent fails at
    build time, naming the stage and the extent."""
    from repro.workloads import PipelineSizeError, build_workload

    for name, stage, smallest in (
        ("multiscale_interp", "dbx7", 1276),
        ("local_laplacian", "b7_dbx", 50),
    ):
        with pytest.raises(PipelineSizeError, match=rf"'{stage}' has extent \(2, 0\)"):
            build_workload(name, smallest - 1)
        prog = build_workload(name, smallest)
        for t in prog.tensors.values():
            assert all(e > 0 for e in t.concrete_shape(prog.params)), (name, t.name)
    with pytest.raises(PipelineSizeError, match=r"'dbx6' has extent \(2, 0\)"):
        build_workload("multiscale_interp", 512)
    assert issubclass(PipelineSizeError, ValueError)


def test_registry_defaults_build_positive_extents():
    from repro.workloads import build_workload, workload_names

    for name in workload_names():
        prog = build_workload(name)
        for t in prog.tensors.values():
            assert all(e > 0 for e in t.concrete_shape(prog.params)), (name, t.name)
