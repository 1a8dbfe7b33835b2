"""The generated OpenMP C really compiles and computes the right answer.

These tests close the loop the paper's artifact closes with PPCG: the
schedule trees produced by the pass are turned into actual C, compiled
with gcc, executed, and compared bit-for-bit (modulo float association,
which the schedules preserve) against the interpreter and the naive
reference.
"""

import numpy as np
import pytest

from repro import CompileOptions
from repro.codegen import execute_naive, make_store
from repro.ir import ProgramBuilder
from repro.codegen.cbackend import (
    compile_and_run,
    compiler_available,
    generate_c,
    live_in_tensors,
)
from repro.core import optimize
from repro.pipelines import conv2d, polybench, unsharp_mask
from repro.schedule import initial_tree
from repro.scheduler import SMARTFUSE, schedule_program
from repro.workloads import default_tile_sizes, get_workload, workload_names

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler on this machine"
)

PARAMS = {"H": 14, "W": 14, "KH": 3, "KW": 3}


def roundtrip(prog, tree):
    store = make_store(prog)
    got = compile_and_run(tree, prog, store, openmp=False)
    ref = make_store(prog)
    execute_naive(prog, ref)
    return got, ref


class TestSourceGeneration:
    def test_conv2d_source_structure(self):
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        src = generate_c(res.tree, prog)
        assert "#pragma omp parallel for" in src
        assert "static double A[14][14];" in src
        assert "+=" in src  # the reduction
        assert src.count("for (long") >= 6

    def test_all_liveouts_written(self):
        prog = polybench.build_gemver(8)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        src = generate_c(res.tree, prog)
        assert 'write_tensor("x1.out.bin"' in src
        assert 'write_tensor("w.out.bin"' in src


@needs_cc
class TestCompileAndRun:
    def test_initial_tree_conv2d(self):
        prog = conv2d.build(PARAMS)
        got, ref = roundtrip(prog, initial_tree(prog))
        np.testing.assert_allclose(got["C"], ref["C"], rtol=1e-12)

    def test_smartfuse_tree(self):
        prog = conv2d.build(PARAMS)
        sched = schedule_program(prog, SMARTFUSE)
        got, ref = roundtrip(prog, sched.tree)
        np.testing.assert_allclose(got["C"], ref["C"], rtol=1e-12)

    def test_post_tiling_fused_tree(self):
        """The headline: Fig. 5's fused/tiled/extended tree as real C."""
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        got, ref = roundtrip(prog, res.tree)
        np.testing.assert_allclose(got["C"], ref["C"], rtol=1e-12)

    def test_unsharp_mask_fused(self):
        prog = unsharp_mask.build(24)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 8)))
        got, ref = roundtrip(prog, res.tree)
        out = prog.liveout[0]
        np.testing.assert_allclose(got[out], ref[out], rtol=1e-12)

    def test_gemver_multi_liveout(self):
        prog = polybench.build_gemver(10)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        got, ref = roundtrip(prog, res.tree)
        np.testing.assert_allclose(got["x1"], ref["x1"], rtol=1e-12)
        np.testing.assert_allclose(got["w"], ref["w"], rtol=1e-12)

    def test_openmp_build_also_correct(self):
        prog = conv2d.build(PARAMS)
        res = optimize(prog, CompileOptions(target="cpu", tile_sizes=(4, 4)))
        store = make_store(prog)
        got = compile_and_run(res.tree, prog, store, openmp=True)
        ref = make_store(prog)
        execute_naive(prog, ref)
        np.testing.assert_allclose(got["C"], ref["C"], rtol=1e-12)


# ---------------------------------------------------------------------------
# every workload, hoisted guards, live-in reads

#: The smallest size each workload builds at (1 when not listed).
SMALLEST = {
    "bilateral_grid": 32,
    "camera_pipeline": 7,
    "camera_resnet": 32,
    "conv2d": 3,
    "conv_bn": 3,
    "covariance": 2,
    "edge_infer": 16,
    "harris": 5,
    "local_laplacian": 50,
    "multiscale_interp": 1276,
    "unsharp_mask": 3,
}

#: The programs and sizes the native benchmark times, at default tiles.
NATIVE = (
    ("2mm", 256),
    ("3mm", 192),
    ("camera_pipeline", 512),
    ("gemver", 1024),
    ("harris", 512),
    ("unsharp_mask", 1024),
)


def optimized(name, size, tiles="default"):
    prog = get_workload(name, size)
    if tiles == "default":
        tiles = default_tile_sizes(name)
    return prog, optimize(prog, CompileOptions(tile_sizes=tiles)).tree


def statement_lines(src):
    """The statement lines of a kernel, guarded or not."""
    body = src[src.index("int main(void) {"):].splitlines()
    return [
        l.strip() for l in body
        if l.strip().endswith(";") and not l.strip().startswith(("static", "read_tensor", "write_tensor", "return"))
    ]


def assert_same(got, ref):
    assert got.keys() == ref.keys()
    for t in ref:
        assert np.array_equal(got[t], ref[t]), f"{t}: max error {np.max(np.abs(got[t] - ref[t]))}"


@needs_cc
@pytest.mark.parametrize("name", workload_names())
def test_every_workload_bit_identical_to_naive(name):
    prog, tree = optimized(name, SMALLEST.get(name, 1))
    got = compile_and_run(tree, prog, make_store(prog), openmp=False)
    if name == "multiscale_interp":
        # The interpreter is too slow at the pyramid's smallest size.
        ref = compile_and_run(initial_tree(prog), prog, make_store(prog), openmp=False)
    else:
        store = make_store(prog)
        execute_naive(prog, store)
        ref = {t: store[t] for t in prog.liveout}
    assert_same(got, ref)


@needs_cc
def test_overlapping_extension_pieces_run_once():
    """Two extension pieces of covariance cover some instances twice; the
    instance must still be reset and accumulated once."""
    prog, tree = optimized("covariance", 12)
    src = generate_c(tree, prog)
    assert any(l.startswith("else") for l in statement_lines(src))
    store = make_store(prog)
    execute_naive(prog, store)
    assert_same(compile_and_run(tree, prog, make_store(prog), openmp=False), {"cov": store["cov"]})


@pytest.mark.parametrize("name,size", NATIVE)
def test_native_programs_emit_no_statement_guard(name, size):
    prog, tree = optimized(name, size)
    guarded = [l for l in statement_lines(generate_c(tree, prog)) if l.startswith(("if", "else"))]
    assert guarded == []


def test_partial_tiles_emit_no_statement_guard():
    """A tile loop starts at its lower bound rounded down to the tile grid,
    so it still enforces that bound minus size - 1; partial tiles and the
    recomputed tiles of 2mm need no guard."""
    prog, tree = optimized("2mm", 12, (4, 4))
    assert not [l for l in statement_lines(generate_c(tree, prog)) if l.startswith(("if", "else"))]


def test_union_band_keeps_guards():
    """A loop whose members have different ranges runs over their union, so
    the statements of the narrower members keep the bounds as guards."""
    prog, tree = optimized("local_laplacian", 50)
    lines = generate_c(tree, prog).splitlines()
    unions = [i for i, l in enumerate(lines) if l.lstrip().startswith("for (long") and "= min(max(" in l]
    assert unions
    for i in unions:
        indent = len(lines[i]) - len(lines[i].lstrip())
        end = next(j for j in range(i + 1, len(lines)) if lines[j] == " " * indent + "}")
        assert any(l.lstrip().startswith("if (") for l in lines[i + 1:end])


def test_in_place_tensor_is_read():
    """conv2d quantises ``A`` in place, so its initial contents matter."""
    prog = conv2d.build(PARAMS)
    assert "A" in live_in_tensors(prog)
    assert 'read_tensor("A.bin"' in generate_c(initial_tree(prog), prog)


def one_writer_program(write: str, read: str, reader_first=False, liveout=("B",)):
    """``P`` writes ``A`` over ``write``, ``R`` reads ``A`` over ``read``."""
    b = ProgramBuilder("one_writer", params={"N": 8})
    A, B = b.tensor("A", ("N",)), b.tensor("B", ("N",))
    (i,) = b.iters("i")
    stmts = [
        lambda: b.assign("P", (i,), write, A[i], 1.0),
        lambda: b.assign("R", (i,), read, B[i], A[i] * 2.0),
    ]
    for make in reversed(stmts) if reader_first else stmts:
        make()
    return b.set_liveout(*liveout).build()


@pytest.mark.parametrize(
    "prog,reads_a",
    [
        (one_writer_program("0 <= i < N", "0 <= i < N"), False),
        (one_writer_program("0 <= i < N", "0 <= i < N - 1"), False),
        (one_writer_program("0 <= i < N - 1", "0 <= i < N"), True),
        (one_writer_program("0 <= i < N", "0 <= i < N", reader_first=True), True),
        (one_writer_program("0 <= i < N - 1", "0 <= i < N - 1", liveout=("A", "B")), True),
        (one_writer_program("0 <= i < N", "0 <= i < N", liveout=("A", "B")), False),
    ],
    ids=["covered", "read-less", "read-more", "reader-first", "partial-liveout", "full-liveout"],
)
def test_live_in_rules(prog, reads_a):
    assert ("A" in live_in_tensors(prog)) == reads_a


def test_camera_pipeline_reads_only_its_input():
    prog = get_workload("camera_pipeline", 16)
    assert live_in_tensors(prog) == ("raw",)


def test_libm_names_are_usable_tensor_names():
    """conv_bn's ``gamma`` and mvt's ``y1`` are libm functions too."""
    prog = get_workload("conv_bn", 4)
    assert "  static double gamma[1];" in generate_c(initial_tree(prog), prog)
    prog = get_workload("mvt", 4)
    assert "  static double y1[4];" in generate_c(initial_tree(prog), prog)
