"""``native-run``: the generated C, built and executed.

Set-up compiles each program of :data:`~perfbench.draw.NATIVE_PROGRAMS`
with seeded tile sizes and builds its seeded input tensors.  The timed
operations are one ``compile_and_run(..., keep_dir=...)`` per program
(generate, the backend's own gcc command, the first run) and then repeated
runs of the kept ``kernel`` binary, round robin over the programs, with
``OMP_NUM_THREADS`` fixed at :data:`THREADS`.  A kernel's wall time
includes reading and writing its tensor files.
"""

from __future__ import annotations

import os
import subprocess
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import repro.codegen.cbackend as cbackend_mod
from repro.api import CompileOptions, get_workload, optimize
from repro.codegen.cbackend import compile_and_run
from repro.codegen.interp import execute_naive, make_store
from repro.machine import analyze_optimized, cpu_time
from repro.presburger import memo
from repro.schedule import initial_tree

from . import draw
from .common import (
    CHEAP_SETUP_REPEATS,
    Context,
    Result,
    overhead_pct,
    repeat_setup,
    self_peak_rss_mb,
)
from .hostspeed import HostSpeed, array_burst, interp_burst
from .spans import Recorder
from .stats import geomean, geomean_of_medians, median, spearman, summarize

#: OpenMP threads per kernel.  On a 2-core host one thread gives steady
#: medians, while two threads gave bimodal times (2mm: 62 or 124 ms).
THREADS = 1
#: Highest tail percentile: a run holds about 250 kernel runs, and p90
#: needs 100.
TAIL_MAX_PCT = 90.0
#: Reference bursts timed before each kernel run and each build, and how
#: many around a run or build its time is divided by (see hostspeed.py):
#: about the bursts of two rounds.
RUN_BURSTS, RUN_WINDOW = 2, 25
BUILD_BURSTS, BUILD_WINDOW = 3, 7


class Program:
    """One native program: compiled tree, inputs, and what was measured."""

    def __init__(self, inp: draw.ProgramInput):
        self.input = inp
        self.name = inp.program
        self.program = get_workload(inp.program, inp.size)
        memo.clear_all()
        self.result = optimize(self.program, CompileOptions(tile_sizes=inp.tiles))
        self.store = make_store(self.program, seed=inp.data_seed)
        self.dir = ""
        self.outputs: Dict[str, np.ndarray] = {}
        self.builds: List[float] = []
        self.runs: List[float] = []
        # The index of the last reference burst before each build and run.
        self.build_bursts: List[int] = []
        self.run_bursts: List[int] = []

    @property
    def exe(self) -> str:
        return os.path.join(self.dir, "kernel")

    def read_outputs(self) -> Dict[str, np.ndarray]:
        params = self.program.params
        return {
            t: np.fromfile(os.path.join(self.dir, f"{t}.out.bin"), dtype=np.float64)
            .reshape(self.program.tensors[t].concrete_shape(params))
            for t in self.program.liveout
        }


def _build(prog: Program, keep_dir: str, rec: Optional[Recorder]):
    """One timed ``compile_and_run``; its live-outs and wall time."""
    t0 = perf_counter()
    if rec is None:
        outputs = compile_and_run(prog.result.tree, prog.program, prog.store, keep_dir=keep_dir)
    else:
        patch = [(cbackend_mod, "generate_c", "cbackend.generate_c", None)]
        with rec.span("cbackend.compile_and_run", program=prog.name), rec.patched(patch):
            outputs = compile_and_run(
                prog.result.tree, prog.program, prog.store, keep_dir=keep_dir
            )
    return outputs, perf_counter() - t0


def _setup(inputs: List[draw.ProgramInput]) -> List[Program]:
    return [Program(inp) for inp in inputs]


def _same(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _check(ctx: Context, prog: Program, small: int) -> List[str]:
    """Output checks, outside the timed region.  Returns what failed."""
    problems = []
    if not _same(prog.read_outputs(), prog.outputs):
        problems.append("repeated kernel runs changed the live-outs")
    # At the timed size: bit-identical to the same backend's build of the
    # program-order tree.
    ref = compile_and_run(
        initial_tree(prog.program), prog.program, prog.store,
        keep_dir=os.path.join(ctx.tmp, f"{prog.name}-program-order"),
    )
    if not _same(ref, prog.outputs):
        problems.append("live-outs differ from the program-order build")
    # At a small size: equal to the interpreter's program-order execution.
    sprog = get_workload(prog.name, small)
    sres = optimize(sprog, CompileOptions(tile_sizes=prog.input.tiles))
    got = compile_and_run(
        sres.tree, sprog, make_store(sprog, seed=prog.input.data_seed),
        keep_dir=os.path.join(ctx.tmp, f"{prog.name}-small"),
    )
    naive = make_store(sprog, seed=prog.input.data_seed)
    execute_naive(sprog, naive)
    if not _same(got, {t: naive[t] for t in sprog.liveout}):
        problems.append(f"live-outs at size {small} differ from execute_naive")
    return problems


def _rescaled(times: List[float], bursts: List[int], local: List[float]) -> List[float]:
    """Times divided by the host's slowdown around each."""
    return [t / local[b] for t, b in zip(times, bursts)]


def run(ctx: Context) -> Result:
    res = Result()
    os.environ["OMP_NUM_THREADS"] = ctx.env["OMP_NUM_THREADS"] = str(THREADS)
    rec = ctx.recorder
    setup_s, progs = repeat_setup(
        lambda: _setup(draw.native_inputs(ctx.seed)), repeats=CHEAP_SETUP_REPEATS
    )

    run_speed, build_speed = HostSpeed(array_burst), HostSpeed(interp_burst)
    deadline = perf_counter() + ctx.seconds
    paired_plain: List[float] = []
    paired_traced: List[float] = []
    live = []
    for prog in progs:
        prog.dir = os.path.join(ctx.tmp, prog.name)
        build_speed.sample(BUILD_BURSTS)
        try:
            prog.outputs, seconds = _build(prog, prog.dir, rec)
        except Exception as exc:  # one failed build must not end the run
            res.tally.fail(f"{prog.name}: build: {type(exc).__name__}: {exc}")
            continue
        res.tally.ok()
        prog.builds.append(seconds)
        prog.build_bursts.append(len(build_speed.samples) - 1)
        live.append(prog)
    if not live:
        raise RuntimeError("no native program built")

    env = ctx.env
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        for prog in live:
            run_speed.sample(RUN_BURSTS)
            try:
                t0 = perf_counter()
                subprocess.run([prog.exe], cwd=prog.dir, env=env, check=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                seconds = perf_counter() - t0
                if rec is not None:
                    t1 = perf_counter()
                    with rec.span("exec.kernel", program=prog.name):
                        subprocess.run([prog.exe], cwd=prog.dir, env=env, check=True,
                                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                    paired_plain.append(seconds)
                    paired_traced.append(perf_counter() - t1)
            except subprocess.CalledProcessError as exc:
                res.tally.fail(f"{prog.name}: kernel exited {exc.returncode}: "
                               f"{exc.stderr.decode(errors='replace')[-200:]}")
                continue
            res.tally.ok()
            prog.runs.append(seconds)
            prog.run_bursts.append(len(run_speed.samples) - 1)
        # One rebuild per round, cycling over the programs, so that build
        # times are sampled across the whole run like kernel times.
        prog = live[rounds % len(live)]
        rounds += 1
        build_speed.sample(BUILD_BURSTS)
        try:
            outputs, seconds = _build(prog, prog.dir + "-rebuild", rec)
        except Exception as exc:
            res.tally.fail(f"{prog.name}: rebuild: {type(exc).__name__}: {exc}")
            continue
        if not _same(outputs, prog.outputs):
            res.tally.fail(f"{prog.name}: rebuild produced different live-outs")
            continue
        res.tally.ok()
        prog.builds.append(seconds)
        prog.build_bursts.append(len(build_speed.samples) - 1)
    run_speed.sample(RUN_BURSTS)
    build_speed.sample(BUILD_BURSTS)

    rss = self_peak_rss_mb()
    for prog, (_, _, small) in zip(progs, draw.NATIVE_PROGRAMS):
        if prog not in live:
            continue
        try:
            problems = _check(ctx, prog, small)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for p in problems:
            res.tally.recheck_failed(f"{prog.name}: {p}")

    measured = [p for p in live if p.runs]
    medians = {p.name: median(p.runs) for p in measured}
    exec_geo = geomean_of_medians({p.name: p.runs for p in measured}) * 1e3
    pooled = summarize([r * 1e3 for p in measured for r in p.runs], TAIL_MAX_PCT)
    build_ms = geomean_of_medians({p.name: p.builds for p in live}) * 1e3
    instances = {
        p.name: sum(s.domain.count_points(p.program.params) for s in p.program.statements)
        for p in measured
    }
    # The metrics are the same statistics of the times at nominal host
    # speed (see hostspeed.py); the rows below print them as measured.
    run_local = run_speed.local_slowdowns(RUN_WINDOW)
    build_local = build_speed.local_slowdowns(BUILD_WINDOW)
    s_runs = {p.name: _rescaled(p.runs, p.run_bursts, run_local) for p in measured}
    s_builds = {p.name: _rescaled(p.builds, p.build_bursts, build_local) for p in live}
    s_pooled = summarize([r * 1e3 for v in s_runs.values() for r in v], TAIL_MAX_PCT)
    res.metrics.update(
        setup_s=setup_s,
        peak_rss_mb=rss,
        p50_ms=geomean_of_medians(s_runs) * 1e3,
        tail_ms=s_pooled["tail_mean"],
        aux_p50_ms=geomean_of_medians(s_builds) * 1e3,
        work_per_s=sum(instances.values()) / sum(median(v) for v in s_runs.values()),
    )
    res.row("host_slowdown", run_speed.slowdown(), "x",
            f"kernels: median of {len(run_speed.samples)} array bursts "
            "over their nominal time")
    res.row("host_slowdown_build", build_speed.slowdown(), "x",
            f"builds: median of {len(build_speed.samples)} interpreter bursts "
            "over their nominal time")
    res.row("exec_geomean_ms", exec_geo, "ms",
            f"geomean of {len(measured)} programs' medians, n={pooled['n']}")
    res.row("exec_tail_ms", pooled["tail_mean"], "ms",
            f"mean beyond p{pooled['tail_pct']:g} of all, n={pooled['n']}")
    res.row(f"exec_p{pooled['tail_pct']:g}_ms", pooled["tail"], "ms", f"n={pooled['n']}")
    n_builds = sum(len(p.builds) for p in live)
    res.row("native_build_s", build_ms / 1e3, "s",
            f"geomean of {len(live)} programs' medians, n={n_builds}")
    res.row("instances_per_s", sum(instances.values()) / sum(medians.values()), "1/s",
            f"statement instances at the timed sizes, {THREADS} thread(s)")

    modeled = {}
    for p in measured:
        work = analyze_optimized(p.result)
        modeled[p.name] = cpu_time(work, THREADS) * 1e3
        res.row(f"exec.{p.name}_ms", medians[p.name] * 1e3, "ms",
                f"n={len(p.runs)}, modeled {modeled[p.name]:.4g} ms, "
                f"size {p.input.size}, tiles {p.input.tiles}")
    names = sorted(medians)
    rank_corr = spearman([medians[n] for n in names], [modeled[n] for n in names])
    res.row("machine.rank_corr", rank_corr, "", "Spearman, modeled vs measured")
    res.notes.append(
        "covariance is left out: the C build of its fused tree differs from "
        "program order (an instance two overlapping extension pieces cover "
        "runs twice in C; see perfbench/README.md)"
    )

    if rec is not None:
        selfs = rec.self_seconds()
        sources = [open(os.path.join(p.dir, "kernel.c")).read() for p in live]
        gen_total = selfs.get("cbackend.generate_c", 0.0)
        res.layers.update({
            "cbackend.generate_c_ms": 1e3 * gen_total / n_builds,
            "cbackend.build_s": (sum(sum(p.builds) for p in live) - gen_total) / n_builds,
            "cbackend.c_bytes": sum(len(s) for s in sources) / len(sources),
            "cbackend.parallel_loops": sum(
                s.count("#pragma omp parallel") for s in sources) / len(sources),
            "machine.rank_corr": rank_corr,
            "trace.overhead_pct": overhead_pct(paired_plain, paired_traced),
        })
        for name in names:
            res.layers[f"exec.{name}_ms"] = medians[name] * 1e3
            res.layers[f"machine.{name}_modeled_ms"] = modeled[name]
    return res
