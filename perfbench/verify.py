"""``verify``: the legality validator and the interpreter, on small inputs.

Set-up compiles every program of :data:`~perfbench.draw.VERIFY_PROGRAMS`
at its small size with seeded tile sizes, outside the timed region.  One
operation is ``validate_tree``, then ``execute_tree``, then
``execute_naive``, then a bit-equality check of the live-outs; a validator
violation or an interpreter mismatch is a failed operation.  Closed loop,
round robin over the programs.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import CompileOptions, get_workload, optimize
from repro.codegen.interp import execute_naive, execute_tree, make_store
from repro.core.validate import validate_tree
from repro.presburger import memo

from . import draw
from .common import Context, Result, overhead_pct, repeat_setup, self_peak_rss_mb
from .hostspeed import HostSpeed, interp_burst
from .spans import Recorder
from .stats import geomean_of_medians, summarize

#: Seconds one round over the inputs takes on the development host (2
#: shared CPUs).  A run makes ``round(seconds / ROUND_SECONDS)`` rounds, at
#: least one: a fixed amount of work for a given ``--seconds``, so that
#: every run, on every commit, verifies the same inputs equally often and
#: reads its tail at the same rank.
ROUND_SECONDS = 3.0
#: Reference bursts timed before every operation, and how many around an
#: operation its times are divided by: those of the ten operations before
#: and after it (see hostspeed.py).
SPEED_BURSTS, SPEED_WINDOW = 3, 63


class Case:
    """One compiled verify input."""

    def __init__(self, inp: draw.ProgramInput):
        self.input = inp
        self.program = get_workload(inp.program, inp.size)
        memo.clear_all()
        self.tree = optimize(self.program, CompileOptions(tile_sizes=inp.tiles)).tree


class Outcome:
    def __init__(self):
        self.validate_s = self.tiled_s = self.naive_s = 0.0
        self.pairs = self.tiled_inst = self.naive_inst = 0
        self.problem: Optional[str] = None


def verify_once(case: Case, rec: Optional[Recorder] = None) -> Tuple[float, Outcome]:
    """One operation, from empty memo tables so that it does not depend on
    the operations before it; returns its wall time and what it found."""
    span = rec.span if rec is not None else (lambda name, **attrs: nullcontext())
    prog, out = case.program, Outcome()
    tiled = make_store(prog, seed=case.input.data_seed)
    naive = make_store(prog, seed=case.input.data_seed)
    memo.clear_all()
    t0 = perf_counter()
    with span("verify.op", program=case.input.program):
        with span("core.validate"):
            report = validate_tree(case.tree, prog)
        t1 = perf_counter()
        with span("interp.execute_tree"):
            tiled_counts = execute_tree(case.tree, prog, tiled)
        t2 = perf_counter()
        with span("interp.execute_naive"):
            naive_counts = execute_naive(prog, naive)
        t3 = perf_counter()
        same = all(np.array_equal(tiled[t], naive[t]) for t in prog.liveout)
    seconds = perf_counter() - t0
    out.validate_s, out.tiled_s, out.naive_s = t1 - t0, t2 - t1, t3 - t2
    out.pairs = report.checked_pairs
    out.tiled_inst = sum(tiled_counts.values())
    out.naive_inst = sum(naive_counts.values())
    if not report.ok:
        out.problem = f"validator: {str(report).splitlines()[0]}"
    elif not same:
        out.problem = "tiled and naive live-outs differ"
    return seconds, out


def _grouped(timed, local: List[float]):
    """Operation times divided by the host's slowdown around each: whole
    operations and ``validate_tree`` in milliseconds per input, and the
    total seconds."""
    op_ms: Dict[str, List[float]] = {}
    validate_ms: Dict[str, List[float]] = {}
    total_s = 0.0
    for key, seconds, out, burst in timed:
        op_ms.setdefault(key, []).append(seconds / local[burst] * 1e3)
        validate_ms.setdefault(key, []).append(out.validate_s / local[burst] * 1e3)
        total_s += seconds / local[burst]
    return op_ms, validate_ms, total_s


def run(ctx: Context) -> Result:
    res = Result()
    rec = ctx.recorder
    setup_s, cases = repeat_setup(
        lambda: [Case(inp) for inp in draw.verify_inputs(ctx.seed)]
    )

    #: (input, seconds, outcome, index of the last burst before it)
    timed: List[Tuple[str, float, Outcome, int]] = []
    speed = HostSpeed(interp_burst)
    traced: List[Outcome] = []
    paired_plain: List[float] = []
    paired_traced: List[float] = []
    rounds = max(1, round(ctx.seconds / ROUND_SECONDS))
    for case in cases * rounds:
        speed.sample(SPEED_BURSTS)
        try:
            seconds, out = verify_once(case)
            if rec is not None:
                tseconds, tout = verify_once(case, rec)
                out.problem = out.problem or tout.problem
        except Exception as exc:  # one failed operation must not end the run
            res.tally.fail(f"{case.input}: {type(exc).__name__}: {exc}")
            continue
        if out.problem:
            res.tally.fail(f"{case.input}: {out.problem}")
            continue
        res.tally.ok()
        key = f"{case.input.program}:{case.input.tiles}"
        timed.append((key, seconds, out, len(speed.samples) - 1))
        if rec is not None:
            paired_plain.append(seconds)
            paired_traced.append(tseconds)
            traced.append(tout)

    if not timed:
        raise RuntimeError("run too short: no verification finished")
    speed.sample(SPEED_BURSTS)
    naive_inst = sum(out.naive_inst for _, _, out, _ in timed)
    op_ms, validate_ms, total_s = _grouped(timed, [1.0] * len(speed.samples))
    pooled = summarize([t for v in op_ms.values() for t in v])
    verify_ms = geomean_of_medians(op_ms)
    validate = geomean_of_medians(validate_ms)
    inst_per_s = naive_inst / total_s
    # The metrics are the same statistics of the times at nominal host
    # speed (see hostspeed.py); the rows below print them as measured.
    s_op_ms, s_validate_ms, s_total = _grouped(timed, speed.local_slowdowns(SPEED_WINDOW))
    res.metrics.update(
        setup_s=setup_s,
        peak_rss_mb=self_peak_rss_mb(),
        p50_ms=geomean_of_medians(s_op_ms),
        tail_ms=summarize([t for v in s_op_ms.values() for t in v])["tail_mean"],
        aux_p50_ms=geomean_of_medians(s_validate_ms),
        work_per_s=naive_inst / s_total,
    )
    res.row("host_slowdown", speed.slowdown(), "x",
            f"median of {len(speed.samples)} reference bursts over their nominal time; "
            f"each operation's times are divided by the median of the {SPEED_WINDOW} around it")
    res.row("verify_p50_s", verify_ms / 1e3, "s",
            f"geomean of {len(op_ms)} inputs' medians, n={pooled['n']}")
    res.row("verify_tail_s", pooled["tail_mean"] / 1e3, "s",
            f"mean beyond p{pooled['tail_pct']:g} of all, n={pooled['n']}")
    res.row(f"verify_p{pooled['tail_pct']:g}_s", pooled["tail"] / 1e3, "s", f"n={pooled['n']}")
    res.row("verify_pooled_p50_s", pooled["p50"] / 1e3, "s", f"n={pooled['n']}")
    res.row("validate_p50_ms", validate, "ms", f"geomean of {len(validate_ms)} inputs' medians")
    res.row("verify_inst_per_s", inst_per_s, "1/s",
            "naive-order instances verified per second")

    if rec is not None:
        n = len(traced)
        naive_inst = sum(o.naive_inst for o in traced)
        tiled_inst = sum(o.tiled_inst for o in traced)
        res.layers.update({
            "interp.naive_us_per_inst": 1e6 * sum(o.naive_s for o in traced) / naive_inst,
            "interp.tiled_us_per_inst": 1e6 * sum(o.tiled_s for o in traced) / tiled_inst,
            "core.validate_ms": 1e3 * sum(o.validate_s for o in traced) / n,
            "core.validate_pairs": sum(o.pairs for o in traced) / n,
            "core.recompute_ratio": tiled_inst / naive_inst,
            "trace.overhead_pct": overhead_pct(paired_plain, paired_traced),
        })
    return res
