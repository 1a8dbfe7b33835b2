"""``compile-cold``: one caller compiles a seeded stream of distinct requests.

Every request starts from an empty compile cache and empty presburger memo
tables, so the compile passes and the cache writes (result put plus memo
spill) do the work.  One operation is what ``repro code`` does: build the
program, ``cached_optimize`` it, and print the code; a partition request
runs ``partition_pipeline`` over cpu, gpu and npu and prints every
partition.  Closed loop, one caller.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro.core
import repro.core.pipeline as pipeline_mod
import repro.partition.partitioner as partitioner_mod
import repro.service.driver as driver_mod
from repro.api import (
    CompileCache,
    CompileOptions,
    PartitionOptions,
    cached_optimize,
    get_workload,
    partition_pipeline,
)
from repro.codegen.gpu_mapping import map_to_gpu
from repro.codegen.printer import print_tree
from repro.presburger import memo

from . import draw
from .common import (
    Context,
    Result,
    overhead_pct,
    CHEAP_SETUP_REPEATS,
    repeat_setup,
    self_peak_rss_mb,
)
from .hostspeed import HostSpeed, interp_burst
from .spans import Recorder
from .stats import geomean_of_medians, summarize

#: Seconds one block takes on the development host (2 shared CPUs).  A run
#: compiles ``round(seconds / BLOCK_SECONDS)`` blocks, at least one: a
#: fixed amount of work for a given ``--seconds``, so that every run, on
#: every commit, compiles the same requests and reads its tail at the same
#: rank.
BLOCK_SECONDS = 9.0
#: Reference bursts timed before every request (see hostspeed.py).
SPEED_BURSTS = 3
#: Each request's time is divided by the median of this many bursts
#: around it: those of the ten requests before and after it.
SPEED_WINDOW = 63


def _print(result, program, target: str) -> str:
    """The code ``repro code`` prints for one compiled program."""
    if target == "gpu":
        map_to_gpu(result)
        return print_tree(result.tree, program, style="cuda")
    return print_tree(result.tree, program)


def _memo_counts() -> Tuple[int, int]:
    hits = misses = 0
    for table in memo.stats().values():
        hits += table["hits"]
        misses += table["misses"]
    return hits, misses


def _layer_patches(rec: Recorder, cache: CompileCache):
    groups = lambda r, scheduled: r.count("scheduler.groups", len(scheduled.groups))
    clusters = lambda r, mixed: r.count("core.clusters", len(mixed.fused_groups()))
    return [
        (driver_mod, "fingerprint_request", "service.fingerprint", None),
        (driver_mod, "fingerprint_program", "service.fingerprint", None),
        (partitioner_mod, "fingerprint_request", "service.fingerprint", None),
        (partitioner_mod, "cached_optimize", "service.cached_optimize", None),
        (cache, "put", "service.store", None),
        (cache, "put_memos", "service.store", None),
        (repro.core, "optimize", "core.optimize", None),
        (pipeline_mod, "schedule_program", "scheduler.startup", groups),
        (pipeline_mod, "composite_tiling_fusion", "core.tile_shapes", clusters),
        (pipeline_mod, "apply_mixed_schedules", "core.post_fusion", None),
    ]


def run_request(
    req: draw.CompileRequest, cache: CompileCache, rec: Optional[Recorder] = None
) -> Tuple[str, int]:
    """One operation; returns the printed code and the statement count."""
    span = rec.span if rec is not None else (lambda name, **attrs: nullcontext())
    with span("compile-cold.request", program=req.program, kind=req.kind):
        with span("workloads.build"):
            program = get_workload(req.program, req.size)
        if req.kind == "compile":
            with span("service.cached_optimize"):
                result = cached_optimize(
                    program,
                    CompileOptions(target=req.target, tile_sizes=req.tiles, cache=cache),
                )
            with span("codegen.print"):
                code = _print(result, program, req.target)
        else:
            with span("partition.search"):
                sched = partition_pipeline(
                    program,
                    PartitionOptions(
                        targets=draw.TARGETS, tile_sizes=req.tiles, cache=cache
                    ),
                )
            with span("codegen.print"):
                code = "\n".join(
                    _print(p.result, p.program, p.target)
                    for p in sched.partitions
                )
    return code, len(program.statements)


def _timed(req, cache_dir: str, rec: Optional[Recorder]):
    """A cold operation: fresh cache directory, empty memo tables."""
    memo.clear_all()
    cache = CompileCache(cache_dir=cache_dir)
    t0 = perf_counter()
    if rec is None:
        code, stmts = run_request(req, cache)
    else:
        with rec.patched(_layer_patches(rec, cache)):
            code, stmts = run_request(req, cache, rec)
    seconds = perf_counter() - t0
    cache.close()
    return code, stmts, seconds


def _digest(code: str) -> str:
    return hashlib.sha256(code.encode()).hexdigest()


def _import_compiler(ctx: Context) -> None:
    """What a ``repro code`` caller pays before its first compile: a fresh
    interpreter importing the compiler."""
    subprocess.run(
        [sys.executable, "-c",
         "import repro.api, repro.codegen.printer, repro.codegen.gpu_mapping"],
        env=ctx.env, check=True, cwd=ctx.root,
    )


def _grouped(timed, local: List[float]):
    """Request times divided by the host's slowdown around each: compile
    milliseconds per (program, target, size), partition milliseconds per
    program, the statements compiled and the total seconds."""
    compile_ms: Dict[str, List[float]] = {}
    partition_ms: Dict[str, List[float]] = {}
    statements = 0
    total_s = 0.0
    for req, seconds, stmts, burst in timed:
        seconds /= local[burst]
        if req.kind == "compile":
            key = f"{req.program}:{req.target}:{req.size}"
            compile_ms.setdefault(key, []).append(seconds * 1e3)
        else:
            partition_ms.setdefault(req.program, []).append(seconds * 1e3)
        statements += stmts
        total_s += seconds
    return compile_ms, partition_ms, statements, total_s


def run(ctx: Context) -> Result:
    res = Result()
    n_blocks = max(1, round(ctx.seconds / BLOCK_SECONDS))
    setup_s, blocks = repeat_setup(
        lambda: (_import_compiler(ctx), draw.compile_blocks(ctx.seed, n_blocks))[1],
        repeats=CHEAP_SETUP_REPEATS,
    )
    rec = ctx.recorder

    done: List[Tuple[draw.CompileRequest, str, str]] = []
    #: (request, seconds, statements, index of the last burst before it)
    timed: List[Tuple[draw.CompileRequest, float, int, int]] = []
    speed = HostSpeed(interp_burst)
    paired_plain: List[float] = []
    paired_traced: List[float] = []
    code_bytes = 0
    requests = [req for block in blocks for req in block]
    for i, req in enumerate(requests):
        cache_dir = os.path.join(ctx.tmp, "cc", str(i))
        speed.sample(SPEED_BURSTS)
        try:
            code, stmts, seconds = _timed(req, cache_dir, None)
            if rec is not None:
                h0 = _memo_counts()
                tcode, _, tseconds = _timed(req, cache_dir + "t", rec)
                h1 = _memo_counts()
                rec.count("presburger.memo_hits", h1[0] - h0[0])
                rec.count("presburger.memo_lookups", (h1[0] + h1[1]) - (h0[0] + h0[1]))
                paired_plain.append(seconds)
                paired_traced.append(tseconds)
                code_bytes += len(code.encode())
                if tcode != code:
                    res.tally.fail(f"{req}: traced compile printed different code")
                    continue
        except Exception as exc:  # one failed request must not end the run
            res.tally.fail(f"{req}: {type(exc).__name__}: {exc}")
            continue
        res.tally.ok()
        done.append((req, cache_dir, _digest(code)))
        timed.append((req, seconds, stmts, len(speed.samples) - 1))
    speed.sample(SPEED_BURSTS)

    rss = self_peak_rss_mb()
    # Output check, outside the timed region: the request repeated against
    # the cache it wrote must be served from that cache and print
    # byte-identical code.
    for req, cache_dir, digest in done:
        cache = CompileCache(cache_dir=cache_dir)
        try:
            code, _ = run_request(req, cache)
            stores = cache.stats.stores
        except Exception as exc:
            res.tally.recheck_failed(f"{req}: repeat failed: {type(exc).__name__}: {exc}")
            continue
        finally:
            cache.close()
        if stores:
            res.tally.recheck_failed(f"{req}: repeat recompiled ({stores} stores)")
        elif _digest(code) != digest:
            res.tally.recheck_failed(f"{req}: repeat printed different code")

    if {req.kind for req, *_ in timed} != {"compile", "partition"}:
        raise RuntimeError("run too short: no compile or no partition request finished")
    compile_ms, partition_ms, statements, total_s = _grouped(timed, [1.0] * len(speed.samples))
    pooled = summarize([t for v in compile_ms.values() for t in v])
    comp_ms = geomean_of_medians(compile_ms)
    part_ms = geomean_of_medians(partition_ms)
    n_part = sum(len(v) for v in partition_ms.values())
    # The metrics are the same statistics of the times at nominal host
    # speed (see hostspeed.py); the rows below print them as measured.
    s_compile, s_partition, _, s_total = _grouped(timed, speed.local_slowdowns(SPEED_WINDOW))
    res.metrics.update(
        setup_s=setup_s,
        peak_rss_mb=rss,
        p50_ms=geomean_of_medians(s_compile),
        tail_ms=summarize([t for v in s_compile.values() for t in v])["tail_mean"],
        aux_p50_ms=geomean_of_medians(s_partition),
        work_per_s=statements / s_total,
    )
    res.row("host_slowdown", speed.slowdown(), "x",
            f"median of {len(speed.samples)} reference bursts over their nominal time; "
            f"each request's time is divided by the median of the {SPEED_WINDOW} around it")
    res.row("compile_p50_ms", comp_ms, "ms",
            f"geomean of {len(compile_ms)} requests' medians, n={pooled['n']}")
    res.row("compile_tail_ms", pooled["tail_mean"], "ms",
            f"mean beyond p{pooled['tail_pct']:g} of all, n={pooled['n']}")
    res.row(f"compile_p{pooled['tail_pct']:g}_ms", pooled["tail"], "ms", f"n={pooled['n']}")
    res.row("compile_pooled_p50_ms", pooled["p50"], "ms", f"n={pooled['n']}")
    res.row("partition_p50_ms", part_ms, "ms",
            f"geomean of {len(partition_ms)} programs' medians, n={n_part}")
    res.row("statements_per_s", statements / total_s, "1/s", f"{statements} statements")
    res.notes.extend(draw.defect_notes())

    if rec is not None:
        n = len(paired_traced)
        selfs = rec.self_seconds()
        per_op = lambda key: 1e3 * selfs.get(key, 0.0) / n
        counts = rec.report.counters
        lookups = counts.get("presburger.memo_lookups", 0)
        res.layers.update({
            "workloads.build_ms": per_op("workloads.build"),
            "service.fingerprint_ms": per_op("service.fingerprint"),
            "service.store_ms": per_op("service.store"),
            "scheduler.startup_ms": per_op("scheduler.startup"),
            "scheduler.groups": counts.get("scheduler.groups", 0) / n,
            "core.tile_shapes_ms": per_op("core.tile_shapes"),
            "core.post_fusion_ms": per_op("core.post_fusion"),
            "core.clusters": counts.get("core.clusters", 0) / n,
            "codegen.print_ms": per_op("codegen.print"),
            "codegen.code_bytes": code_bytes / n,
            "partition.search_ms": per_op("partition.search"),
            "presburger.memo_hit_ratio": (
                counts.get("presburger.memo_hits", 0) / lookups if lookups else 0.0
            ),
            "trace.overhead_pct": overhead_pct(paired_plain, paired_traced),
        })
    return res
