"""``serve-warm``: one client replays repeat requests to a warm daemon.

Set-up starts ``python -m repro serve`` as a subprocess on its own cache
directory and socket and warms it with the seeded request set.  One
:class:`repro.serve.client.ServeClient` then replays a seeded stream of
repeats: ``compile`` and ``partition`` requests, and every
:data:`~perfbench.draw.TUNE_EVERY`-th request an ``autotune``.  Closed
loop, one client.  The cache is only read here, and the compile passes do
not run, so a faster pass should move nothing while a faster fingerprint,
program build or a cached tune result should.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.serve.client import ServeClient, wait_for_server

from . import draw
from .common import Context, Result, overhead_pct, pid_peak_rss_mb, repeat_setup
from .hostspeed import HostSpeed, interp_burst
from .stats import geomean_of_medians, summarize

#: Requests drawn up front; a run stops at its deadline long before.
MAX_REQUESTS = 200_000
#: Highest tail percentile.  A run holds about 2000 compile and partition
#: requests, enough for p99, but p99 reads the run's few outliers: it
#: ranged 21-54 ms over ten seeds.  p90 falls among the partition requests.
TAIL_MAX_PCT = 90.0
#: A reference burst is timed before every this many requests (under 10%
#: of the loop's time), on the CPU the client and the daemon share.
SPEED_EVERY = 4
#: Each request's time is divided by the median of this many bursts
#: around it, about 2 s of the loop (see hostspeed.py).
SPEED_WINDOW = 101


class Daemon:
    """A compile server subprocess with its own cache and socket."""

    def __init__(self, ctx: Context, name: str):
        base = os.path.join(ctx.tmp, name)
        os.makedirs(base)
        # Relative to the checkout: unix socket paths are limited to ~100
        # bytes, and the checkout's absolute path may be long.
        self.socket = os.path.relpath(os.path.join(base, "s.sock"), ctx.root)
        self.log_path = os.path.join(base, "daemon.log")
        self.client = None
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
                 "--cache", os.path.join(base, "cache")],
                cwd=ctx.root, env=ctx.env, stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            wait_for_server(socket_path=self.socket, timeout=60.0)
        except TimeoutError:
            self.stop()
            with open(self.log_path, errors="replace") as f:
                raise RuntimeError(f"compile server did not start:\n{f.read()[-2000:]}")
        self.client = ServeClient(socket_path=self.socket)

    def stop(self) -> None:
        """Ask for a graceful shutdown; kill the daemon if it lingers.
        Safe to call more than once."""
        client, self.client = self.client, None
        if client is not None:
            try:
                client.shutdown()
            except (OSError, ValueError, RuntimeError):
                pass  # already gone: the wait below still reaps it
            client.close()
        if self.proc.poll() is None and client is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)


def _send(client: ServeClient, req) -> dict:
    if isinstance(req, draw.TuneRequest):
        return client.autotune(
            req.program, size=req.size, threads=req.threads,
            candidates=draw.TUNE_CANDIDATES, dims=2,
        )
    if req.kind == "partition":
        return client.partition(req.program, size=req.size, targets=draw.TARGETS)
    return client.compile(
        req.program, size=req.size, target=req.target,
        tile_sizes=req.tiles,
    )


def _answer(req, reply: dict):
    """The part of a reply that must not change between repeats."""
    if isinstance(req, draw.TuneRequest):
        return tuple(reply["best_tile_sizes"])
    if req.kind == "partition":
        return tuple(p["fingerprint"] for p in reply["partitions"])
    return reply["fingerprint"]


def _problem(req, reply: dict, expected) -> Optional[str]:
    """What is wrong with a repeat's reply, if anything."""
    if reply.get("error"):
        return reply["error"]
    if _answer(req, reply) != expected:
        return f"repeat answered {_answer(req, reply)!r}, warm-up answered {expected!r}"
    if getattr(req, "kind", None) == "compile" and not reply.get("from_cache"):
        return "repeat compile was not served from the cache"
    return None


def _warm(daemon: Daemon, sset: draw.ServeSet) -> Dict[object, object]:
    expected = {}
    for req in sset.compiles + sset.partitions + sset.tunes:
        reply = _send(daemon.client, req)
        if reply.get("error"):
            raise RuntimeError(f"warm-up {req} failed: {reply['error']}")
        expected[req] = _answer(req, reply)
    return expected


def run(ctx: Context) -> Result:
    res = Result()
    sset = draw.serve_set(ctx.seed)
    daemons: List[Daemon] = []

    def setup() -> Tuple[Daemon, Dict[object, object]]:
        # Each set-up is a fresh daemon on a fresh cache; only the last
        # one stays up for the timed loop.
        for d in daemons:
            d.stop()
        daemons.append(Daemon(ctx, f"serve{len(daemons)}"))
        return daemons[-1], _warm(daemons[-1], sset)

    try:
        setup_s, (daemon, expected) = repeat_setup(setup)
        _measure(ctx, res, daemon, sset, expected, setup_s)
    finally:
        for d in daemons:
            d.stop()
    return res


def _grouped(timed, local: List[float]):
    """Round trips divided by the host's slowdown around each: compile and
    partition milliseconds per request, autotune seconds per program."""
    serve_ms: Dict[str, List[float]] = {}
    tune_s: Dict[str, List[float]] = {}
    for kind, program, seconds, burst in timed:
        seconds /= local[burst]
        if kind == "autotune":
            tune_s.setdefault(program, []).append(seconds)
        else:
            serve_ms.setdefault(f"{kind}:{program}", []).append(seconds * 1e3)
    return serve_ms, tune_s


def _measure(ctx, res, daemon, sset, expected, setup_s) -> None:
    rec = ctx.recorder
    client = daemon.client
    stream = draw.serve_stream(ctx.seed, sset, MAX_REQUESTS)
    #: (request kind, program, seconds, index of the burst before it)
    timed: List[Tuple[str, str, float, int]] = []
    tuned = set()  # whether autotune / other requests have a sample
    daemon_ms: List[float] = []
    wire_ms: List[float] = []
    tune_daemon_s: List[float] = []
    tune_evals = 0
    paired_plain: List[float] = []
    paired_traced: List[float] = []
    speed = HostSpeed(interp_burst)
    before = client.stats()["counters"]
    t_start = perf_counter()
    deadline = t_start + ctx.seconds
    for i, req in enumerate(stream):
        # Past the deadline, stop once every kind of request has a sample.
        if perf_counter() >= deadline and len(tuned) == 2:
            break
        if i % SPEED_EVERY == 0:
            speed.sample()
        try:
            t0 = perf_counter()
            reply = _send(client, req)
            seconds = perf_counter() - t0
            problem = _problem(req, reply, expected[req])
            if rec is not None:
                kind = "autotune" if isinstance(req, draw.TuneRequest) else req.kind
                t1 = perf_counter()
                with rec.span(f"serve.client.{kind}", program=req.program):
                    traced_reply = _send(client, req)
                paired_plain.append(seconds)
                paired_traced.append(perf_counter() - t1)
                problem = problem or _problem(req, traced_reply, expected[req])
        except Exception as exc:  # one failed request must not end the run
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            res.tally.fail(f"{req}: {problem}")
            continue
        res.tally.ok()
        kind = "autotune" if isinstance(req, draw.TuneRequest) else req.kind
        timed.append((kind, req.program, seconds, len(speed.samples) - 1))
        tuned.add(kind == "autotune")
        if kind == "autotune":
            tune_daemon_s.append(reply["compile_ms"] / 1e3)
            tune_evals += reply["evaluations"]
        else:
            daemon_ms.append(reply["compile_ms"])
            wire_ms.append(seconds * 1e3 - reply["compile_ms"])
    elapsed = perf_counter() - t_start - speed.spent
    after = client.stats()["counters"]
    rss = pid_peak_rss_mb(daemon.proc.pid)

    if len(tuned) < 2:
        raise RuntimeError("run too short: no compile or no autotune request finished")
    serve_ms, tune_s = _grouped(timed, [1.0] * len(speed.samples))
    pooled = summarize([t for v in serve_ms.values() for t in v], TAIL_MAX_PCT)
    # Per-request medians, then their geometric mean: a few partition
    # requests cost 5-10x a compile, so the pooled median would move with
    # the seeded share of each.
    serve_p50 = geomean_of_medians(serve_ms)
    tune_ms = geomean_of_medians(tune_s) * 1e3
    n_tunes = sum(len(v) for v in tune_s.values())
    # The metrics are the same statistics of the times at nominal host
    # speed (see hostspeed.py); the rows below print them as measured.
    local = speed.local_slowdowns(SPEED_WINDOW)
    scaled_ms, scaled_tune_s = _grouped(timed, local)
    scaled = summarize([t for v in scaled_ms.values() for t in v], TAIL_MAX_PCT)
    res.metrics.update(
        setup_s=setup_s,
        peak_rss_mb=rss,
        p50_ms=geomean_of_medians(scaled_ms),
        tail_ms=scaled["tail_mean"],
        aux_p50_ms=geomean_of_medians(scaled_tune_s) * 1e3,
        work_per_s=len(timed) / sum(sec / local[b] for _, _, sec, b in timed),
    )
    res.row("host_slowdown", speed.slowdown(), "x",
            f"median of {len(speed.samples)} reference bursts over their nominal time; "
            f"each request's time is divided by the median of the {SPEED_WINDOW} around it")
    res.row("serve_p50_ms", serve_p50, "ms",
            f"geomean of {len(serve_ms)} requests' medians, n={pooled['n']} (compile + partition)")
    res.row("serve_tail_ms", pooled["tail_mean"], "ms",
            f"mean beyond p{pooled['tail_pct']:g} of all, n={pooled['n']}")
    res.row(f"serve_p{pooled['tail_pct']:g}_ms", pooled["tail"], "ms", f"n={pooled['n']}")
    res.row("serve_pooled_p50_ms", pooled["p50"], "ms", f"n={pooled['n']}")
    res.row("tune_p50_s", tune_ms / 1e3, "s",
            f"geomean of {len(tune_s)} programs' medians, n={n_tunes}")
    res.row("requests_per_s", len(timed) / elapsed, "1/s", f"{len(timed)} requests, one client")
    res.row("peak_rss_mb", rss, "MB", "the daemon")

    if rec is not None:
        delta = {k: after.get(k, 0) - before.get(k, 0)
                 for k in ("serve.cache_hits", "serve.compiles")}
        answered = delta["serve.cache_hits"] + delta["serve.compiles"]
        for k, v in delta.items():
            rec.count(k, v)
        res.layers.update({
            "serve.daemon_ms": summarize(daemon_ms)["p50"],
            "serve.wire_ms": summarize(wire_ms)["p50"],
            "serve.cache_hit_ratio": delta["serve.cache_hits"] / answered if answered else 0.0,
            "serve.compiles": delta["serve.compiles"],
            "scheduler.autotune_evals": tune_evals / n_tunes,
            "serve.tune_daemon_s": summarize(tune_daemon_s)["p50"],
            "trace.overhead_pct": overhead_pct(paired_plain, paired_traced),
        })
