"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 10 --trace 0

Workloads: ``compile-cold``, ``serve-warm``, ``native-run``, ``verify``
(see ``perfbench/README.md``).  The report's last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  A traced run also writes its spans as a Chrome trace and
its per-layer numbers as a ``repro-metrics/1`` snapshot under
``.perfbench/out/``.  All scratch files live under ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("compile-cold", "serve-warm", "native-run", "verify")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _workload_module(name: str):
    from perfbench import compile_cold, native_run, serve_warm, verify

    return {
        "compile-cold": compile_cold,
        "serve-warm": serve_warm,
        "native-run": native_run,
        "verify": verify,
    }[name]


def _write_trace(ctx, res) -> None:
    """Write the traced run's artefacts; an invalid one is a failure."""
    from repro.obs import validate_chrome_trace, validate_metrics_snapshot

    from perfbench.spans import metrics_snapshot

    stem = os.path.join(ctx.out, f"{ctx.workload}-seed{ctx.seed}")
    trace = ctx.recorder.chrome()
    snap = metrics_snapshot(
        res.layers, ctx.recorder.report.counters,
        workload=ctx.workload, seed=ctx.seed, seconds=ctx.seconds,
    )
    for path, obj, errors in (
        (stem + ".trace.json", trace, validate_chrome_trace(trace)),
        (stem + ".metrics.json", snap, validate_metrics_snapshot(snap)),
    ):
        with open(path, "w") as f:
            json.dump(obj, f, indent=1, sort_keys=True)
            f.write("\n")
        res.notes.append(f"wrote {os.path.relpath(path, ctx.root)}")
        if errors:
            res.tally.recheck_failed(f"{path}: " + "; ".join(errors[:3]))


def main(argv=None) -> int:
    args = _parse(argv)
    # A terminated run still stops its daemon and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    os.chdir(ROOT)
    # One CPU for this process and every process it starts.  The reference
    # bursts of hostspeed.py then time the CPU the measured work ran on,
    # and a serve-warm request and its reply hand over on that CPU instead
    # of waking the other one, which made round trips on a loaded 2-CPU
    # host far less steady.  Each workload has one caller, and native
    # kernels run on one thread.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from perfbench.common import END_TO_END, PER_LAYER, Context, isolate
    from perfbench.spans import Recorder

    base = os.path.join(ROOT, ".perfbench")
    out = os.path.join(base, "out")
    os.makedirs(out, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    env = isolate(ROOT, tmp)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=ROOT,
        tmp=tmp,
        out=out,
        env=env,
        recorder=Recorder() if args.trace else None,
    )
    try:
        res = _workload_module(args.workload).run(ctx)
        if ctx.trace:
            _write_trace(ctx, res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, value, unit, note in res.rows:
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    for note in res.notes:
        print(f"  note: {note}")
    for reason in res.tally.reasons:
        print(f"  FAILED: {reason}")
    table = PER_LAYER if ctx.trace else END_TO_END
    values = res.layers if ctx.trace else res.metrics
    if ctx.trace:
        for name in table:
            shown = "" if name in values else "   (not exercised by this workload)"
            print(f"  {name:34s} {values.get(name, 0.0):14.6g} {table[name]:6s}{shown}")
    # A traced run reads 0 for layers its workload does not exercise; a
    # plain run must have measured every end-to-end metric.
    metrics = {
        name: {"value": float(values.get(name, 0.0) if ctx.trace else values[name]),
               "unit": unit}
        for name, unit in table.items()
    }
    print(json.dumps({
        "correct": res.tally.failed == 0,
        "attempted": res.tally.attempted,
        "failed": res.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
