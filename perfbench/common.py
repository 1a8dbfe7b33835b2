"""What every workload shares: the run context, the result it returns,
and the metric tables ``BENCHMARK.json`` mirrors."""

from __future__ import annotations

import os
import resource
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from .draw import NATIVE_PROGRAMS
from .hostspeed import HostSpeed, interp_burst
from .spans import Recorder
from .stats import Tally

#: End-to-end metrics every workload reports (name -> unit).  Each
#: workload maps its own operations onto them; ``run.py`` prints the
#: workload-specific names next to the values.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "aux_p50_ms": "ms",
    "work_per_s": "1/s",
}

#: Per-layer metrics of traced runs (name -> unit).  A workload reports
#: the layers it exercises; the others read 0 in its traced run.
NATIVE_PROGRAM_NAMES: Tuple[str, ...] = tuple(name for name, _, _ in NATIVE_PROGRAMS)
PER_LAYER: Dict[str, str] = {
    # compile-cold
    "workloads.build_ms": "ms",
    "service.fingerprint_ms": "ms",
    "service.store_ms": "ms",
    "scheduler.startup_ms": "ms",
    "scheduler.groups": "count",
    "core.tile_shapes_ms": "ms",
    "core.post_fusion_ms": "ms",
    "core.clusters": "count",
    "codegen.print_ms": "ms",
    "codegen.code_bytes": "bytes",
    "partition.search_ms": "ms",
    "presburger.memo_hit_ratio": "ratio",
    # serve-warm
    "serve.daemon_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.compiles": "count",
    "scheduler.autotune_evals": "count",
    "serve.tune_daemon_s": "s",
    # native-run
    "cbackend.generate_c_ms": "ms",
    "cbackend.build_s": "s",
    "cbackend.c_bytes": "bytes",
    "cbackend.parallel_loops": "count",
    **{f"exec.{p}_ms": "ms" for p in NATIVE_PROGRAM_NAMES},
    **{f"machine.{p}_modeled_ms": "ms" for p in NATIVE_PROGRAM_NAMES},
    "machine.rank_corr": "ratio",
    # verify
    "interp.naive_us_per_inst": "us",
    "interp.tiled_us_per_inst": "us",
    "core.validate_ms": "ms",
    "core.validate_pairs": "count",
    "core.recompute_ratio": "ratio",
    # every workload
    "trace.overhead_pct": "%",
}

#: How many times a workload repeats its set-up, unless it says otherwise;
#: ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Repeats of a set-up that takes under a second: one such set-up ranged
#: from 0.31 to 0.57 s within a minute.
CHEAP_SETUP_REPEATS = 7
#: Reference bursts timed before each set-up and after the last one.
SETUP_BURSTS = 5


@dataclass
class Context:
    """One run: its inputs and the scratch space inside the checkout."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: str      # the checkout
    tmp: str       # scratch directory, removed after the run
    out: str       # traced-run artefacts, kept
    env: Dict[str, str] = field(default_factory=dict)  # for subprocesses
    recorder: Optional[Recorder] = None


@dataclass
class Result:
    """What a workload measured."""

    tally: Tally = field(default_factory=Tally)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable rows: (name, value, unit, note).
    rows: List[Tuple[str, float, str, str]] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def row(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.rows.append((name, value, unit, note))


def repeat_setup(
    fn: Callable[[], object], repeats: int = SETUP_REPEATS
) -> Tuple[float, object]:
    """Run ``fn`` ``repeats`` times; the median wall time at nominal host
    speed and the last return value.

    Each set-up's time is divided by the host's slowdown around it: the
    median of the interpreter bursts just before and just after it (see
    hostspeed.py).  Set-ups are interpreter-bound Python.
    """
    speed = HostSpeed(interp_burst)
    speed.sample(SETUP_BURSTS)
    times = []
    value = None
    for _ in range(repeats):
        value = None  # let the previous set-up's objects go first
        t0 = perf_counter()
        value = fn()
        seconds = perf_counter() - t0
        speed.sample(SETUP_BURSTS)
        around = speed.samples[-2 * SETUP_BURSTS:]
        times.append(seconds * speed.nominal / statistics.median(around))
    return statistics.median(times), value


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def overhead_pct(untraced: List[float], traced: List[float]) -> float:
    """Tracing overhead over paired operations, in percent."""
    base = sum(untraced)
    return 100.0 * (sum(traced) - base) / base if base > 0 else 0.0


def isolate(root: str, tmp: str) -> Dict[str, str]:
    """Keep this process and its children inside the checkout: scratch
    files and the default compile cache under ``tmp``, no shared cache
    tier, dataset, trace context or tuning model from the environment.
    Returns the environment for child processes, which import the
    checkout's sources."""
    for var in ("REPRO_CACHE_REMOTE", "REPRO_DATASET", "REPRO_TRACE",
                "REPRO_AUTOTUNE_MODEL"):
        os.environ.pop(var, None)
    os.environ["TMPDIR"] = tmp
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "default-cache")
    tempfile.tempdir = tmp
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
