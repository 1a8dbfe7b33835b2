"""Seeded inputs for every workload.

Everything a workload feeds the compiler is drawn here from the run's seed:
programs, sizes, tile sizes, targets, request kinds and the seeds of the
tensor contents.  The program under test receives only these inputs.

Each workload keeps its *population* of requests or programs fixed and
repeats it in whole blocks; the seed orders the work and picks what barely
changes its cost (configurations of warm requests, tile sizes, tensor
contents).  A run then measures the same mix of work on every seed, which
is what keeps medians comparable across seeds and across commits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

Tiles = Optional[Tuple[int, ...]]

#: Sizes each program is compiled at in ``compile-cold``.  Every listed
#: size builds a program whose tensor extents are all positive; see
#: :data:`KNOWN_DEFECTS` for the two programs whose registry defaults or
#: small sizes do not.
COMPILE_SIZES: Dict[str, Tuple[int, ...]] = {
    "2mm": (192, 256, 320),
    "3mm": (192, 256, 320),
    "atax": (192, 256, 320),
    "bicg": (192, 256, 320),
    "bilateral_grid": (384, 512, 640),
    "camera_pipeline": (384, 512, 640),
    "camera_resnet": (384, 512, 640),
    "conv2d": (48, 64, 80),
    "conv_bn": (24, 32, 40),
    "covariance": (192, 256, 320),
    "doitgen": (48, 64, 80),
    "edge_infer": (384, 512, 640),
    "equake": (6000, 8000, 10000),
    "gemver": (192, 256, 320),
    "harris": (384, 512, 640),
    "local_laplacian": (384, 512, 640),
    "multiscale_interp": (1280, 1536, 2048),
    "mvt": (192, 256, 320),
    "unsharp_mask": (384, 512, 640),
}

#: ``get_workload`` accepts pyramid sizes too small for the pyramid: it
#: builds a program with non-positive tensor extents, which later fails
#: with an untyped ``ValueError`` in ``analyze_optimized``, ``generate_c``
#: or ``make_store``.  The benchmark draws sizes at or above these minima.
KNOWN_DEFECTS: Dict[str, Tuple[int, str]] = {
    # program: (smallest valid size, why)
    "multiscale_interp": (
        1276,
        "its 8 pyramid levels need size >= 1276; the registry default 512 "
        "builds tensors of extent <= 0",
    ),
    "local_laplacian": (
        50,
        "its pyramid needs size >= 50; size 32 builds tensors of extent <= 0",
    ),
}

#: Programs whose ``partition_pipeline`` request stays under ~0.3 s cold.
#: ``equake`` (2.4 s) and ``covariance`` (0.5 s) spend that in stage
#: footprint counting; the two pyramids compile every stage three times.
PARTITION_PROGRAMS: Tuple[str, ...] = (
    "2mm", "3mm", "atax", "bicg", "bilateral_grid", "camera_resnet",
    "conv2d", "conv_bn", "doitgen", "edge_infer", "gemver", "harris",
    "mvt", "unsharp_mask",
)

TARGETS: Tuple[str, ...] = ("cpu", "gpu", "npu")


def tile_choices(default: Tiles) -> Tuple[Tiles, ...]:
    """The default tile sizes and two neighbours of the same rank."""
    if default is None:
        return (None,)
    a, b = default[0], default[-1]
    return (default, (max(4, a // 2), b), (a, max(4, b // 2)))


@dataclass(frozen=True)
class CompileRequest:
    """One ``compile-cold`` or ``serve-warm`` request, by value."""

    kind: str  # "compile" or "partition"
    program: str
    size: int
    tiles: Tiles
    target: str


def compile_config(name: str, k: int) -> Tuple[int, Tiles, str]:
    """Configuration ``k`` (of three) of a program: a size, tile sizes and
    a target, always paired the same way."""
    from repro.api import default_tile_sizes

    tiles = tile_choices(default_tile_sizes(name))
    return COMPILE_SIZES[name][k % 3], tiles[k % len(tiles)], TARGETS[k % 3]


def compile_blocks(seed: int, blocks: int) -> List[List[CompileRequest]]:
    """``blocks`` blocks of ``compile-cold`` requests.

    Every block holds the same requests: each registered program compiled
    in each of its three configurations, and each of
    :data:`PARTITION_PROGRAMS` partitioned once in its middle one.  The
    seed orders each block, so a run of whole blocks measures the same mix
    on every seed.
    """
    from repro.api import workload_names

    rng = random.Random(seed)
    out: List[List[CompileRequest]] = []
    for _ in range(blocks):
        block = [
            CompileRequest("compile", name, *compile_config(name, k))
            for name in workload_names()
            for k in range(3)
        ]
        block += [
            CompileRequest("partition", name, *compile_config(name, 1)[:2], "cpu")
            for name in PARTITION_PROGRAMS
        ]
        rng.shuffle(block)
        out.append(block)
    return out


#: ``serve-warm`` warms and replays one compile request per program,
#: leaving out the two pyramids, whose cold compiles (0.4-1.6 s) would
#: dominate set-up.
SERVE_COMPILE_PROGRAMS: Tuple[str, ...] = tuple(
    n for n in COMPILE_SIZES if n not in ("local_laplacian", "multiscale_interp")
)
#: Pipelines that mix cpu/gpu/npu stages, where partitioning pays off.
SERVE_PARTITION_PROGRAMS: Tuple[str, ...] = ("camera_resnet", "edge_infer")
#: Small programs, so a cold 25-candidate tune stays well under a second.
SERVE_TUNE_PROGRAMS: Tuple[str, ...] = ("conv2d", "gemver", "unsharp_mask")
TUNE_CANDIDATES: Tuple[int, ...] = (8, 16, 32, 64, 128)
#: One request in this many is an autotune request.
TUNE_EVERY = 25
#: One request in this many is a partition request.
PARTITION_EVERY = 5


@dataclass(frozen=True)
class TuneRequest:
    program: str
    size: int
    threads: int


@dataclass(frozen=True)
class ServeSet:
    compiles: Tuple[CompileRequest, ...]
    partitions: Tuple[CompileRequest, ...]
    tunes: Tuple[TuneRequest, ...]


def serve_set(seed: int) -> ServeSet:
    """The request set a ``serve-warm`` daemon is warmed with.

    The seed picks each compile request's configuration and the tune
    requests' thread counts.  Partition and tune requests use each
    program's middle size: their repeat cost grows with the size, and the
    mix must not change with the seed.
    """
    rng = random.Random(seed)
    compiles = tuple(
        CompileRequest("compile", n, *compile_config(n, rng.randrange(3)))
        for n in SERVE_COMPILE_PROGRAMS
    )
    partitions = tuple(
        CompileRequest("partition", n, COMPILE_SIZES[n][1], None, "cpu")
        for n in SERVE_PARTITION_PROGRAMS
    )
    tunes = tuple(
        TuneRequest(n, COMPILE_SIZES[n][1], rng.choice((8, 16, 32)))
        for n in SERVE_TUNE_PROGRAMS
    )
    return ServeSet(compiles, partitions, tunes)


def serve_stream(seed: int, sset: ServeSet, n: int) -> List[object]:
    """``n`` repeat requests over the warmed set: every
    :data:`TUNE_EVERY`-th is an autotune, every :data:`PARTITION_EVERY`-th
    of the rest a partition, the others compiles; which request of each
    kind is seeded."""
    rng = random.Random(seed * 7919 + 1)
    out: List[object] = []
    for i in range(n):
        if i % TUNE_EVERY == TUNE_EVERY - 1:
            out.append(sset.tunes[(i // TUNE_EVERY) % len(sset.tunes)])
        elif i % PARTITION_EVERY == PARTITION_EVERY - 1:
            out.append(rng.choice(sset.partitions))
        else:
            out.append(rng.choice(sset.compiles))
    return out


#: ``native-run`` programs and sizes: one kernel run takes 30-130 ms on
#: one core.  ``covariance`` is left out: its fused tree's C output
#: differs from program order (see the package README).
NATIVE_PROGRAMS: Tuple[Tuple[str, int, int], ...] = (
    # (program, timed size, small size for the check against execute_naive)
    ("2mm", 256, 12),
    ("3mm", 192, 10),
    ("camera_pipeline", 512, 16),
    ("gemver", 1024, 16),
    ("harris", 512, 16),
    ("unsharp_mask", 1024, 16),
)


@dataclass(frozen=True)
class ProgramInput:
    program: str
    size: int
    tiles: Tiles
    data_seed: int


def native_inputs(seed: int) -> List[ProgramInput]:
    """Every native program at its default tile sizes, with seeded tensor
    contents.  The tile sizes stay fixed: the kernels' run time moves with
    them by up to 15%, which ten seeds would read as noise."""
    from repro.api import default_tile_sizes

    rng = random.Random(seed)
    return [
        ProgramInput(name, size, default_tile_sizes(name), rng.randrange(1 << 30))
        for name, size, _small in NATIVE_PROGRAMS
    ]


#: ``verify`` programs at sizes where one verification takes 0.1-0.5 s.
VERIFY_PROGRAMS: Tuple[Tuple[str, int], ...] = (
    ("atax", 12),
    ("bicg", 16),
    ("conv2d", 10),
    ("conv_bn", 8),
    ("covariance", 8),
    ("equake", 32),
    ("gemver", 12),
    ("harris", 12),
    ("mvt", 16),
    ("unsharp_mask", 16),
)
VERIFY_TILES: Tuple[Tuple[int, int], ...] = ((4, 4), (8, 8))


def verify_inputs(seed: int) -> List[ProgramInput]:
    """Every verify program with each of :data:`VERIFY_TILES`, in seeded
    order, with seeded tensor contents."""
    from repro.api import default_tile_sizes

    rng = random.Random(seed)
    out = [
        ProgramInput(name, size, tiles, rng.randrange(1 << 30))
        for name, size in VERIFY_PROGRAMS
        for tiles in (VERIFY_TILES if default_tile_sizes(name) else (None,))
    ]
    rng.shuffle(out)
    return out


def defect_notes() -> List[str]:
    """One line per known defect: the smallest size drawn, and why."""
    return [
        f"{name}: sizes drawn >= {min(COMPILE_SIZES[name])} because {why}"
        for name, (_valid, why) in KNOWN_DEFECTS.items()
    ]
