"""Named-workload registry shared by the CLI and the compile server.

Both ``python -m repro <verb> <workload>`` and the ``repro.serve`` daemon
address programs by name: the name (plus a size) fully determines the
built :class:`~repro.ir.Program`, which is what lets a compile *request*
travel over a wire as a few JSON fields instead of a pickled object.
``build_workload`` is the single name-to-program mapping; the CLI wraps
its :class:`UnknownWorkloadError` and :class:`PipelineSizeError` in a
``SystemExit``, the server turns them into a structured ``bad-request``
reply.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .pipelines import IMAGE_PIPELINES, conv2d, equake, mixed, polybench, resnet
from .pipelines.common import PipelineSizeError  # noqa: F401 (re-export)

#: Image-pipeline sizes that differ from the family default of 512: the
#: 8-level pyramid of multiscale interpolation needs size >= 1276.
_IMAGE_SIZES = {"multiscale_interp": 2048}


class UnknownWorkloadError(ValueError):
    """Raised when a workload name matches no registered builder."""


def workload_names() -> List[str]:
    """Every name ``build_workload`` accepts, sorted."""
    return sorted(
        set(IMAGE_PIPELINES)
        | set(polybench.BUILDERS)
        | set(mixed.MIXED_BUILDERS)
        | {"conv2d", "conv_bn", "equake"}
    )


def is_workload(name: str) -> bool:
    return (
        name in IMAGE_PIPELINES
        or name in polybench.BUILDERS
        or name in mixed.MIXED_BUILDERS
        or name in ("conv2d", "conv_bn", "equake")
    )


def build_workload(name: str, size: Optional[int] = None):
    """Build the named workload's :class:`~repro.ir.Program`.

    ``size`` scales the iteration space; each family has its own default.
    Raises :class:`UnknownWorkloadError` for unregistered names and
    :class:`PipelineSizeError` for a size too small for the pipeline.
    """
    if name in IMAGE_PIPELINES:
        return IMAGE_PIPELINES[name].build(size or _IMAGE_SIZES.get(name, 512))
    if name == "conv2d":
        s = size or 64
        return conv2d.build({"H": s, "W": s, "KH": 3, "KW": 3})
    if name == "conv_bn":
        s = size or 32
        return resnet.build_operator_pair(s, s)
    if name == "equake":
        return equake.build(n=size or 8000)
    if name in mixed.MIXED_BUILDERS:
        return mixed.MIXED_BUILDERS[name](size or 512)
    if name in polybench.BUILDERS:
        return polybench.BUILDERS[name](size or 256)
    raise UnknownWorkloadError(
        f"unknown workload {name!r}; known workloads: "
        + ", ".join(workload_names())
    )


def default_tile_sizes(name: str) -> Optional[Tuple[int, ...]]:
    """The tile sizes a workload is compiled with when none are given."""
    if name in IMAGE_PIPELINES:
        return IMAGE_PIPELINES[name].TILE_SIZES
    if name in mixed.MIXED_BUILDERS:
        return mixed.TILE_SIZES
    if name == "equake":
        return None
    return (32, 32)


def get_workload(name: str, size: Optional[int] = None):
    """Canonical name-to-program lookup (alias of :func:`build_workload`).

    This is the spelling ``repro.api`` re-exports; benchmarks, the CLI
    and the compile server all resolve workload names through it.
    """
    return build_workload(name, size)
