"""Shared machinery for building multi-stage image pipelines.

The PolyMage benchmarks are DAGs of stages over 2-D images: pointwise
maps, small stencils, strided downsampling and upsampling.  This builder
keeps all accesses affine (stencils as unrolled neighbour loads; up/down
sampling via constant-stride index expressions) and tracks PolyMage-style
*valid regions* — each stencil shrinks the domain by its radius, so no
boundary conditionals are needed.

All extents are concrete integers: the optimizer specialises on problem
sizes, which keeps every pyramid level's extent (H/2, H/4, ...) affine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..ir import Expr, Program, ProgramBuilder, Tensor, as_expr


class PipelineSizeError(ValueError):
    """Raised when a problem size is too small for a pipeline: some stage
    would get a non-positive extent (a pyramid deeper than the image)."""


@dataclass
class Image:
    """A tensor together with its valid-region extents."""

    tensor: Tensor
    h: int
    w: int

    @property
    def name(self) -> str:
        return self.tensor.name


class ImagePipeline:
    """Fluent builder for multi-stage 2-D pipelines.

    Every stage method returns the produced :class:`Image`; the builder
    records one *stage* (a list of statement names) per call, which the
    manual-schedule baselines use to express Halide-style groupings.
    """

    def __init__(self, name: str):
        self.name = name
        self.b = ProgramBuilder(name, params={})
        self.stages: List[List[str]] = []
        self._counter = 0

    # -- naming -------------------------------------------------------------

    def _sname(self, label: str) -> str:
        name = f"S{self._counter}_{label}"
        self._counter += 1
        return name

    def _image(self, label: str, tensor_name: str, h: int, w: int) -> Image:
        """A new ``(h, w)`` tensor for stage ``label``; both extents must be
        positive."""
        if h <= 0 or w <= 0:
            raise PipelineSizeError(
                f"{self.name}: stage {label!r} has extent ({h}, {w}); "
                f"the input is too small for this pipeline"
            )
        return Image(self.b.tensor(tensor_name, (h, w)), h, w)

    # -- sources ------------------------------------------------------------

    def source(self, name: str, h: int, w: int) -> Image:
        return self._image(name, name, h, w)

    # -- stages ---------------------------------------------------------------

    def pointwise(
        self,
        label: str,
        srcs: Sequence[Image],
        fn: Callable[..., Expr],
        out_name: Optional[str] = None,
    ) -> Image:
        """out[h, w] = fn(src0[h, w], src1[h, w], ...)."""
        h = min(s.h for s in srcs)
        w = min(s.w for s in srcs)
        out = self._image(label, out_name or f"t_{label}", h, w)
        hi, wi = self.b.iters("h", "w")
        loads = [s.tensor[hi, wi] for s in srcs]
        stmt = self.b.assign(
            self._sname(label),
            (hi, wi),
            f"0 <= h < {h} and 0 <= w < {w}",
            out.tensor[hi, wi],
            fn(*loads),
        )
        self.stages.append([stmt.name])
        return out

    def stencil(
        self,
        label: str,
        src: Image,
        offsets: Sequence[Tuple[int, int]],
        weights: Optional[Sequence[float]] = None,
        out_name: Optional[str] = None,
        post: Optional[Callable[[Expr], Expr]] = None,
    ) -> Image:
        """out[h, w] = sum w_k * src[h + dy_k, w + dx_k], valid region only."""
        max_dy = max(dy for dy, _ in offsets)
        max_dx = max(dx for _, dx in offsets)
        min_dy = min(dy for dy, _ in offsets)
        min_dx = min(dx for _, dx in offsets)
        if min_dy < 0 or min_dx < 0:
            # Shift so all offsets are non-negative; shrink accordingly.
            offsets = [(dy - min_dy, dx - min_dx) for dy, dx in offsets]
            max_dy -= min_dy
            max_dx -= min_dx
        h = src.h - max_dy
        w = src.w - max_dx
        out = self._image(label, out_name or f"t_{label}", h, w)
        hi, wi = self.b.iters("h", "w")
        if weights is None:
            weights = [1.0 / len(offsets)] * len(offsets)
        expr: Expr = as_expr(0)
        for (dy, dx), wk in zip(offsets, weights):
            expr = expr + src.tensor[hi + dy, wi + dx] * wk
        if post is not None:
            expr = post(expr)
        stmt = self.b.assign(
            self._sname(label),
            (hi, wi),
            f"0 <= h < {h} and 0 <= w < {w}",
            out.tensor[hi, wi],
            expr,
        )
        self.stages.append([stmt.name])
        return out

    def blur_x(self, label: str, src: Image, radius: int = 1) -> Image:
        offs = [(0, dx) for dx in range(2 * radius + 1)]
        return self.stencil(label, src, offs)

    def blur_y(self, label: str, src: Image, radius: int = 1) -> Image:
        offs = [(dy, 0) for dy in range(2 * radius + 1)]
        return self.stencil(label, src, offs)

    def downsample(self, label: str, src: Image, factor: int = 2) -> Image:
        """out[i, j] = mean of the factor x factor block of src."""
        h, w = src.h // factor, src.w // factor
        out = self._image(label, f"t_{label}", h, w)
        hi, wi = self.b.iters("h", "w")
        expr: Expr = as_expr(0)
        weight = 1.0 / (factor * factor)
        for dy in range(factor):
            for dx in range(factor):
                expr = expr + src.tensor[factor * hi + dy, factor * wi + dx] * weight
        stmt = self.b.assign(
            self._sname(label),
            (hi, wi),
            f"0 <= h < {h} and 0 <= w < {w}",
            out.tensor[hi, wi],
            expr,
        )
        self.stages.append([stmt.name])
        return out

    def upsample(self, label: str, src: Image, factor: int = 2) -> Image:
        """Nearest-neighbour expansion: out[f*i+di, f*j+dj] = src[i, j]."""
        h, w = src.h * factor, src.w * factor
        out = self._image(label, f"t_{label}", h, w)
        hi, wi, di, dj = self.b.iters("h", "w", "dh", "dw")
        stmt = self.b.assign(
            self._sname(label),
            (hi, wi, di, dj),
            f"0 <= h < {src.h} and 0 <= w < {src.w} "
            f"and 0 <= dh < {factor} and 0 <= dw < {factor}",
            out.tensor[factor * hi + di, factor * wi + dj],
            src.tensor[hi, wi],
        )
        self.stages.append([stmt.name])
        return out

    # -- finish ---------------------------------------------------------------

    def build(self, liveout: Sequence[Image]) -> Program:
        self.b.set_liveout(*[img.name for img in liveout])
        prog = self.b.build()
        prog.stages = [list(s) for s in self.stages]  # type: ignore[attr-defined]
        return prog


def crop_to(pipe: ImagePipeline, label: str, src: Image, h: int, w: int) -> Image:
    """Pointwise copy into a smaller valid region (aligns pyramid levels)."""
    out = pipe._image(label, f"t_{label}", h, w)
    hi, wi = pipe.b.iters("h", "w")
    stmt = pipe.b.assign(
        pipe._sname(label),
        (hi, wi),
        f"0 <= h < {h} and 0 <= w < {w}",
        out.tensor[hi, wi],
        src.tensor[hi, wi],
    )
    pipe.stages.append([stmt.name])
    return out
