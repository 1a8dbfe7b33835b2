"""Aggressive memory optimisation: promotion of intermediates (Section V-B).

Values produced by an intermediate computation space fused into a tile are
only used within that tile, so they can live in a small scratchpad (CPU),
shared memory (GPU) or a unified buffer (NPU) and be discarded when the
tile completes.  This module computes, per fusion cluster, the per-tile
buffer each promoted tensor needs: its bounding box (PPCG's rectangular
over-approximation of possibly non-rectangular footprints) evaluated at a
representative interior tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import OptimizeResult, TILE_TUPLE, tile_footprint
from ..ir import Program
from ..scheduler import FusionGroup


@dataclass
class PromotedBuffer:
    """One tensor's per-tile scratch buffer within a fusion cluster."""

    tensor: str
    box_shape: Tuple[int, ...]     # rectangular over-approximated extent
    exact_elems: int               # exact footprint size (integer points)

    @property
    def box_elems(self) -> int:
        total = 1
        for e in self.box_shape:
            total *= e
        return total

    @property
    def over_approximation(self) -> float:
        """Box size relative to the exact footprint (>= 1.0)."""
        if self.exact_elems == 0:
            return 1.0
        return self.box_elems / self.exact_elems


def representative_tile_origin(
    program: Program,
    group: FusionGroup,
    tile_sizes: Sequence[int],
    tile_dims: Sequence[str],
    params: Mapping[str, int],
) -> Dict[str, int]:
    """An interior tile origin: aligned, near the middle of the band."""
    origin: Dict[str, int] = {}
    # Bound each band row over the group's first statement's domain.
    stmt = program.statement(group.statements[0])
    dom = stmt.domain.fix_params(params)
    box = dom.bounding_box()
    for d, (tdim, size) in enumerate(zip(tile_dims, tile_sizes)):
        row = group.rows[stmt.name][d]
        lo = hi = row.const
        for sym, c in row.coeffs.items():
            slo, shi = box.get(sym, (0, 0))
            if slo is None or shi is None:
                raise ValueError(f"unbounded row {row} in group {group.name}")
            lo += c * (slo if c > 0 else shi)
            hi += c * (shi if c > 0 else slo)
        mid = (lo + hi) // 2
        aligned = (mid // size) * size
        aligned = max((lo // size) * size, min(aligned, (hi // size) * size))
        origin[tdim] = aligned
    return origin


def promoted_buffers(
    result: OptimizeResult, params: Optional[Mapping[str, int]] = None
) -> Dict[str, List[PromotedBuffer]]:
    """Per-cluster promoted buffers, keyed by the live-out group's name.

    A tensor is promoted when it is produced by a fused (extension) space
    and consumed inside the same cluster's tiles.
    """
    from .. import obs

    with obs.span("codegen.promotion"):
        out = _promoted_buffers(result, params)
        obs.annotate(
            clusters=len(out), buffers=sum(len(b) for b in out.values())
        )
        return out


def _promoted_buffers(
    result: OptimizeResult, params: Optional[Mapping[str, int]] = None
) -> Dict[str, List[PromotedBuffer]]:
    program = result.program
    params = dict(program.params, **(params or {}))
    out: Dict[str, List[PromotedBuffer]] = {}
    for entry in result.mixed.tiling_entries():
        exts = result.mixed.extensions_of(entry.group)
        if not entry.is_tiled or not exts:
            continue
        fused_tensors = sorted(
            {
                program.statement(s).tensor_written()
                for e in exts
                for s in e.group.statements
            }
        )
        fp = tile_footprint(
            program, entry.group, entry.tile_sizes, fused_tensors, entry.tile_dims
        )
        # Fused producers may feed each other; include footprints seen from
        # the producer side too (reads of fused statements).
        buffers: List[PromotedBuffer] = []
        origin = representative_tile_origin(
            program, entry.group, entry.tile_sizes, entry.tile_dims, params
        )
        for tensor in fused_tensors:
            m = fp.get((TILE_TUPLE, tensor))
            if m is None:
                # Produced and consumed only among the fused spaces; size it
                # by the producer's extension instances instead.
                buffers.append(
                    _buffer_from_extension(program, exts, tensor, origin, params)
                )
                continue
            image = m.fix_params(params).image_of_point(origin)
            box = image.bounding_box()
            shape = tuple(
                (hi - lo + 1) if lo is not None and hi is not None else 0
                for lo, hi in box.values()
            )
            buffers.append(
                PromotedBuffer(tensor, shape, image.count_points())
            )
        out[entry.group.name] = buffers
    return out


def _buffer_from_extension(
    program: Program, exts, tensor: str, origin, params
) -> PromotedBuffer:
    for e in exts:
        for s in e.group.statements:
            stmt = program.statement(s)
            if stmt.tensor_written() != tensor:
                continue
            m = e.relation.get((TILE_TUPLE, s))
            if m is None:
                continue
            inst = m.fix_params(params).image_of_point(origin)
            elems = inst.count_points()
            writes = stmt.write_relation().fix_params(params)
            touched = writes.apply_to_set(inst)
            box = touched.bounding_box()
            shape = tuple(
                (hi - lo + 1) if lo is not None and hi is not None else 0
                for lo, hi in box.values()
            )
            return PromotedBuffer(tensor, shape, touched.count_points())
    return PromotedBuffer(tensor, (0,), 0)


def total_scratch_bytes(
    buffers: Sequence[PromotedBuffer], itemsize: int = 8
) -> int:
    return sum(b.box_elems for b in buffers) * itemsize


@dataclass
class StorageReduction:
    """How much intermediate storage post-tiling fusion eliminates."""

    tensor: str
    full_bytes: int          # the unfused allocation (whole tensor)
    per_tile_bytes: int      # the fused per-tile scratch buffer

    @property
    def factor(self) -> float:
        return self.full_bytes / max(self.per_tile_bytes, 1)


def storage_reduction(
    result: OptimizeResult, params: Optional[Mapping[str, int]] = None
) -> List[StorageReduction]:
    """Per promoted tensor: full-buffer bytes vs. per-tile scratch bytes.

    This quantifies the paper's "enabling storage reduction and reuse":
    without post-tiling fusion every intermediate needs its whole tensor
    in memory; fused, it needs one tile footprint per running tile.
    """
    program = result.program
    params = dict(program.params, **(params or {}))
    out: List[StorageReduction] = []
    for buffers in promoted_buffers(result, params).values():
        for b in buffers:
            full = program.tensors[b.tensor].size_elems(params) * 8
            out.append(StorageReduction(b.tensor, full, b.box_elems * 8))
    return out
