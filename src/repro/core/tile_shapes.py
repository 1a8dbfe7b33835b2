"""Algorithm 1 — constructing arbitrary tile shapes.

Rectangular/parallelogram tiling is applied *only* to live-out computation
spaces.  The tile shapes of intermediate computation spaces are then derived
from the per-tile footprints of the upwards-exposed data, as *extension
schedules* (relation (6)): affine maps from tile origins to the statement
instances each tile must recompute/keep locally.  The output is the paper's
``Mixed_Schedules``: an ordered union of tiling schedules and extension
schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import obs
from ..ir import Program
from ..presburger import Map, UnionMap
from ..scheduler import FusionGroup
from .exposed import exposed_tensors
from .footprint import (
    TILE_TUPLE,
    interior_tile_origin,
    parametric_binding,
    tile_count,
    tile_dim_names,
    tile_footprint,
)


@dataclass(frozen=True)
class TargetSpec:
    """How much parallelism the target machine needs preserved.

    ``m_cap`` bounds the number of parallel dimensions the pass protects
    (1 for OpenMP CPUs, 2 for the CUDA grid); a live-out space is treated
    as tilable only when it offers at least ``min_m`` parallel dimensions
    (Section III-C).  ``max_recompute`` bounds the recomputation factor a
    fused intermediate space may incur (total extended instances over its
    domain size): halo-style overlap passes easily, while footprints that
    scale with a full problem dimension (the matmul-chain case) are
    rejected — the paper's fusion "never introduces redundancy" beyond
    bounded overlapped tiling.
    """

    name: str
    m_cap: int
    min_m: int
    max_recompute: float = 8.0
    #: Cluster-level budget: total recomputation ops a fusion cluster may
    #: accumulate, relative to its genuine work.  Deep stencil chains
    #: (Local Laplacian's 99 stages) split into several clusters once the
    #: accumulated halo work reaches this ratio, mirroring the cost-model
    #: guidance the paper's AKG integration applies.
    max_recompute_ratio: float = 2.0
    #: Per-tile fast-memory budget: fused intermediates must fit the
    #: target's scratchpad (CPU cache share / GPU shared memory / NPU
    #: unified buffer), or their traffic would spill right back to DRAM.
    scratch_bytes: int = 256 * 1024


CPU = TargetSpec("cpu", m_cap=1, min_m=1, scratch_bytes=4 * 1024 * 1024)
GPU = TargetSpec("gpu", m_cap=2, min_m=2, scratch_bytes=96 * 1024)
NPU = TargetSpec("npu", m_cap=1, min_m=1, scratch_bytes=256 * 1024)

TARGETS = {t.name: t for t in (CPU, GPU, NPU)}


@dataclass
class TilingScheduleEntry:
    """Rectangular/parallelogram tiling of one live-out computation space."""

    group: FusionGroup
    tile_sizes: Optional[Tuple[int, ...]]  # None: the group stays untiled
    tile_dims: Tuple[str, ...] = ()

    @property
    def is_tiled(self) -> bool:
        return self.tile_sizes is not None


@dataclass
class ExtensionScheduleEntry:
    """An extension schedule: tile origins -> intermediate instances."""

    group: FusionGroup
    target: FusionGroup
    relation: UnionMap  # keyed (TILE_TUPLE, stmt); in dims = target tile dims

    def instances_for_tile(self, stmt: str, origin, params) -> "object":
        m = self.relation.get((TILE_TUPLE, stmt))
        if m is None:
            raise KeyError(stmt)
        return m.fix_params(params).image_of_point(origin)


MixedEntry = Union[TilingScheduleEntry, ExtensionScheduleEntry]


@dataclass
class MixedSchedules:
    """Algorithm 1's output: ordered tiling + extension schedules.

    Extension entries always follow the tiling entry of their target group,
    nearest producer first — the order Algorithm 2 splices them in.
    """

    entries: List[MixedEntry] = field(default_factory=list)

    def tiling_entries(self) -> List[TilingScheduleEntry]:
        return [e for e in self.entries if isinstance(e, TilingScheduleEntry)]

    def extensions_of(self, group: FusionGroup) -> List[ExtensionScheduleEntry]:
        return [
            e
            for e in self.entries
            if isinstance(e, ExtensionScheduleEntry) and e.target is group
        ]

    def entry_of(self, group: FusionGroup) -> Optional[MixedEntry]:
        for e in self.entries:
            if e.group is group:
                return e
        return None

    def fused_groups(self) -> List[List[FusionGroup]]:
        """The fusion groups Algorithm 1 implies (one per tiling entry)."""
        out = []
        for t in self.tiling_entries():
            out.append([t.group] + [e.group for e in self.extensions_of(t.group)])
        return out


def construct_tile_shapes(
    program: Program,
    liveout: FusionGroup,
    intermediates: Sequence[FusionGroup],
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec = CPU,
) -> MixedSchedules:
    """Algorithm 1: build ``Mixed_Schedules`` for one live-out space.

    ``intermediates`` must be ordered nearest-producer-first (as produced
    by :func:`repro.core.exposed.intermediate_groups_of`).
    """
    mixed = MixedSchedules()
    _algorithm1(program, liveout, list(intermediates), tile_sizes, target, mixed)
    obs.count("tile_shapes.entries", len(mixed.entries))
    return mixed


def effective_tile_sizes(
    group: FusionGroup, tile_sizes: Optional[Sequence[int]], target: TargetSpec
) -> Optional[Tuple[int, ...]]:
    """Clip the user tile-size vector to the group's band depth.

    When no sizes are given, fusion-without-tiling is realised with
    unit tiles over the protected parallel dimensions (the equake case of
    Section VI-A: an "empty" tiling that still enables post-tiling fusion).
    """
    if tile_sizes is None:
        m = min(group.n_parallel(), target.m_cap)
        if m == 0:
            return None
        return (1,) * m
    sizes = tuple(tile_sizes)[: group.depth]
    return sizes if sizes else None


def _algorithm1(
    program: Program,
    liveout: FusionGroup,
    intermediates: List[FusionGroup],
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec,
    mixed: MixedSchedules,
) -> None:
    with obs.span(
        "algorithm1", liveout=liveout.name, intermediates=len(intermediates)
    ):
        _algorithm1_step(
            program, liveout, intermediates, tile_sizes, target, mixed
        )


def _algorithm1_step(
    program: Program,
    liveout: FusionGroup,
    intermediates: List[FusionGroup],
    tile_sizes: Optional[Sequence[int]],
    target: TargetSpec,
    mixed: MixedSchedules,
) -> None:
    m = min(liveout.n_parallel(), target.m_cap)
    tilable = liveout.permutable and liveout.n_parallel() >= target.min_m
    sizes = effective_tile_sizes(liveout, tile_sizes, target) if tilable else None

    if sizes is None:
        # Line 18: the live-out space is not tilable; emit it untiled and
        # recurse over the remaining spaces.
        mixed.entries.append(TilingScheduleEntry(liveout, None))
        if intermediates:
            _algorithm1(
                program,
                intermediates[0],
                intermediates[1:],
                tile_sizes,
                target,
                mixed,
            )
        return

    tdims = tile_dim_names(liveout, len(sizes))
    mixed.entries.append(TilingScheduleEntry(liveout, sizes, tdims))

    # Lines 5-6: upwards-exposed data of the live-out space and the
    # footprint function f (relation (4)).
    all_spaces = [liveout] + intermediates
    data = list(exposed_tensors(program, liveout, all_spaces))
    footprints: Dict[str, Map] = {}
    # Parametric engine: run the footprint/extension algebra once with
    # symbolic tile sizes (size-independent memo keys shared by every
    # autotune candidate) and specialize only where a *decision* needs
    # concrete numbers or an entry leaves this pass.
    pb = parametric_binding(program, liveout, sizes, tdims)
    if pb is not None:
        names, binding = pb
        fp = tile_footprint(program, liveout, names, data, tdims)
    else:
        binding = None
        fp = tile_footprint(program, liveout, sizes, data, tdims)
    for (_, tensor), m_ in fp.maps.items():
        footprints[tensor] = m_

    untiled: List[FusionGroup] = []
    origin = interior_tile_origin(
        program, liveout, sizes, tdims, program.params
    )
    n_tiles = tile_count(program, liveout, sizes, program.params)
    budget = {
        "work": _group_domain_ops(program, liveout),
        "extra": 0.0,
        "scratch": 0.0,
    }
    for space in intermediates:
        # Line 7-8: preserve the live-out space's parallelism.
        n = space.n_parallel()
        if m > n:
            untiled.append(space)
            continue
        with obs.span("fuse_space", space=space.name):
            entry = _fuse_space(
                program,
                space,
                liveout,
                footprints,
                tdims,
                origin,
                n_tiles,
                target,
                budget,
                binding,
            )
            obs.annotate(fused=entry is not None)
        if entry is None:
            obs.count("tile_shapes.rejected_spaces")
            untiled.append(space)
            continue
        obs.count("tile_shapes.fused_spaces")
        mixed.entries.append(entry)

    # Line 17: recursively handle the spaces left untiled.
    if untiled:
        _algorithm1(
            program, untiled[0], untiled[1:], tile_sizes, target, mixed
        )


def _group_domain_ops(program: Program, group: FusionGroup) -> float:
    total = 0.0
    for s in group.statements:
        stmt = program.statement(s)
        vol = sum(
            piece.box_volume(program.params) for piece in stmt.domain.pieces
        )
        total += vol * stmt.ops_per_instance()
    return max(total, 1.0)


def _fuse_space(
    program: Program,
    space: FusionGroup,
    liveout: FusionGroup,
    footprints: Dict[str, Map],
    tdims: Tuple[str, ...],
    origin: Mapping[str, int],
    n_tiles: int,
    target: TargetSpec,
    budget: Dict[str, float],
    binding: Optional[Mapping[str, int]] = None,
) -> Optional[ExtensionScheduleEntry]:
    """Lines 9-16: extension schedules for every statement of ``space``.

    Statements are visited consumers-first so that footprints of tensors
    produced *within* the space become available for its earlier
    statements.  Returns None when the space writes nothing the tiles
    need (it then belongs to a later invocation of Algorithm 1) or when
    fusing would exceed the target's recomputation budget.

    With a parametric ``binding`` the footprints (and everything derived
    from them) carry symbolic tile-size parameters; the relation algebra
    then memoizes size-independently, and only budget decisions and the
    emitted extension relations are specialized to concrete sizes.
    """
    written = {
        program.statement(s).tensor_written() for s in space.statements
    }
    if not written & set(footprints):
        return None

    producers = {
        program.statement(s).tensor_written() for s in program.statement_names
    }

    def _conc(m: Map) -> Map:
        return m.specialize(binding) if binding else m
    # Work on a local copy: a rejected space must leave the footprint table
    # untouched, or its producers would be fused (and skipped) to serve a
    # consumer that still runs from its original, earlier position.
    local = dict(footprints)
    ext_maps: List[Map] = []
    space_extra = 0.0
    space_work = 0.0
    space_scratch = 0.0
    ordered = sorted(space.statements, key=program.statement_index, reverse=True)
    for s in ordered:
        stmt = program.statement(s)
        tensor = stmt.tensor_written()
        fp = local.get(tensor)
        if fp is None:
            continue
        # Relation (5) reversed write, then relation (6) = f . (5).  The
        # union of per-consumer footprints is collapsed to its simple hull:
        # overlapping disjuncts would otherwise re-extend (and re-execute)
        # the same instances once per piece.
        ext = (
            fp.apply_range(stmt.write_relation().reverse())
            .dedupe()
            .pattern_hull()
            .dedupe()
        )
        # Recomputation budgets.  Per space: instances all tiles would run
        # over the statement's domain size — halo overlap stays near 1,
        # footprints spanning a whole problem dimension (matmul chains)
        # blow past it.  Per cluster: accumulated recompute ops may not
        # exceed max_recompute_ratio of the cluster's genuine work, which
        # splits very deep stencil chains.
        per_tile = _image_box_volume(_conc(ext), origin, program.params)
        domain_size = sum(
            piece.box_volume(program.params) for piece in stmt.domain.pieces
        )
        if domain_size > 0:
            factor = per_tile * n_tiles / domain_size
            if factor > target.max_recompute:
                return None
            stmt_ops = stmt.ops_per_instance()
            extra_ops = max(0.0, (per_tile * n_tiles - domain_size)) * stmt_ops
            new_extra = budget["extra"] + space_extra + extra_ops
            new_work = budget["work"] + space_work + domain_size * stmt_ops
            if new_extra > target.max_recompute_ratio * new_work:
                return None
            # Fast-memory budget: the per-tile buffer this statement's
            # output occupies must still fit the target scratchpad.
            buffer_bytes = per_tile * 8.0
            if (
                budget["scratch"] + space_scratch + buffer_bytes
                > target.scratch_bytes
            ):
                return None
            space_extra += extra_ops
            space_work += domain_size * stmt_ops
            space_scratch += buffer_bytes
        ext_maps.append(ext)
        # Line 15: extend the exposed data with what s itself reads.  Pure
        # inputs (never written) cannot fuse anything, so their footprints
        # need not be tracked.
        for (_, read_tensor), access in stmt.read_relations().maps.items():
            if read_tensor not in producers:
                continue
            extra = ext.apply_range(access)
            if _conc(extra).is_empty():
                continue
            if read_tensor in local:
                prev = local[read_tensor]
                rename = dict(zip(extra.space.in_dims, prev.space.in_dims))
                rename.update(zip(extra.space.out_dims, prev.space.out_dims))
                merged = prev.union(extra.rename_dims(rename)).dedupe()
                if len(merged) > 1:
                    # Halo unions of consumer stages are shifted copies of
                    # one region; the simple hull collapses them (a sound
                    # over-approximation for footprints: extensions may
                    # only grow).
                    merged = merged.pattern_hull().dedupe()
                local[read_tensor] = merged
            else:
                local[read_tensor] = extra.dedupe()
    if not ext_maps:
        return None
    footprints.clear()
    footprints.update(local)
    budget["extra"] += space_extra
    budget["work"] += space_work
    budget["scratch"] += space_scratch
    # The emitted relation leaves this pass (post-fusion, cost model,
    # promotion all consume it), so it is always concrete.
    return ExtensionScheduleEntry(
        space, liveout, UnionMap([_conc(m) for m in ext_maps])
    )

def _image_box_volume(
    ext: Map, origin: Mapping[str, int], params: Mapping[str, int]
) -> float:
    """Box volume of the instances one representative tile extends."""
    image = ext.fix_params(params).image_of_point(origin)
    box = image.bounding_box()
    total = 1.0
    for lo, hi in box.values():
        if lo is None or hi is None:
            return float("inf")
        total *= max(hi - lo + 1, 0)
    return total
