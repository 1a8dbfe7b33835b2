"""Cost analysis: from schedule structures to abstract machine work.

The analytical machine models need, per fusion cluster (one top-level tiled
loop nest = one parallel region / one GPU kernel):

* arithmetic work, including overlapped-tile recomputation;
* DRAM traffic (per-tile footprints of unpromoted tensors, halo included);
* fast-memory traffic for promoted intermediates;
* available parallelism (tiles along coincident dimensions);
* per-tile scratch requirements.

Every quantity is derived from the same exact affine relations the
optimizer manipulates — footprint relation (4), extension schedules (6) —
evaluated at a representative interior tile.  Large-domain instance counts
use bounding boxes (exact for the rectangular domains that dominate the
benchmarks; a uniform over-approximation otherwise), which keeps analysis
cost independent of problem size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..codegen.promotion import promoted_buffers, representative_tile_origin
from ..core import OptimizeResult, TILE_TUPLE, tile_footprint
from ..ir import Program
from ..scheduler import FusionGroup, Scheduled

ITEMSIZE = 8  # float64 everywhere


@dataclass
class ClusterWork:
    """Abstract work of one fusion cluster (one kernel / parallel region)."""

    name: str
    statements: List[str]
    ops: float                       # arithmetic ops incl. recomputation
    recompute_ops: float             # the subset that is recomputation
    dram_read_bytes: float
    dram_write_bytes: float
    scratch_traffic_bytes: float     # promoted-buffer traffic
    n_tiles: int
    parallel_units: int              # independent work items (tiles/iters)
    n_parallel_dims: int
    scratch_bytes_per_tile: int
    vectorizable: bool
    ifs_in_body: bool = False        # maxfuse-style guarded bodies
    #: permutable but non-coincident bands: a GPU backend can still mine
    #: wavefront (diagonal) parallelism at poor utilisation
    wavefront: bool = False

    def total_dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes


@dataclass
class ProgramWork:
    clusters: List[ClusterWork]

    def total_ops(self) -> float:
        return sum(c.ops for c in self.clusters)

    def total_dram_bytes(self) -> float:
        return sum(c.total_dram_bytes() for c in self.clusters)

    def total_recompute(self) -> float:
        return sum(c.recompute_ops for c in self.clusters)


# ---------------------------------------------------------------------------
# helpers


def _domain_volume(program: Program, stmt_name: str, params) -> int:
    stmt = program.statement(stmt_name)
    dom = stmt.domain.fix_params(params)
    total = 0
    for piece in dom.pieces:
        total += piece.box_volume()
    return total


def _group_ops(program: Program, group: FusionGroup, params) -> float:
    return float(
        sum(
            _domain_volume(program, s, params)
            * program.statement(s).ops_per_instance()
            for s in group.statements
        )
    )


def _band_extents(
    program: Program, group: FusionGroup, params
) -> List[int]:
    """Extent of each outer band dimension over the group's statements."""
    extents = [0] * group.depth
    for s in group.statements:
        stmt = program.statement(s)
        box = {}
        for piece in stmt.domain.fix_params(params).pieces:
            for dim, (lo, hi) in piece.bounding_box().items():
                if dim in box:
                    olo, ohi = box[dim]
                    box[dim] = (min(lo, olo), max(hi, ohi))
                else:
                    box[dim] = (lo, hi)
        for d in range(group.depth):
            row = group.rows[s][d]
            lo = hi = row.const
            for sym, c in row.coeffs.items():
                slo, shi = box.get(sym, (0, 0))
                lo += c * (slo if c > 0 else shi)
                hi += c * (shi if c > 0 else slo)
            extents[d] = max(extents[d], hi - lo + 1)
    return extents


def _tensor_bytes(program: Program, tensor: str, params) -> int:
    return program.tensors[tensor].size_elems(params) * ITEMSIZE


def _per_tile_read_bytes(
    program: Program,
    group: FusionGroup,
    tile_sizes,
    tile_dims,
    tensors: Sequence[str],
    origin,
    params,
) -> Dict[str, float]:
    """Per-tile footprint bytes of each read tensor (box approximation)."""
    out: Dict[str, float] = {}
    if not tensors:
        return out
    fp = tile_footprint(program, group, tile_sizes, list(tensors), tile_dims)
    for tensor in tensors:
        m = fp.get((TILE_TUPLE, tensor))
        if m is None:
            out[tensor] = 0.0
            continue
        image = m.fix_params(params).image_of_point(origin)
        vol = 0
        for piece in image.pieces:
            vol = max(vol, piece.box_volume()) if piece.constraints else vol
        # Union box across pieces:
        box = image.bounding_box()
        total = 1
        for lo, hi in box.values():
            if lo is None or hi is None:
                total = 0
                break
            total *= max(hi - lo + 1, 0)
        out[tensor] = float(total * ITEMSIZE)
    return out


# ---------------------------------------------------------------------------
# analyzers


def analyze_optimized(
    result: OptimizeResult,
    params: Optional[Mapping[str, int]] = None,
    overlap: str = "exact",
) -> ProgramWork:
    """Work model of a post-tiling-fused schedule.

    ``overlap`` selects the recomputation model for fused intermediates:

    * ``"exact"`` — the paper's approach: each stage recomputes exactly its
      upwards-exposed footprint (relation 6);
    * ``"box_total"`` — PolyMage-style over-approximation: every fused
      stage is grown to the widest per-dimension halo of the whole group
      (tiling-after-fusion cannot see per-stage footprints).
    """
    if overlap not in ("exact", "box_total"):
        raise ValueError(f"unknown overlap policy {overlap!r}")
    program = result.program
    params = dict(program.params, **(params or {}))
    buffers = promoted_buffers(result, params)
    clusters: List[ClusterWork] = []
    readers_by_tensor = _readers_by_cluster(program, result)
    for entry in result.mixed.tiling_entries():
        group = entry.group
        exts = result.mixed.extensions_of(group)
        cluster_stmts = list(group.statements) + [
            s for e in exts for s in e.group.statements
        ]
        written_here = {
            program.statement(s).tensor_written() for s in cluster_stmts
        }
        promoted = {
            program.statement(s).tensor_written()
            for e in exts
            for s in e.group.statements
        }

        extents = _band_extents(program, group, params)
        if entry.is_tiled:
            sizes = entry.tile_sizes
            tiles_per_dim = [
                -(-extents[d] // sizes[d]) for d in range(len(sizes))
            ]
            n_tiles = int(np.prod(tiles_per_dim)) if tiles_per_dim else 1
            par_idx = [d for d in group.parallel_dim_indices() if d < len(sizes)]
            par_dims = len(par_idx)
            parallel_units = (
                int(np.prod([tiles_per_dim[d] for d in par_idx])) if par_idx else 1
            )
            origin = representative_tile_origin(
                program, group, sizes, entry.tile_dims, params
            )
        else:
            sizes = None
            n_tiles = 1
            par_idx = group.parallel_dim_indices()
            par_dims = len(par_idx)
            parallel_units = (
                int(np.prod([extents[d] for d in par_idx])) if par_idx else 1
            )
            origin = {}

        # Arithmetic: live-out statements run exactly once; fused
        # intermediates run per tile (with halo recomputation).
        ops = _group_ops(program, group, params)
        recompute = 0.0
        ext_entries = []  # (stmt name, exact per-tile count, box extents)
        for e in exts:
            for s in e.group.statements:
                m = e.relation.get((TILE_TUPLE, s))
                if m is None:
                    continue
                if origin:
                    image = m.fix_params(params).image_of_point(origin)
                    exact = image.count_points()
                    box = image.bounding_box()
                    ext_extents = [
                        (hi - lo + 1) if lo is not None and hi is not None else 1
                        for lo, hi in box.values()
                    ]
                else:
                    exact = _domain_volume(program, s, params)
                    ext_extents = []
                ext_entries.append((s, exact, ext_extents))
        if overlap == "box_total" and ext_entries:
            # PolyMage-style: every fused stage is grown to the group-wide
            # maximal halo (per leading dimension).  Stages of different
            # rank (e.g. 4-D up/down-sampling vs. 2-D maps) live at
            # different scales and are inflated within their own rank class.
            max_ext_by_rank: Dict[int, List[int]] = {}
            for _, _, ee in ext_entries:
                rank = len(ee)
                cur = max_ext_by_rank.setdefault(rank, [1, 1])
                for d in range(min(2, rank)):
                    cur[d] = max(cur[d], ee[d])
        exact_inst = 0.0
        inflated_inst = 0.0
        for s, exact, ext_extents in ext_entries:
            per_tile = float(exact)
            if overlap == "box_total" and len(ext_extents) >= 2:
                own = max(1, ext_extents[0] * ext_extents[1])
                max_ext = max_ext_by_rank[len(ext_extents)]
                inflate = (max_ext[0] * max_ext[1]) / own
                per_tile = max(per_tile, per_tile * inflate)
            exact_inst += float(exact)
            inflated_inst += per_tile
            stmt_ops = program.statement(s).ops_per_instance()
            total = per_tile * n_tiles * stmt_ops
            base = _domain_volume(program, s, params) * stmt_ops
            ops += total
            recompute += max(0.0, total - base)
        # Looser tiles also move more data: scratch buffers and streamed
        # reads grow with the same over-approximation factor.
        traffic_inflation = (
            inflated_inst / exact_inst
            if overlap == "box_total" and exact_inst > 0
            else 1.0
        )

        # Traffic.
        read_tensors = sorted(
            {
                t
                for s in cluster_stmts
                for t in program.statement(s).tensors_read()
            }
        )
        dram_read_tensors = [
            t for t in read_tensors if t not in written_here
        ]
        # In-place tensors (read and written by the same statement, e.g.
        # conv2d's quantisation of its input) carry pre-existing data that
        # must be fetched once even though the cluster also writes them.
        inplace_read = 0.0
        for s in cluster_stmts:
            stmt = program.statement(s)
            t = stmt.tensor_written()
            if t in stmt.tensors_read():
                inplace_read += _tensor_bytes(program, t, params)
        dram_read = 0.0
        if sizes is not None and dram_read_tensors:
            per_tile = _per_tile_read_bytes(
                program, group, sizes, entry.tile_dims, dram_read_tensors, origin, params
            )
            for t in dram_read_tensors:
                whole = _tensor_bytes(program, t, params)
                streamed = per_tile.get(t, 0.0) * n_tiles
                dram_read += min(max(whole, 0), streamed) if streamed else whole
        else:
            for t in dram_read_tensors:
                dram_read += _tensor_bytes(program, t, params)
        dram_read += inplace_read

        dram_write = 0.0
        scratch_traffic = 0.0
        for t in sorted(written_here):
            if t in promoted:
                continue  # handled below via buffers
            external_reader = readers_by_tensor.get(t, set()) - set(cluster_stmts)
            if t in program.liveout or external_reader:
                dram_write += _tensor_bytes(program, t, params)
        bufs = buffers.get(group.name, [])
        scratch_per_tile = int(
            sum(b.box_elems for b in bufs) * ITEMSIZE * traffic_inflation
        )
        scratch_traffic = 2.0 * scratch_per_tile * n_tiles
        dram_read *= traffic_inflation

        clusters.append(
            ClusterWork(
                name=group.name,
                statements=cluster_stmts,
                ops=ops,
                recompute_ops=recompute,
                dram_read_bytes=dram_read,
                dram_write_bytes=dram_write,
                scratch_traffic_bytes=scratch_traffic,
                n_tiles=n_tiles,
                parallel_units=max(parallel_units, 1),
                n_parallel_dims=par_dims,
                scratch_bytes_per_tile=scratch_per_tile,
                vectorizable=any(group.coincident) or group.permutable,
            )
        )
    return ProgramWork(clusters)


def _readers_by_cluster(program: Program, result) -> Dict[str, set]:
    readers: Dict[str, set] = {}
    for s in program.statements:
        for t in s.tensors_read():
            readers.setdefault(t, set()).add(s.name)
    return readers


def analyze_scheduled(
    scheduled: Scheduled,
    tile_sizes: Optional[Sequence[int]],
    params: Optional[Mapping[str, int]] = None,
) -> ProgramWork:
    """Work model of a start-up heuristic's schedule (the PPCG baselines).

    Each fusion group is its own cluster: intermediates crossing group
    boundaries travel through DRAM; tensors produced and consumed within a
    tile stay in cache (charged as scratch traffic).
    """
    program = scheduled.program
    params = dict(program.params, **(params or {}))
    all_stmts = {s.name for s in program.statements}
    readers: Dict[str, set] = {}
    for s in program.statements:
        for t in s.tensors_read():
            readers.setdefault(t, set()).add(s.name)

    clusters: List[ClusterWork] = []
    for group in scheduled.groups:
        written_here = {
            program.statement(s).tensor_written() for s in group.statements
        }
        extents = _band_extents(program, group, params)
        tiled = (
            tile_sizes is not None
            and group.permutable
            and group.depth > 0
        )
        if tiled:
            sizes = tuple(tile_sizes)[: group.depth]
            tiles_per_dim = [-(-extents[d] // sizes[d]) for d in range(len(sizes))]
            n_tiles = int(np.prod(tiles_per_dim)) if tiles_per_dim else 1
            par_idx = [d for d in group.parallel_dim_indices() if d < len(sizes)]
            par_dims = len(par_idx)
            parallel_units = (
                int(np.prod([tiles_per_dim[d] for d in par_idx])) if par_idx else 1
            )
            from ..core import tile_dim_names

            tdims = tile_dim_names(group, len(sizes))
            origin = representative_tile_origin(
                program, group, sizes, tdims, params
            )
        else:
            sizes = None
            n_tiles = 1
            par_idx = group.parallel_dim_indices()
            par_dims = len(par_idx)
            parallel_units = (
                int(np.prod([extents[d] for d in par_idx])) if par_idx else 1
            )
            origin = {}
            tdims = ()

        ops = _group_ops(program, group, params)

        read_tensors = sorted(
            {
                t
                for s in group.statements
                for t in program.statement(s).tensors_read()
            }
        )
        dram_read_tensors = [t for t in read_tensors if t not in written_here]
        inplace_read = 0.0
        for s in group.statements:
            stmt = program.statement(s)
            t = stmt.tensor_written()
            if t in stmt.tensors_read():
                inplace_read += _tensor_bytes(program, t, params)
        dram_read = 0.0
        if sizes is not None and dram_read_tensors:
            per_tile = _per_tile_read_bytes(
                program, group, sizes, tdims, dram_read_tensors, origin, params
            )
            for t in dram_read_tensors:
                whole = _tensor_bytes(program, t, params)
                streamed = per_tile.get(t, 0.0) * n_tiles
                dram_read += min(max(whole, 0), streamed) if streamed else whole
        else:
            for t in dram_read_tensors:
                dram_read += _tensor_bytes(program, t, params)
        dram_read += inplace_read

        dram_write = 0.0
        scratch_traffic = 0.0
        scratch_per_tile = 0
        for t in sorted(written_here):
            external = readers.get(t, set()) - set(group.statements)
            if t in program.liveout or external:
                dram_write += _tensor_bytes(program, t, params)
            else:
                size = _tensor_bytes(program, t, params)
                scratch_traffic += 2.0 * size
                scratch_per_tile += size // max(n_tiles, 1)

        clusters.append(
            ClusterWork(
                name=group.name,
                statements=list(group.statements),
                ops=ops,
                recompute_ops=0.0,
                dram_read_bytes=dram_read,
                dram_write_bytes=dram_write,
                scratch_traffic_bytes=scratch_traffic,
                n_tiles=n_tiles,
                parallel_units=max(parallel_units, 1),
                n_parallel_dims=par_dims,
                scratch_bytes_per_tile=scratch_per_tile,
                vectorizable=any(group.coincident),
                ifs_in_body=len(group.statements) > 1 and not all(group.coincident[:1]),
                wavefront=group.permutable and not any(group.coincident),
            )
        )
    return ProgramWork(clusters)
