"""Start-up fusion heuristics: minfuse, smartfuse, maxfuse, hybridfuse.

These reproduce the PPCG/Pluto fusion options the paper compares against
(Section VI):

* **minfuse** — no fusion: one computation space per statement;
* **smartfuse** — the default: greedily fuse a statement into its last
  producer's group when doing so keeps every fused dimension parallel and
  the band permutable;
* **maxfuse** — fuse whole connected components of the flow-dependence
  graph, aligning stencil offsets by shifting; typically loses coincidence
  (outer parallelism) on stencil programs;
* **hybridfuse** — Pluto's hybrid: smartfuse grouping at the outer level
  plus inner-level fusion for vectorisation; rejects programs whose inner
  domains are non-rectangular (mirroring the published failure mode).

The paper's own pass (:mod:`repro.core`) *starts from* a conservative
heuristic and re-fuses after tiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..deps import Dependence, memory_deps
from ..ir import Program
from ..presburger import LinExpr, memo
from ..schedule import DomainNode
from .parallelism import band_attributes, fusion_preserves_parallelism, required_shifts
from .stages import FusionGroup, groups_tree, identity_rows

# Start-up fusion depends only on the program and the heuristic — never on
# tile sizes or the target — so one analysis serves a whole autotune sweep.
# Only the (deps, groups) analysis is cached: the schedule tree is rebuilt
# per call because post-tiling fusion rewrites it in place.
_STARTUP_MEMO = memo.table("startup_schedule")

MINFUSE = "minfuse"
SMARTFUSE = "smartfuse"
MAXFUSE = "maxfuse"
HYBRIDFUSE = "hybridfuse"

HEURISTICS = (MINFUSE, SMARTFUSE, MAXFUSE, HYBRIDFUSE)


class SchedulerError(RuntimeError):
    """Raised when a heuristic cannot schedule a program."""


@dataclass
class Scheduled:
    """The result of start-up scheduling: groups + the realised tree."""

    program: Program
    heuristic: str
    groups: List[FusionGroup]
    deps: List[Dependence]
    tree: DomainNode
    hybrid_inner: bool = False

    def group_of(self, stmt: str) -> FusionGroup:
        for g in self.groups:
            if stmt in g:
                return g
        raise KeyError(stmt)


def schedule_program(program: Program, heuristic: str = SMARTFUSE) -> Scheduled:
    """Apply a start-up fusion heuristic and build the schedule tree."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}; choose from {HEURISTICS}")
    from .. import obs
    from ..service.fingerprint import fingerprint_program

    with obs.span("scheduler", heuristic=heuristic):
        key = (fingerprint_program(program), heuristic)
        cached = _STARTUP_MEMO.get(key)
        if cached is not memo.MISS:
            deps, groups = cached
            obs.count("scheduler.startup_memo.hit")
        else:
            obs.count("scheduler.startup_memo.miss")
            with obs.span("scheduler.analyze", heuristic=heuristic):
                deps = memory_deps(program)
                if heuristic == MINFUSE:
                    groups = _minfuse(program, deps)
                elif heuristic == SMARTFUSE:
                    groups = _smartfuse(program, deps)
                elif heuristic == MAXFUSE:
                    groups = _maxfuse(program, deps)
                else:
                    groups = _hybridfuse(program, deps)
            _STARTUP_MEMO.put(key, (deps, groups))
        obs.annotate(groups=len(groups), deps=len(deps))
        with obs.span("scheduler.build_tree"):
            tree = groups_tree(program, groups)
    return Scheduled(
        program, heuristic, groups, deps, tree, hybrid_inner=heuristic == HYBRIDFUSE
    )


# ---------------------------------------------------------------------------
# minfuse


def _singleton_group(program: Program, stmt, deps, name: str) -> FusionGroup:
    """A one-statement group whose band is the largest permutable prefix.

    Mirrors Pluto/PPCG band splitting: for a reduction nest like conv2d's
    ``S2(h, w, kh, kw)`` the accumulator self-dependence makes the full 4-D
    band non-permutable, but the ``(h, w)`` prefix is a permutable (and
    coincident) tile band with the reduction loops nested inside.
    """
    full = len(stmt.dims)
    rows_full = {stmt.name: identity_rows(stmt.dims, full)}
    coincident, _perm = band_attributes(
        deps, [stmt.name], rows_full, full, program.params
    )
    depth = _largest_permutable_prefix(
        deps, [stmt.name], rows_full, full, program.params
    )
    if depth == 0:
        depth = full
        permutable = False
        coin = coincident
    else:
        permutable = True
        coin = coincident[:depth]
    rows = {stmt.name: identity_rows(stmt.dims, depth)}
    return FusionGroup(
        name=name,
        statements=[stmt.name],
        depth=depth,
        rows=rows,
        coincident=list(coin),
        permutable=permutable,
    )


def _largest_permutable_prefix(deps, members, rows, maxdepth, params) -> int:
    from ..deps import dep_distance_bounds

    member_set = set(members)
    lows = [0] * maxdepth  # most negative lower bound seen per dim
    for dep in deps:
        if dep.source not in member_set or dep.target not in member_set:
            continue
        bounds = dep_distance_bounds(
            dep, list(rows[dep.source]), list(rows[dep.target]), params
        )
        for d in range(maxdepth):
            lo, _ = bounds[d]
            if lo is None:
                lows[d] = -1
            else:
                lows[d] = min(lows[d], lo)
    depth = 0
    for d in range(maxdepth):
        if lows[d] < 0:
            break
        depth += 1
    return depth


def _minfuse(program: Program, deps: Sequence[Dependence]) -> List[FusionGroup]:
    return [
        _singleton_group(program, stmt, deps, f"G{gi}")
        for gi, stmt in enumerate(program.statements)
    ]


# ---------------------------------------------------------------------------
# smartfuse


def _smartfuse(program: Program, deps: Sequence[Dependence]) -> List[FusionGroup]:
    groups: List[FusionGroup] = []
    stmt_group: Dict[str, int] = {}
    for stmt in program.statements:
        candidate_idx = _last_producer_group(stmt.name, deps, stmt_group)
        fused = False
        if candidate_idx is not None:
            g = groups[candidate_idx]
            new_depth = min(g.depth, len(stmt.dims))
            if new_depth > 0 and _no_interfering_groups(
                stmt.name, deps, stmt_group, candidate_idx
            ):
                trial_rows = {
                    s: tuple(g.rows[s][:new_depth]) for s in g.statements
                }
                cand_rows = identity_rows(stmt.dims, new_depth)
                if fusion_preserves_parallelism(
                    deps,
                    g.statements,
                    trial_rows,
                    stmt.name,
                    cand_rows,
                    new_depth,
                    program.params,
                ):
                    g.statements.append(stmt.name)
                    g.depth = new_depth
                    g.rows = dict(trial_rows)
                    g.rows[stmt.name] = tuple(cand_rows)
                    g.coincident, g.permutable = band_attributes(
                        deps, g.statements, g.rows, new_depth, program.params
                    )
                    stmt_group[stmt.name] = candidate_idx
                    fused = True
        if not fused:
            groups.append(
                _singleton_group(program, stmt, deps, f"G{len(groups)}")
            )
            stmt_group[stmt.name] = len(groups) - 1
    return groups


def _last_producer_group(
    stmt: str, deps: Sequence[Dependence], stmt_group: Mapping[str, int]
) -> Optional[int]:
    best: Optional[int] = None
    for d in deps:
        if d.target == stmt and d.source != stmt and d.source in stmt_group:
            idx = stmt_group[d.source]
            best = idx if best is None else max(best, idx)
    return best


def _no_interfering_groups(
    stmt: str,
    deps: Sequence[Dependence],
    stmt_group: Mapping[str, int],
    candidate_idx: int,
) -> bool:
    """No dependence touches ``stmt`` from a group after the candidate."""
    for d in deps:
        other = None
        if d.target == stmt and d.source != stmt:
            other = d.source
        elif d.source == stmt and d.target != stmt:
            other = d.target
        if other is not None and other in stmt_group:
            if stmt_group[other] > candidate_idx:
                return False
    return True


# ---------------------------------------------------------------------------
# maxfuse


def _maxfuse(program: Program, deps: Sequence[Dependence]) -> List[FusionGroup]:
    # Union-find over flow dependences (undirected connectivity).
    parent: Dict[str, str] = {s.name: s.name for s in program.statements}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    for d in deps:
        if d.kind == "flow" and d.source != d.target:
            union(d.source, d.target)

    components: Dict[str, List[str]] = {}
    for stmt in program.statements:
        components.setdefault(find(stmt.name), []).append(stmt.name)

    ordered = sorted(components.values(), key=lambda c: min(program.statement_index(s) for s in c))
    groups: List[FusionGroup] = []
    for gi, members in enumerate(ordered):
        members = sorted(members, key=program.statement_index)
        depth = min(len(program.statement(s).dims) for s in members)
        dims_of = {s: program.statement(s).dims for s in members}
        shifts = required_shifts(deps, members, dims_of, depth, program.params)
        rows: Dict[str, Tuple[LinExpr, ...]] = {}
        for s in members:
            base = identity_rows(dims_of[s], depth)
            rows[s] = tuple(r + shifts[s][i] for i, r in enumerate(base))
        coincident, permutable = band_attributes(
            deps, members, rows, depth, program.params
        )
        groups.append(
            FusionGroup(
                name=f"G{gi}",
                statements=list(members),
                depth=depth,
                rows=rows,
                coincident=coincident,
                permutable=permutable,
            )
        )
    return groups


# ---------------------------------------------------------------------------
# hybridfuse


def _hybridfuse(program: Program, deps: Sequence[Dependence]) -> List[FusionGroup]:
    """Pluto's hybrid heuristic: smartfuse outer, maximal inner fusion.

    Inner-level fusion requires rectangular inner domains; a domain whose
    constraints couple two iterators (triangular loops, as in covariance)
    defeats the inner alignment and is rejected — reproducing the published
    failure (Table II reports a segfault for covariance under hybridfuse).
    """
    for stmt in program.statements:
        for piece in stmt.domain.pieces:
            for c in piece.constraints:
                involved = [s for s in c.expr.symbols() if s in stmt.dims]
                if len(involved) > 1:
                    raise SchedulerError(
                        f"hybridfuse: non-rectangular domain in {stmt.name} "
                        f"(constraint {c}); inner-level fusion unsupported"
                    )
    return _smartfuse(program, deps)
