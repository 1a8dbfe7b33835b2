"""Symbolic AST generation and pretty-printing of schedule trees.

Generates readable imperative code (OpenMP C or CUDA-flavoured) by
scanning a schedule tree the same way the interpreter does, but keeping
loop bounds symbolic: a band dimension's bounds are the Fourier–Motzkin
projection of the member statements' constraint systems onto that
dimension, rendered as ``max(...)``/``min(...)`` of affine expressions
with ``ceild``/``floord`` for non-unit coefficients (Pluto's idiom).

These backends exist for inspection, documentation and tests; execution
semantics live in :mod:`repro.codegen.interp` (the same tree walk, with
concrete values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import Program, REDUCE
from ..presburger import Constraint, LinExpr
from ..presburger.fm import eliminate_symbols
from ..schedule import (
    BandNode,
    DomainNode,
    ExtensionNode,
    FilterNode,
    LeafNode,
    MarkNode,
    Node,
    SequenceNode,
    SKIPPED,
)


# ---------------------------------------------------------------------------
# expression rendering


def render_linexpr(e: LinExpr) -> str:
    parts = []
    for sym in sorted(e.coeffs):
        c = e.coeffs[sym]
        if c == 1:
            parts.append(f"+ {sym}")
        elif c == -1:
            parts.append(f"- {sym}")
        elif c > 0:
            parts.append(f"+ {c}*{sym}")
        else:
            parts.append(f"- {-c}*{sym}")
    if e.const > 0 or not parts:
        parts.append(f"+ {e.const}")
    elif e.const < 0:
        parts.append(f"- {-e.const}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _bound_exprs(
    constraints: Sequence[Constraint],
    var: str,
    keep: Sequence[str],
) -> Tuple[List[str], List[str]]:
    """Symbolic lower/upper bound candidates of ``var``.

    ``keep`` lists the symbols allowed to appear in bounds (outer loop
    vars and params); everything else is projected away first.
    """
    syms = set()
    for c in constraints:
        syms.update(c.expr.symbols())
    # Sorted, not set order: the FM elimination order decides which derived
    # constraints survive and hence the operand order of the emitted
    # max()/min()/ceild()/floord() — it must not depend on PYTHONHASHSEED.
    eliminate = sorted(s for s in syms if s != var and s not in keep)
    projected = eliminate_symbols(list(constraints), eliminate)
    lowers: List[str] = []
    uppers: List[str] = []
    for c in projected:
        a = c.coeff(var)
        if a == 0:
            continue
        rest = c.expr - LinExpr({var: a})
        if c.kind == "==":
            text = render_linexpr(-rest)
            lowers.append(text if abs(a) == 1 else f"({text})/{a}")
            uppers.append(text if abs(a) == 1 else f"({text})/{a}")
        elif a > 0:
            # a*var + rest >= 0  ->  var >= ceild(-rest, a)
            text = render_linexpr(-rest)
            lowers.append(text if a == 1 else f"ceild({text}, {a})")
        else:
            text = render_linexpr(rest)
            uppers.append(text if a == -1 else f"floord({text}, {-a})")
    return _dedupe_strs(lowers), _dedupe_strs(uppers)


def _dedupe_strs(xs: List[str]) -> List[str]:
    return list(dict.fromkeys(xs))


def _combine(parts: List[str], fn: str) -> str:
    if not parts:
        return "/* unbounded */"
    out = parts[0]
    for p in parts[1:]:
        out = f"{fn}({out}, {p})"
    return out


# ---------------------------------------------------------------------------
# code model


@dataclass
class CodeWriter:
    lines: List[str] = field(default_factory=list)
    depth: int = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("  " * self.depth + text if text else "")

    def text(self) -> str:
        return "\n".join(self.lines)


@dataclass
class PrintContext:
    """Per-statement symbolic constraint systems while walking the tree."""

    program: Program
    writer: CodeWriter
    style: str  # "openmp" or "cuda"
    loop_vars: List[str] = field(default_factory=list)
    gpu_depth: int = 0


def _sanitize(name: str) -> str:
    return name.replace("-", "_")


def print_tree(
    tree: DomainNode, program: Program, style: str = "openmp"
) -> str:
    """Render a schedule tree as imperative pseudo-C."""
    from .. import obs

    with obs.span("codegen.print_tree", style=style):
        return _print_tree(tree, program, style)


def _print_tree(
    tree: DomainNode, program: Program, style: str = "openmp"
) -> str:
    w = CodeWriter()
    if style == "openmp":
        w.emit("/* OpenMP C generated by scanning the schedule tree. */")
        w.emit("#define ceild(n, d) (((n) + (d) - 1) / (d))")
        w.emit("#define floord(n, d) ((n) / (d))")
    else:
        w.emit("/* CUDA-flavoured code generated from the schedule tree. */")
    w.emit()
    ctx = PrintContext(program, w, style)
    active = {
        s.name: [list(p.constraints) for p in s.domain.pieces]
        for s in program.statements
    }
    _walk(tree.child, active, ctx)
    return w.text()


def _walk(node: Optional[Node], active, ctx: PrintContext) -> None:
    w = ctx.writer
    if node is None or isinstance(node, LeafNode):
        for sname in active:
            _emit_call(sname, active[sname], ctx)
        return
    if isinstance(node, MarkNode):
        if node.mark == SKIPPED:
            w.emit("/* subtree skipped: fused via an extension node */")
            return
        if node.mark.startswith("kernel"):
            name = node.mark.split(":", 1)[-1]
            w.emit(f"/* __global__ {name}: tile dims -> block grid */")
        elif node.mark == "thread":
            w.emit("/* point dims -> threadIdx */")
        elif node.mark == "sync":
            _walk(node.child, active, ctx)
            w.emit("__syncthreads();" if ctx.style == "cuda" else "/* barrier */")
            return
        elif node.mark:
            w.emit(f"/* mark: {node.mark} */")
        _walk(node.child, active, ctx)
        return
    if isinstance(node, FilterNode):
        sub = {s: c for s, c in active.items() if s in node.statements}
        if sub:
            _walk(node.child, sub, ctx)
        return
    if isinstance(node, SequenceNode):
        for filt in node.filters:
            _walk(filt, active, ctx)
        return
    if isinstance(node, ExtensionNode):
        new_active = dict(active)
        for (_, sname), m in node.extension.maps.items():
            stmt = ctx.program.statement(sname)
            disjuncts = []
            for bm in m.pieces:
                rename = dict(zip(bm.space.out_dims, stmt.dims))
                disjuncts.append([c.rename(rename) for c in bm.constraints])
            new_active[sname] = disjuncts
        w.emit("/* extension: per-tile instances of "
               f"{', '.join(node.added_statements())} */")
        _walk(node.child, new_active, ctx)
        return
    if isinstance(node, BandNode):
        _emit_band(node, active, ctx)
        return
    raise TypeError(f"unexpected node {type(node).__name__}")


def _emit_band(band: BandNode, active, ctx: PrintContext) -> None:
    w = ctx.writer
    new_active = {s: [list(c) for c in d] for s, d in active.items()}
    opened = 0
    for d in range(band.n_dims):
        var = _sanitize(band.dim_names[d])
        size = None if band.tile_sizes is None else band.tile_sizes[d]
        lowers: List[str] = []
        uppers: List[str] = []
        for sname, disjuncts in new_active.items():
            if sname not in band.schedules:
                continue
            row = band.schedules[sname][d]
            keep = ctx.loop_vars + list(ctx.program.params)
            for cons in disjuncts:
                eq = Constraint.eq(LinExpr.var(var) - row)
                lo, hi = _bound_exprs(cons + [eq], var, keep)
                lowers.extend(lo)
                uppers.extend(hi)
        lo_text = _combine(_dedupe_strs(lowers), "max")
        hi_text = _combine(_dedupe_strs(uppers), "min")
        step = f" += {size}" if size else "++"
        pragma = _loop_pragma(band, d, ctx, bool(size))
        if pragma:
            w.emit(pragma)
        w.emit(f"for (int {var} = {lo_text}; {var} <= {hi_text}; {var}{step}) {{")
        w.depth += 1
        opened += 1
        ctx.loop_vars.append(var)
        kv = LinExpr.var(var)
        for sname, disjuncts in new_active.items():
            if sname not in band.schedules:
                continue
            row = band.schedules[sname][d]
            for cons in disjuncts:
                if size is None:
                    cons.append(Constraint.eq(kv - row))
                else:
                    cons.append(Constraint.le(kv, row))
                    cons.append(Constraint.lt(row, kv + size))
    _walk(band.child, new_active, ctx)
    for _ in range(opened):
        ctx.loop_vars.pop()
        w.depth -= 1
        w.emit("}")


def _loop_pragma(
    band: BandNode, d: int, ctx: PrintContext, is_tile: bool
) -> Optional[str]:
    if not band.coincident[d]:
        return None
    if ctx.style == "openmp":
        if not ctx.loop_vars:  # outermost loop only
            return "#pragma omp parallel for"
        if d == band.n_dims - 1 and not is_tile:
            return "#pragma ivdep"
        return None
    # CUDA: map the first two parallel tile dims to blocks, point dims to
    # threads (as comments; this is display code).
    if is_tile and d < 2:
        return f"/* mapped to blockIdx.{'xy'[d]} */"
    if not is_tile and d < 2:
        return f"/* mapped to threadIdx.{'xy'[d]} */"
    return None


def _emit_call(sname: str, disjuncts, ctx: PrintContext) -> None:
    w = ctx.writer
    stmt = ctx.program.statement(sname)
    for cons in disjuncts:
        # Solve for statement dims pinned by band equalities.
        solved: Dict[str, str] = {}
        guards: List[str] = []
        for c in cons:
            involved = [s for s in c.expr.symbols() if s in stmt.dims]
            if c.kind == "==" and len(involved) == 1:
                dim = involved[0]
                a = c.coeff(dim)
                rest = c.expr - LinExpr({dim: a})
                if abs(a) == 1 and dim not in solved:
                    text = render_linexpr(-rest if a == 1 else rest)
                    solved[dim] = text
        args = []
        for dim in stmt.dims:
            args.append(solved.get(dim, dim))
        unsolved = [d for d in stmt.dims if d not in solved]
        for dim in unsolved:
            guards.append(f"/* {dim} scanned by enclosing bands */")
        sym = "+=" if stmt.kind == REDUCE else "="
        lhs = f"{stmt.lhs.tensor}[{']['.join(render_linexpr(i) for i in stmt.lhs.indices)}]"
        w.emit(f"{sname}({', '.join(args)});  /* {lhs} {sym} {stmt.rhs} */")
