"""A *compilable* OpenMP C backend.

Where :mod:`repro.codegen.printer` renders display code, this backend emits
a complete, compiling C program from a schedule tree and (when a C
compiler is available) builds and runs it, exchanging tensors with Python
through raw ``float64`` files.  Exactness is guaranteed by construction,
and the loop nest carries no more checks than the schedule implies:

* a loop's bounds are the union of its members' Fourier–Motzkin bounds:
  ``min`` over members of each member's ``max`` of lower bounds, ``max``
  over members of each member's ``min`` of upper bounds (possibly
  over-approximate);
* a statement instance is guarded by the part of its constraint system
  that no enclosing loop already enforces.  A loop enforces the
  unit-coefficient bounds all of its members share; a tile loop, whose
  origin is rounded down to the tile grid, enforces its lower bounds only
  up to ``size - 1``.  Non-unit bounds, bounds only some members of a
  union loop have and FM over-approximations stay as guards, and the
  disjuncts of one statement form an ``if … else if …`` chain so an
  instance two pieces cover runs once;
* statement dimensions are recovered from the band pin equalities;
* ``main`` reads only the live-in tensors (:func:`live_in_tensors`): a
  tensor that one statement fully defines before any read of it starts
  out unread;
* tensor arrays are declared inside ``main``, where they shadow any libc
  or libm name (``gamma``, ``y1``);
* :func:`compile_and_run` builds at ``-O3`` without ``-ffast-math``, so
  floating point keeps IEEE semantics.

The round trip (generate → gcc -fopenmp → run → compare with the
interpreter) is exercised by the test suite, making this the repository's
"the generated code really runs" proof.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir import Affine, BinOp, Call, Const, Expr, Load, Program, REDUCE, TensorStore
from ..presburger import GE, BasicSet, Constraint, LinExpr, Set
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
from .printer import render_linexpr

HEADER = """\
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#define ceild(n, d) (((n) >= 0) ? (((n) + (d) - 1) / (d)) : -((-(n)) / (d)))
#define floord(n, d) (((n) >= 0) ? ((n) / (d)) : -(((-(n)) + (d) - 1) / (d)))
#define max(a, b) ((a) > (b) ? (a) : (b))
#define min(a, b) ((a) < (b) ? (a) : (b))

static double relu_fn(double x) { return x > 0 ? x : 0.0; }
static double quant_fn(double x) { return (double)((long)(x * 8.0)) / 8.0; }
static double clamp01_fn(double x) { return x < 0 ? 0 : (x > 1 ? 1 : x); }
static double safe_log(double x) { return x > 0 ? log(x) : 0.0; }
static double safe_sqrt(double x) { return x > 0 ? sqrt(x) : 0.0; }
static double sigmoid_fn(double x) { return 1.0 / (1.0 + exp(-x)); }
"""

INTRINSIC_C = {
    "relu": "relu_fn",
    "quant": "quant_fn",
    "exp": "exp",
    "log": "safe_log",
    "sqrt": "safe_sqrt",
    "abs": "fabs",
    "sigmoid": "sigmoid_fn",
    "clamp01": "clamp01_fn",
}


class CBackendError(RuntimeError):
    pass


def render_expr_c(expr: Expr, env: Mapping[str, str], program: Program) -> str:
    """Render a statement RHS as a C expression.

    ``env`` maps iterator names to C expressions (loop vars or solved
    affine forms).
    """
    if isinstance(expr, Const):
        return repr(float(expr.value))
    if isinstance(expr, Affine):
        return _linexpr_c(expr.expr, env)
    if isinstance(expr, Load):
        idx = "".join(f"[{_linexpr_c(i, env)}]" for i in expr.indices)
        return f"{expr.tensor}{idx}"
    if isinstance(expr, BinOp):
        lhs = render_expr_c(expr.lhs, env, program)
        rhs = render_expr_c(expr.rhs, env, program)
        if expr.op in ("min", "max"):
            return f"f{expr.op}({lhs}, {rhs})"
        return f"({lhs} {expr.op} {rhs})"
    if isinstance(expr, Call):
        fn = INTRINSIC_C.get(expr.fn)
        if fn is None:
            raise CBackendError(f"no C lowering for intrinsic {expr.fn!r}")
        args = ", ".join(render_expr_c(a, env, program) for a in expr.args)
        return f"{fn}({args})"
    raise CBackendError(f"cannot lower {type(expr).__name__} to C")


def _linexpr_c(e: LinExpr, env: Mapping[str, str]) -> str:
    parts: List[str] = []
    for sym in sorted(e.coeffs):
        c = e.coeffs[sym]
        ref = env.get(sym, sym)
        term = f"({ref})" if not ref.isidentifier() else ref
        if c == 1:
            parts.append(f"+ {term}")
        elif c == -1:
            parts.append(f"- {term}")
        elif c > 0:
            parts.append(f"+ {c} * {term}")
        else:
            parts.append(f"- {-c} * {term}")
    if e.const or not parts:
        parts.append(f"+ {e.const}" if e.const >= 0 else f"- {-e.const}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else f"-{text[2:]}" if text.startswith("- ") else text


def generate_c(
    tree: DomainNode,
    program: Program,
    params: Optional[Mapping[str, int]] = None,
) -> str:
    """A complete C program implementing the tree's schedule.

    The live-in tensors (:func:`live_in_tensors`) are read from
    ``<name>.bin`` (row-major float64) and live-out tensors are written
    back to ``<name>.out.bin``.
    """
    from .. import obs

    with obs.span("codegen.generate_c"):
        return _generate_c(tree, program, params)


def _generate_c(
    tree: DomainNode,
    program: Program,
    params: Optional[Mapping[str, int]] = None,
) -> str:
    params = dict(program.params, **(params or {}))
    lines: List[str] = [HEADER]
    lines.append("static void read_tensor(const char *path, double *buf, long n) {")
    lines.append('  FILE *f = fopen(path, "rb");')
    lines.append('  if (!f) { fprintf(stderr, "missing %s\\n", path); exit(2); }')
    lines.append("  if (fread(buf, sizeof(double), n, f) != (size_t)n) exit(3);")
    lines.append("  fclose(f);")
    lines.append("}")
    lines.append("static void write_tensor(const char *path, double *buf, long n) {")
    lines.append('  FILE *f = fopen(path, "wb");')
    lines.append("  fwrite(buf, sizeof(double), n, f);")
    lines.append("  fclose(f);")
    lines.append("}")
    lines.append("")
    lines.append("int main(void) {")

    # Tensor declarations (static arrays; sizes are concrete).  Block scope
    # lets a tensor share its name with a libc/libm symbol.
    shapes: Dict[str, Tuple[int, ...]] = {
        name: t.concrete_shape(params) for name, t in program.tensors.items()
    }
    for name, shape in shapes.items():
        dims = "".join(f"[{e}]" for e in shape)
        lines.append(f"  static double {name}{dims};")
    lines.append("")
    for name in live_in_tensors(program, params):
        n = int(np.prod(shapes[name]))
        lines.append(
            f'  read_tensor("{name}.bin", (double *){name}, {n}L);'
        )
    lines.append("")

    body = _CBody(program, params)
    active = {
        s.name: [
            [c.substitute(params) for c in p.constraints]
            for p in s.domain.fix_params(params).pieces
        ]
        for s in program.statements
    }
    body.walk(tree.child, active, [], 1)
    lines.extend(body.lines)

    lines.append("")
    for t in program.liveout:
        n = int(np.prod(shapes[t]))
        lines.append(
            f'  write_tensor("{t}.out.bin", (double *){t}, {n}L);'
        )
    lines.append("  return 0;")
    lines.append("}")
    return "\n".join(lines)


def live_in_tensors(
    program: Program, params: Optional[Mapping[str, int]] = None
) -> Tuple[str, ...]:
    """The tensors whose contents before the kernel runs can matter.

    A tensor ``T`` is left out only when exactly one statement ``P`` writes
    it, ``P`` does not read it, every reader of ``T`` comes after ``P`` in
    program order and reads only elements ``P`` writes, and ``P`` writes
    all of ``T`` if ``T`` is live-out.  Any legal schedule then runs the
    write of every element before its reads, so the initial contents are
    never observed.
    """
    params = dict(program.params, **(params or {}))
    return tuple(t for t in program.tensors if not _defined_before_use(program, t, params))


def _defined_before_use(program: Program, tensor: str, params: Mapping[str, int]) -> bool:
    writers = program.writers_of(tensor)
    if len(writers) != 1 or tensor in writers[0].tensors_read():
        return False
    writer = writers[0]
    order = program.statement_index(writer.name)
    written = writer.write_relation().fix_params(params).range()
    for reader in program.readers_of(tensor):
        if program.statement_index(reader.name) < order:
            return False
        read = reader.read_relations()[(reader.name, tensor)].fix_params(params).range()
        read = read.rename_dims(dict(zip(read.space.dims, written.space.dims)))
        if not read.is_subset(written):
            return False
    if tensor in program.liveout:
        box = [
            c
            for d, extent in zip(written.space.dims, program.tensors[tensor].concrete_shape(params))
            for c in (Constraint.ge(LinExpr.var(d)), Constraint.lt(LinExpr.var(d), extent))
        ]
        if not Set.from_basic(BasicSet(written.space, box)).is_subset(written):
            return False
    return True


class _CBody:
    """Tree walker emitting exact loop nests with residual guards."""

    def __init__(self, program: Program, params: Mapping[str, int]):
        self.program = program
        self.params = dict(params)
        self.lines: List[str] = []
        self.counter = 0
        self.loop_vars: List[str] = []
        # band dim name -> the C loop variable that carries it (extension
        # relations refer to enclosing bands by their dim names)
        self.band_map: Dict[str, str] = {}
        # what the enclosing loops' bounds enforce: ``L + k >= 0`` for each
        # linear part L (over loop vars) -> the constant k
        self.enforced: Dict[tuple, int] = {}

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"c{self.counter}_{_sanitize(base)}"

    # -- walking -----------------------------------------------------------

    def walk(self, node: Optional[Node], active, path: List[str], depth: int) -> None:
        if node is None or isinstance(node, LeafNode):
            for sname, disjuncts in active.items():
                self._emit_statement(sname, disjuncts, depth)
            return
        if isinstance(node, MarkNode):
            if node.mark == SKIPPED:
                return
            self.walk(node.child, active, path, depth)
            return
        if isinstance(node, FilterNode):
            sub = {s: c for s, c in active.items() if s in node.statements}
            if sub:
                self.walk(node.child, sub, path, depth)
            return
        if isinstance(node, SequenceNode):
            for filt in node.filters:
                self.walk(filt, active, path, depth)
            return
        if isinstance(node, ExtensionNode):
            new_active = dict(active)
            for (_, sname), m in node.extension.maps.items():
                stmt = self.program.statement(sname)
                disjuncts = []
                for bm in m.fix_params(self.params).pieces:
                    rename = dict(zip(bm.space.out_dims, stmt.dims))
                    for in_dim in bm.space.in_dims:
                        if in_dim not in self.band_map:
                            raise CBackendError(
                                f"extension tile dim {in_dim!r} is not an "
                                "enclosing band dimension"
                            )
                        rename[in_dim] = self.band_map[in_dim]
                    disjuncts.append([c.rename(rename) for c in bm.constraints])
                new_active[sname] = disjuncts
            self.walk(node.child, new_active, path, depth)
            return
        if isinstance(node, BandNode):
            self._emit_band(node, active, path, depth)
            return
        raise CBackendError(f"unexpected node {type(node).__name__}")

    def _emit_band(self, band: BandNode, active, path, depth) -> None:
        new_active = {s: [list(c) for c in d] for s, d in active.items()}
        opened: List[str] = []
        d0 = depth
        saved_band_map = dict(self.band_map)
        saved_enforced = self.enforced
        for d in range(band.n_dims):
            var = self.fresh(band.dim_names[d])
            self.band_map[band.dim_names[d]] = var
            size = None if band.tile_sizes is None else band.tile_sizes[d]
            members: List[Tuple[List[_Bound], List[_Bound]]] = []
            for sname, disjuncts in new_active.items():
                if sname not in band.schedules:
                    continue
                row = band.schedules[sname][d]
                for cons in disjuncts:
                    eq = Constraint.eq(LinExpr.var(var) - row)
                    bounds = _member_bounds(cons + [eq], var, self.loop_vars)
                    if bounds is None:
                        continue  # the member has no instances
                    if not bounds[0] or not bounds[1]:
                        raise CBackendError(
                            f"unbounded band dimension {band.dim_names[d]}"
                        )
                    members.append(bounds)
            if not members:
                raise CBackendError(
                    f"unbounded band dimension {band.dim_names[d]}"
                )
            # The loop runs over the union of its members' ranges, and so
            # enforces only the bounds every member has.
            lo_text = _combine_c(
                list(dict.fromkeys(_combine_c([t for t, _ in lo], "max") for lo, _ in members)),
                "min",
            )
            hi_text = _combine_c(
                list(dict.fromkeys(_combine_c([t for t, _ in hi], "min") for _, hi in members)),
                "max",
            )
            init = lo_text
            shared_lo = _shared([lo for lo, _ in members])
            if size is not None:
                # align tile origins to the global grid: the origin is then
                # only guaranteed to be above each lower bound minus size - 1
                init = f"floord({lo_text}, {size}) * {size}"
                shared_lo = {k: v + size - 1 for k, v in shared_lo.items()}
            self.enforced = {
                **self.enforced, **shared_lo, **_shared([hi for _, hi in members])
            }
            step = f" += {size}" if size else "++"
            pragma = None
            if band.coincident[d] and not self.loop_vars:
                pragma = "#pragma omp parallel for"
            if pragma:
                self.emit(d0, pragma)
            self.emit(
                d0,
                f"for (long {var} = {init}; {var} <= {hi_text}; {var}{step}) {{",
            )
            self.loop_vars.append(var)
            opened.append(var)
            d0 += 1
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
        self.walk(band.child, new_active, path, d0)
        self.band_map = saved_band_map
        self.enforced = saved_enforced
        for var in reversed(opened):
            self.loop_vars.pop()
            d0 -= 1
            self.emit(d0, "}")

    def _emit_statement(
        self, sname: str, disjuncts: Sequence[Sequence[Constraint]], depth: int
    ) -> None:
        """One statement's disjuncts at a leaf.

        Consecutive disjuncts that execute the same instance form one
        ``if … else if …`` chain, so an instance covered by two overlapping
        pieces runs once.  A disjunct with no residual guard ends its chain.
        """
        chain_text: Optional[str] = None
        closed = False
        for cons in disjuncts:
            lowered = self._lower_disjunct(sname, cons)
            if lowered is None:
                continue  # statically infeasible piece
            guards, text = lowered
            if text != chain_text:
                chain_text, closed = text, False
                self.emit(depth, f"if ({guards}) {text}" if guards else text)
            elif not closed:
                self.emit(depth, f"else if ({guards}) {text}" if guards else f"else {text}")
            closed = closed or not guards

    def _lower_disjunct(
        self, sname: str, cons: Sequence[Constraint]
    ) -> Optional[Tuple[str, str]]:
        """The residual guard and statement text of one disjunct, or None
        when the disjunct is statically infeasible."""
        stmt = self.program.statement(sname)
        solved: Dict[str, LinExpr] = {}
        # Iteratively solve pin equalities (a dim may be defined via another
        # solved dim, e.g. upsample's h through 2h + dh == k).
        remaining = list(cons)
        changed = True
        while changed:
            changed = False
            for c in remaining:
                if c.kind != "==":
                    continue
                unsolved = [
                    s
                    for s in c.expr.symbols()
                    if s in stmt.dims and s not in solved
                ]
                if len(unsolved) != 1:
                    continue
                dim = unsolved[0]
                a = c.coeff(dim)
                if abs(a) != 1:
                    continue
                rest = c.expr - LinExpr({dim: a})
                rest = rest.substitute(
                    {k: v for k, v in solved.items()}
                )
                solved[dim] = (-rest) if a == 1 else rest
                changed = True
        missing = [d for d in stmt.dims if d not in solved]
        if missing:
            raise CBackendError(
                f"cannot solve dims {missing} of {sname} from band equalities"
            )
        env = {d: _linexpr_c(e, {}) for d, e in solved.items()}
        guards: List[str] = []
        for c in cons:
            c = c.substitute(solved)
            if c.expr.is_constant():
                if c.is_trivially_false():
                    return None
                continue
            if self._is_enforced(c):
                continue
            text = _linexpr_c(c.expr, {})
            guards.append(f"({text}) {'==' if c.kind == '==' else '>='} 0")
        lhs_idx = "".join(f"[{_linexpr_c(i.substitute(solved), {})}]" for i in stmt.lhs.indices)
        rhs = render_expr_c(stmt.rhs, env, self.program)
        op = "+=" if stmt.kind == REDUCE else "="
        return " && ".join(dict.fromkeys(guards)), f"{stmt.lhs.tensor}{lhs_idx} {op} {rhs};"

    def _is_enforced(self, c: Constraint) -> bool:
        if c.kind == GE:
            return self._implied(c.expr)
        return self._implied(c.expr) and self._implied(-c.expr)

    def _implied(self, expr: LinExpr) -> bool:
        """Whether an enclosing loop enforces ``expr >= 0``."""
        k = self.enforced.get(expr.terms)
        return k is not None and k <= expr.const


#: One loop bound of a member: its C text, and the constraint (over the
#: loop var and outer loop vars) that the bound enforces when it is a
#: unit-coefficient bound, else None.
_Bound = Tuple[str, Optional[Constraint]]


def _member_bounds(
    constraints: Sequence[Constraint], var: str, keep: Sequence[str]
) -> Optional[Tuple[List[_Bound], List[_Bound]]]:
    """Lower and upper bounds of ``var`` in one member's constraint system.

    ``keep`` lists the outer loop vars; every other symbol is projected
    away (Fourier–Motzkin).  Returns None when the projection is
    infeasible, i.e. the member has no instances.
    """
    syms = set()
    for c in constraints:
        syms.update(c.expr.symbols())
    # Sorted, not set order: the FM elimination order decides which derived
    # constraints survive and hence the operand order of the emitted
    # max()/min()/ceild()/floord(); it must not depend on PYTHONHASHSEED.
    eliminate = sorted(s for s in syms if s != var and s not in keep)
    lowers: Dict[str, Optional[Constraint]] = {}
    uppers: Dict[str, Optional[Constraint]] = {}
    for c in eliminate_symbols(list(constraints), eliminate):
        a = c.coeff(var)
        if a == 0:
            if c.is_trivially_false():
                return None
            continue
        rest = c.expr - LinExpr({var: a})
        if c.kind == "==":
            if abs(a) == 1:
                # var == -a * rest
                text = render_linexpr(-rest * a)
                lowers.setdefault(text, Constraint(c.expr * a, GE))
                uppers.setdefault(text, Constraint(c.expr * -a, GE))
            else:
                text = render_linexpr(-rest)
                lowers.setdefault(f"({text})/{a}", None)
                uppers.setdefault(f"({text})/{a}", None)
        elif a > 0:
            # a*var + rest >= 0  ->  var >= ceild(-rest, a)
            text = render_linexpr(-rest)
            lowers.setdefault(text if a == 1 else f"ceild({text}, {a})", c if a == 1 else None)
        else:
            text = render_linexpr(rest)
            uppers.setdefault(text if a == -1 else f"floord({text}, {-a})", c if a == -1 else None)
    return list(lowers.items()), list(uppers.items())


def _shared(bound_lists: Sequence[List[_Bound]]) -> Dict[tuple, int]:
    """The bounds that every member's list has, as linear part -> constant.

    A member may bound the same linear part with several constants; its
    tightest (smallest) one applies.  The union loop then enforces the
    weakest (largest) of the members' constants.
    """
    shared: Optional[Dict[tuple, int]] = None
    for bounds in bound_lists:
        tightest: Dict[tuple, int] = {}
        for _, c in bounds:
            if c is not None:
                key, k = c.expr.terms, c.expr.const
                tightest[key] = min(tightest.get(key, k), k)
        if shared is None:
            shared = tightest
        else:
            shared = {key: max(k, tightest[key]) for key, k in shared.items() if key in tightest}
    return shared or {}


def _combine_c(parts: List[str], fn: str) -> str:
    out = parts[0]
    for p in parts[1:]:
        out = f"{fn}({out}, {p})"
    return out


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


# ---------------------------------------------------------------------------
# compile & run


def compiler_available() -> bool:
    return shutil.which("gcc") is not None or shutil.which("cc") is not None


def compile_and_run(
    tree: DomainNode,
    program: Program,
    store: TensorStore,
    params: Optional[Mapping[str, int]] = None,
    keep_dir: Optional[str] = None,
    openmp: bool = True,
) -> Dict[str, np.ndarray]:
    """Generate, compile (gcc -O3 [-fopenmp]), execute, collect live-outs.

    ``store`` provides the input tensor contents; the returned dict maps
    live-out tensor names to the arrays the C program produced.  Tests
    pass ``openmp=False`` for strictly deterministic comparisons (halo
    re-writes of identical values are benign races under OpenMP).
    """
    params = dict(program.params, **(params or {}))
    source = generate_c(tree, program, params)
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise CBackendError("no C compiler available")
    workdir = keep_dir or tempfile.mkdtemp(prefix="repro_c_")
    os.makedirs(workdir, exist_ok=True)
    src_path = os.path.join(workdir, "kernel.c")
    with open(src_path, "w") as f:
        f.write(source)
    exe = os.path.join(workdir, "kernel")
    cmd = [cc, "-O3", src_path, "-o", exe, "-lm"]
    if openmp:
        cmd.insert(2, "-fopenmp")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CBackendError(f"compilation failed:\n{proc.stderr}\n--- source ---\n{source}")
    for name in live_in_tensors(program, params):
        store[name].astype(np.float64).tofile(os.path.join(workdir, f"{name}.bin"))
    proc = subprocess.run([exe], cwd=workdir, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CBackendError(f"execution failed ({proc.returncode}): {proc.stderr}")
    out: Dict[str, np.ndarray] = {}
    for t in program.liveout:
        shape = program.tensors[t].concrete_shape(params)
        out[t] = np.fromfile(
            os.path.join(workdir, f"{t}.out.bin"), dtype=np.float64
        ).reshape(shape)
    if keep_dir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return out
