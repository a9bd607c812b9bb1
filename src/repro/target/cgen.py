"""Rendering the abstract target program as C with channel directives.

The 1991 authors' second hand translation targeted C with communication
directives on the Symult s2010; this renderer produces the same flavour
mechanically.  Unlike the occam renderer it lowers every scalar closed form
(count, soak, drain, Eq. 10) *and* every component of the repeater start
points into guarded flat C functions, so the emitted file is complete
modulo the channel primitives (``chan_send`` / ``chan_recv``), which the
target machine's communication library provides.  It declares only the loop
indices the basic statement reads, so it compiles under
``-std=c99 -Wall -Wshadow -Werror``.
"""

from __future__ import annotations

from fractions import Fraction

from repro.lang.expr import BinOp, Const, IndexExpr, StreamRead
from repro.symbolic.affine import Affine
from repro.symbolic.piecewise import Piecewise
from repro.target.ast import (
    ComputeLoop,
    LoadPhase,
    PassPhase,
    RecoverPhase,
    TargetProgram,
)
from repro.target.pretty import format_repeater


def _c_num(value) -> str:
    if value.denominator == 1:
        return str(int(value))
    return f"{value.numerator}/{value.denominator}"


def _c_affine(a: Affine) -> str:
    parts = []
    for sym in sorted(a.coeffs):
        c = a.coeffs[sym]
        if c == 1:
            parts.append(sym)
        elif c.denominator == 1:
            parts.append(f"{int(c)}*{sym}")
        else:
            parts.append(f"{c.numerator}*{sym}/{c.denominator}")
    if a.const != 0 or not parts:
        parts.append(_c_num(a.const))
    return " + ".join(parts)


def _c_guard(guard) -> str:
    if guard.is_true:
        return "1"
    return " && ".join(f"({_c_affine(c.expr)}) >= 0" for c in guard.constraints)


def _c_scalar_fn(name: str, pw, params: str) -> list[str]:
    """A flat guarded C function for a scalar piecewise closed form."""
    lines = [f"static long {name}({params}) {{"]
    lines.extend(_c_scalar_body(pw, 1))
    lines.append("}")
    return lines


def _c_scalar_body(value, depth: int) -> list[str]:
    pad = "    " * depth
    if value is None:
        return [f"{pad}return NULLV;"]
    if isinstance(value, Affine):
        return [f"{pad}return {_c_affine(value)};"]
    if not isinstance(value, Piecewise):  # plain number
        return [f"{pad}return {_c_num(value)};"]
    out: list[str] = []
    for case in value.cases:
        out.append(f"{pad}if ({_c_guard(case.guard)}) {{")
        out.extend(_c_scalar_body(case.value, depth + 1))
        out.append(f"{pad}}}")
    if value.has_default:
        out.extend(_c_scalar_body(value.default, depth))
    else:
        out.append(f"{pad}return NULLV; /* no alternative holds */")
    return out


def _c_expr(expr) -> str:
    if isinstance(expr, Const):
        return _c_num(expr.value) if hasattr(expr.value, "denominator") else str(expr.value)
    if isinstance(expr, StreamRead):
        return f"v_{expr.name}"
    if isinstance(expr, IndexExpr):
        return f"({_c_affine(expr.affine)})"
    if isinstance(expr, BinOp):
        left, right = _c_expr(expr.left), _c_expr(expr.right)
        if expr.op == "min":
            return f"(({left}) < ({right}) ? ({left}) : ({right}))"
        if expr.op == "max":
            return f"(({left}) > ({right}) ? ({left}) : ({right}))"
        return f"({left} {expr.op} {right})"
    raise TypeError(f"cannot render {expr!r}")


def render_c(tp: TargetProgram) -> str:
    coords = tp.coords
    sizes = tp.sizes
    params = ", ".join(f"long {v}" for v in (*coords, *sizes))
    args = ", ".join((*coords, *sizes))
    streams = tp.stream_names

    lines: list[str] = [
        f"/* C + channel-directive flavour of '{tp.name}' on array "
        f"'{tp.array_name}'.",
        f" * process space PS: ({', '.join(str(a) for a in tp.ps_min)}) .. "
        f"({', '.join(str(a) for a in tp.ps_max)})",
        " * chan_send/chan_recv are the target machine's channel directives.",
        " */",
        "#include <limits.h>",
        "",
        "typedef long value_t;",
        "typedef struct channel Channel;",
        "extern value_t chan_recv(Channel *c);",
        "extern void chan_send(Channel *c, value_t v);",
        "#define NULLV LONG_MIN  /* the paper's 'null' */",
        "",
        "/* ---- closed forms, lowered from the piecewise-affine layer ---- */",
    ]
    loop = next(p for p in tp.compute.phases if isinstance(p, ComputeLoop))
    lines.extend(_c_scalar_fn("count_steps", _count_of(loop), params))
    for axis, _ in _read_indices(loop):
        component = loop.repeater.first.map_values(
            lambda v, axis=axis: None if v is None else v[axis]
        )
        lines.extend(_c_scalar_fn(f"first_{axis}", component, params))
    for phase in tp.compute.phases:
        if isinstance(phase, LoadPhase):
            lines.extend(_c_scalar_fn(f"{phase.stream}_load_passes", phase.passes, params))
        elif isinstance(phase, PassPhase):
            for stream, amount in phase.passes:
                lines.extend(_c_scalar_fn(f"{stream}_{phase.kind}", amount, params))
        elif isinstance(phase, RecoverPhase):
            lines.extend(_c_scalar_fn(f"{phase.stream}_recover_passes", phase.passes, params))
    for stream, amount in tp.buffer.passes:
        lines.extend(_c_scalar_fn(f"{stream}_pass_amount", amount, params))
    lines.append("")
    lines.append("static long amt(long v) { return v == NULLV ? 0 : v; }")
    lines.append("")
    lines.append(_PASS_ROUND_ROBIN)
    lines.append("")
    # ---------------------------------------------------------- compute --
    chan_params = ", ".join(f"Channel *{s}_in, Channel *{s}_out" for s in streams)
    lines.append(f"void compute({params}, {chan_params}) {{")
    decls = ", ".join(f"v_{s}" for s in streams)
    lines.append(f"    value_t {decls};")
    for phase in tp.compute.phases:
        lines.extend(_c_phase(phase, args))
    lines.append("}")
    lines.append("")
    # --------------------------------------------------------------- i/o --
    for io in tp.inputs:
        s = io.stream
        lines.append(f"/* feeds a pipe head; repeater {format_repeater(io.repeater)} */")
        lines.append(
            f"void input_{s}({params}, long count, Channel *out,"
            " value_t (*next)(long)) {"
        )
        lines.append("    for (long k = 0; k < count; ++k) chan_send(out, next(k));")
        lines.append("}")
    for io in tp.outputs:
        s = io.stream
        lines.append(f"/* drains a pipe tail; repeater {format_repeater(io.repeater)} */")
        lines.append(
            f"void output_{s}({params}, long count, Channel *in,"
            " void (*store)(long, value_t)) {"
        )
        lines.append("    for (long k = 0; k < count; ++k) store(k, chan_recv(in));")
        lines.append("}")
    lines.append("")
    # ------------------------------------------------------------ buffer --
    buf_chans = ", ".join(
        f"Channel *{s}_in, Channel *{s}_out" for s, _ in tp.buffer.passes
    )
    lines.append("/* PS \\ CS: the Eq. 10 pass loops, round-robin */")
    lines.append(f"void buffer_node({params}, {buf_chans}) {{")
    lines.append(_c_passes(args, [(s, f"{s}_pass_amount") for s, _ in tp.buffer.passes]))
    lines.append("}")
    return "\n".join(lines)


#: the C's one pass loop, in the engines' order (the target's PassPhase)
_PASS_ROUND_ROBIN = """\
/* round r passes one element of every stream whose count exceeds r */
static void pass_round_robin(int m, const long counts[], Channel *ins[], Channel *outs[]) {
    for (long r = 0, more = 1; more; ++r) {
        more = 0;
        for (int i = 0; i < m; ++i)
            if (counts[i] > r) { chan_send(outs[i], chan_recv(ins[i])); more = 1; }
    }
}"""


def _c_passes(args: str, passes: list[tuple[str, str]]) -> str:
    """One ``pass_round_robin`` call over ``(stream, amount function)``."""
    counts = ", ".join(f"amt({fn}({args}))" for _, fn in passes)
    ins, outs = (", ".join(f"{s}_{end}" for s, _ in passes) for end in ("in", "out"))
    return (f"    pass_round_robin({len(passes)}, (long[]){{{counts}}},"
            f" (Channel *[]){{{ins}}}, (Channel *[]){{{outs}}});")


def _index_reads(expr) -> frozenset[str]:
    """The symbols (loop indices, sizes) a value expression reads."""
    if isinstance(expr, IndexExpr):
        return expr.affine.free_symbols
    if isinstance(expr, BinOp):
        return _index_reads(expr.left) | _index_reads(expr.right)
    return frozenset()


def _read_indices(loop: ComputeLoop) -> list[tuple[int, str]]:
    """``(axis, name)`` of each loop index the basic statement reads: only
    these get a C variable (and a ``first_<axis>`` start function)."""
    reads: set[str] = set()
    for branch in loop.body.branches:
        if branch.condition is not None:
            reads |= branch.condition.affine.free_symbols
        for a in branch.assigns:
            reads |= _index_reads(a.expr)
    return [(axis, name) for axis, name in enumerate(loop.indices) if name in reads]


def _count_of(loop: ComputeLoop):
    """The step count (Eq. 4) -- recovered as ((last - first) // inc) + 1
    is already folded into the compiled program's ``count``; the target AST
    carries first/last, so derive a scalar from the non-null axis."""
    # Use the first axis with a non-zero increment to express the count.
    inc = loop.repeater.increment
    axis = next(i for i, c in enumerate(inc) if c != 0)
    step = inc[axis]

    def scalarize(first_v, last_v):
        if first_v is None or last_v is None:
            return None
        return (last_v[axis] - first_v[axis]) * Fraction(1, int(step)) + 1

    first, last = loop.repeater.first, loop.repeater.last

    def map_first(fv):
        if fv is None:
            return None
        return last.map_values(lambda lv: scalarize(fv, lv))

    return first.map_values(map_first)


def _c_phase(phase, args: str) -> list[str]:
    pad = "    "
    if isinstance(phase, LoadPhase):
        s = phase.stream
        return [
            f"{pad}/* load {s}, then forward the loading passes */",
            f"{pad}v_{s} = chan_recv({s}_in);",
            _c_passes(args, [(s, f"{s}_load_passes")]),
        ]
    if isinstance(phase, PassPhase):
        passes = [(s, f"{s}_{phase.kind}") for s, _ in phase.passes]
        return [_c_passes(args, passes)] if passes else []
    if isinstance(phase, ComputeLoop):
        out = [f"{pad}/* repeater {format_repeater(phase.repeater)} */"]
        indices = _read_indices(phase)
        for axis, name in indices:
            out.append(f"{pad}long {name} = first_{axis}({args});")
        # the step counter must not shadow an index the body reads
        taken = {name for _, name in indices} | set(args.split(", "))
        steps = "steps"
        while steps in taken:
            steps += "_"
        out.append(
            f"{pad}for (long {steps} = count_steps({args}); {steps} > 0; --{steps}) {{"
        )
        inner = f"{pad}    "
        for s in phase.recv_streams:
            out.append(f"{inner}v_{s} = chan_recv({s}_in);")
        for branch in phase.body.branches:
            stmts = [f"v_{a.stream} = {_c_expr(a.expr)};" for a in branch.assigns]
            if branch.condition is None:
                out.extend(f"{inner}{s}" for s in stmts)
            else:
                cond = branch.condition
                rel = cond.relation
                out.append(f"{inner}if (({_c_affine(cond.affine)}) {rel} 0) {{")
                out.extend(f"{inner}    {s}" for s in stmts)
                out.append(f"{inner}}}")
        for s in phase.send_streams:
            out.append(f"{inner}chan_send({s}_out, v_{s});")
        for axis, name in indices:
            inc = phase.repeater.increment[axis]
            if inc != 0:
                out.append(f"{inner}{name} += {inc};")
        out.append(f"{pad}}}")
        return out
    if isinstance(phase, RecoverPhase):
        s = phase.stream
        return [
            _c_passes(args, [(s, f"{s}_recover_passes")]),
            f"{pad}chan_send({s}_out, v_{s});",
        ]
    raise TypeError(f"unknown phase {phase!r}")
