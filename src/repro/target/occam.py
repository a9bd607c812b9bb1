"""Rendering the abstract target program in an occam flavour.

The 1991 authors hand-translated their generated programs to occam for the
transputer experiments; this renderer performs the same translation
mechanically.  Symbolic per-process amounts (soak/drain/step counts) become
``VAL INT`` parameters that the surrounding harness computes from the
closed forms -- each is annotated with its ``if .. [] .. fi`` form, so the
output stays a faithful, readable record of the derivation.
"""

from __future__ import annotations

from repro.target.ast import (
    ComputeLoop,
    LoadPhase,
    PassPhase,
    RecoverPhase,
    TargetProgram,
)
from repro.target.pretty import format_piecewise, format_repeater


def _occam_expr(expr) -> str:
    from repro.lang.expr import BinOp, Const, IndexExpr, StreamRead

    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, StreamRead):
        return f"v.{expr.name}"
    if isinstance(expr, IndexExpr):
        return f"({expr.affine})"
    if isinstance(expr, BinOp):
        left, right = _occam_expr(expr.left), _occam_expr(expr.right)
        if expr.op in ("min", "max"):
            return f"{expr.op.upper()} ({left}, {right})"
        return f"({left} {expr.op} {right})"
    raise TypeError(f"cannot render {expr!r}")


def render_occam(tp: TargetProgram) -> str:
    coords = ", ".join(tp.coords)
    streams = tp.stream_names
    lines: list[str] = [
        f"-- occam flavour of '{tp.name}' on array '{tp.array_name}'",
        f"-- process space PS: {tuple(str(a) for a in tp.ps_min)} .. "
        f"{tuple(str(a) for a in tp.ps_max)}",
        "",
        "PROC pass.elems (VAL INT count, CHAN OF INT c.in, c.out)",
        "  INT v :",
        "  SEQ k = 0 FOR count",
        "    SEQ",
        "      c.in ? v",
        "      c.out ! v",
        ":",
        "",
    ]
    # ---------------------------------------------------------- compute --
    chan_params = ", ".join(f"{s}.in, {s}.out" for s in streams)
    amount_params = ", ".join(f"{s}.soak, {s}.drain" for s in streams)
    lines.append(f"PROC compute (VAL INT {coords}, steps, {amount_params},")
    lines.append(f"              CHAN OF INT {chan_params})")
    decls = ", ".join(f"v.{s}" for s in streams)
    lines.append(f"  INT {decls} :")
    lines.append("  SEQ")
    for phase in tp.compute.phases:
        lines.extend(_occam_phase(phase))
    lines.append(":")
    lines.append("")
    # --------------------------------------------------------------- i/o --
    for io in tp.inputs:
        lines.append(
            f"PROC input.{io.stream} (VAL INT count, CHAN OF INT out)"
            f"  -- repeater {format_repeater(io.repeater)}"
        )
        lines.append("  SEQ k = 0 FOR count")
        lines.append(f"    out ! next.element.of.{io.stream} (k)")
        lines.append(":")
    lines.append("")
    for io in tp.outputs:
        lines.append(
            f"PROC output.{io.stream} (VAL INT count, CHAN OF INT in)"
            f"  -- repeater {format_repeater(io.repeater)}"
        )
        lines.append("  INT v :")
        lines.append("  SEQ k = 0 FOR count")
        lines.append("    SEQ")
        lines.append("      in ? v")
        lines.append(f"      store.element.of.{io.stream} (k, v)")
        lines.append(":")
    lines.append("")
    # ------------------------------------------------------------ buffer --
    buf_chans = ", ".join(f"{s}.in, {s}.out" for s, _ in tp.buffer.passes)
    buf_counts = ", ".join(f"{s}.amount" for s, _ in tp.buffer.passes)
    lines.append(f"PROC buffer (VAL INT {buf_counts}, CHAN OF INT {buf_chans})")
    lines.extend(_par_pass_elems("  ", "amount", tp.buffer.passes))
    lines.append(":")
    lines.append("")
    # --------------------------------------------------------- top level --
    lines.append("-- the array: computation processes over CS, buffers over")
    lines.append("-- PS \\ CS, i/o processes on the pipe boundaries")
    lines.append("PAR")
    rep = "  ".join(f"PAR {c} = ps.min FOR ps.size" for c in tp.coords)
    lines.append(f"  {rep}")
    args = ", ".join(tp.coords)
    lines.append(f"    compute ({args}, ...)  -- or buffer (...) outside CS")
    for io in tp.inputs:
        lines.append(f"  input.{io.stream} (...)")
    for io in tp.outputs:
        lines.append(f"  output.{io.stream} (...)")
    return "\n".join(lines)


def _par_pass_elems(pad: str, count: str, passes) -> list[str]:
    """A ``PAR`` of ``pass.elems (<stream>.<count>, ..)`` per stream."""
    return [f"{pad}PAR"] + [
        f"{pad}  pass.elems ({s}.{count}, {s}.in, {s}.out)"
        f"  -- {format_piecewise(amount)}"
        for s, amount in passes
    ]


def _occam_phase(phase) -> list[str]:
    pad = "    "
    if isinstance(phase, LoadPhase):
        s = phase.stream
        return [
            f"{pad}-- load {s}; loading passes = {format_piecewise(phase.passes)}",
            f"{pad}{s}.in ? v.{s}",
            f"{pad}pass.elems ({s}.drain, {s}.in, {s}.out)",
        ]
    if isinstance(phase, PassPhase):
        return _par_pass_elems(pad, phase.kind, phase.passes) if phase.passes else []
    if isinstance(phase, ComputeLoop):
        out = [f"{pad}-- repeater {format_repeater(phase.repeater)}"]
        out.append(f"{pad}SEQ k = 0 FOR steps")
        out.append(f"{pad}  SEQ")
        inner = f"{pad}    "
        if phase.recv_streams:
            out.append(f"{inner}PAR")
            for s in phase.recv_streams:
                out.append(f"{inner}  {s}.in ? v.{s}")
        for branch in phase.body.branches:
            stmts = [
                f"v.{a.stream} := {_occam_expr(a.expr)}" for a in branch.assigns
            ]
            if branch.condition is None:
                out.extend(f"{inner}{s}" for s in stmts)
            else:
                cond = branch.condition
                out.append(f"{inner}IF")
                out.append(f"{inner}  ({cond.affine}) {cond.relation} 0")
                out.append(f"{inner}    SEQ")
                out.extend(f"{inner}      {s}" for s in stmts)
                out.append(f"{inner}  TRUE")
                out.append(f"{inner}    SKIP")
        if phase.send_streams:
            out.append(f"{inner}PAR")
            for s in phase.send_streams:
                out.append(f"{inner}  {s}.out ! v.{s}")
        return out
    if isinstance(phase, RecoverPhase):
        s = phase.stream
        return [
            f"{pad}-- recover {s}; recovery passes = {format_piecewise(phase.passes)}",
            f"{pad}pass.elems ({s}.soak, {s}.in, {s}.out)",
            f"{pad}{s}.out ! v.{s}",
        ]
    raise TypeError(f"unknown phase {phase!r}")
