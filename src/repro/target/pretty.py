"""Rendering the abstract target program in the paper's notation.

The output mirrors the generated programs of Appendices D and E: a ``par``
of computation processes (a ``parfor`` over the process space), boundary
input/output processes, and buffer processes, with repeaters written
``{first last increment}`` and case analyses written ``if G -> e [] .. fi``.
"""

from __future__ import annotations

from repro.symbolic.affine import AffineVec
from repro.symbolic.piecewise import Piecewise
from repro.target.ast import (
    ComputeLoop,
    LoadPhase,
    PassPhase,
    RecoverPhase,
    TargetProgram,
    TargetRepeater,
)


def _leaf(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, Piecewise):
        return format_piecewise(value)
    if isinstance(value, AffineVec):
        return "(" + ", ".join(str(a) for a in value) + ")"
    return str(value)


def format_piecewise(pw: Piecewise) -> str:
    """One-line ``if G0 -> e0 [] G1 -> e1 [] else -> null fi``."""
    collapsed = pw.collapse()
    if not isinstance(collapsed, Piecewise):
        return _leaf(collapsed)
    parts = [f"{c.guard} -> {_leaf(c.value)}" for c in pw.cases]
    if pw.has_default:
        parts.append(f"else -> {_leaf(pw.default)}")
    return "if " + "  []  ".join(parts) + " fi"


def format_repeater(rep: TargetRepeater) -> str:
    inc = "(" + ", ".join(str(c) for c in rep.increment) + ")"
    return f"{{{format_piecewise(rep.first)}  {format_piecewise(rep.last)}  {inc}}}"


def _vec(v: AffineVec) -> str:
    return "(" + ", ".join(str(a) for a in v) + ")"


def render_paper(tp: TargetProgram) -> str:
    """The whole program in the paper's abstract notation."""
    coords = ", ".join(tp.coords)
    lines: list[str] = [
        f"-- systolic program for '{tp.name}' on array '{tp.array_name}'",
        f"-- process space PS: {_vec(tp.ps_min)} .. {_vec(tp.ps_max)}",
    ]
    for ch in tp.channels:
        kind = "stationary" if ch.stationary else f"hop {tuple(ch.hop)}"
        lines.append(
            f"-- stream {ch.stream}: {kind}, {ch.latches} latch buffer(s) per link"
        )
    lines.append("")
    lines.append("par")
    lines.append("  -- Computation Processes (CS)")
    lines.append(f"  parfor {coords} in {_vec(tp.ps_min)} .. {_vec(tp.ps_max)} if in CS")
    for phase in tp.compute.phases:
        lines.extend(_phase_lines(phase))
    lines.append("  end parfor")
    lines.append("")
    lines.append("  -- Input Processes (one per pipe head)")
    for io in tp.inputs:
        lines.append(f"  in {io.stream} : {format_repeater(io.repeater)}")
    lines.append("")
    lines.append("  -- Output Processes (one per pipe tail)")
    for io in tp.outputs:
        lines.append(f"  out {io.stream} : {format_repeater(io.repeater)}")
    lines.append("")
    lines.append("  -- Buffer Processes (PS \\ CS)")
    lines.append(f"  parfor {coords} in PS \\ CS")
    lines.extend(_par_passes("    ", tp.buffer.passes))
    lines.append("  end parfor")
    lines.append("end par")
    return "\n".join(lines)


def _par_passes(pad: str, passes) -> list[str]:
    """A ``par`` of one ``pass s, amount`` per ``(stream, amount)``."""
    return [
        f"{pad}par",
        *(f"{pad}  pass {s}, {format_piecewise(amount)}" for s, amount in passes),
        f"{pad}end par",
    ]


def _phase_lines(phase) -> list[str]:
    pad = "    "
    if isinstance(phase, LoadPhase):
        return [
            f"{pad}load {phase.stream}",
            f"{pad}pass {phase.stream}, {format_piecewise(phase.passes)}",
        ]
    if isinstance(phase, PassPhase):
        return _par_passes(pad, phase.passes) if phase.passes else []
    if isinstance(phase, ComputeLoop):
        out = [f"{pad}{format_repeater(phase.repeater)} :"]
        if phase.recv_streams:
            recvs = " || ".join(f"{s}?{s}" for s in phase.recv_streams)
            out.append(f"{pad}    par {recvs} end par")
        for branch in phase.body.branches:
            stmt = "; ".join(str(a) for a in branch.assigns)
            if branch.condition is not None:
                stmt = f"if {branch.condition} -> {stmt} fi"
            out.append(f"{pad}    {stmt}")
        if phase.send_streams:
            sends = " || ".join(f"{s}!{s}" for s in phase.send_streams)
            out.append(f"{pad}    par {sends} end par")
        return out
    if isinstance(phase, RecoverPhase):
        return [
            f"{pad}pass {phase.stream}, {format_piecewise(phase.passes)}",
            f"{pad}recover {phase.stream}",
        ]
    raise TypeError(f"unknown phase {phase!r}")
