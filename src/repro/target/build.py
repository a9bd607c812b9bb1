"""Lowering a :class:`~repro.core.program.SystolicProgram` to the abstract
target syntax (Appendix C).

This is a pure re-arrangement: every symbolic closed form the scheme derived
(first/last/count, soak/drain, the i/o repeaters, Eq. 10 pass amounts) is
placed into the process structure of the paper's generated programs.  The
renderers and the engines then only have to walk the structure.
"""

from __future__ import annotations

from repro.core.program import SystolicProgram
from repro.target.ast import (
    BufferProcess,
    ChannelDecl,
    ComputeLoop,
    ComputeProcess,
    IOProcess,
    LoadPhase,
    PassPhase,
    RecoverPhase,
    TargetProgram,
    TargetRepeater,
)


def build_target_program(sp: SystolicProgram) -> TargetProgram:
    """``sp``'s target program, arranged once per ``sp`` instance."""
    return sp.target_program


def arrange(sp: SystolicProgram) -> TargetProgram:
    """Arrange the compiled closed forms into the abstract target program."""
    stationary = [p for p in sp.streams if p.stationary]
    moving = [p for p in sp.streams if not p.stationary]

    # pre phase: stationary loads (receive + loading passes = drain), then
    # the moving soaks; post phase: the moving drains, then stationary
    # recoveries (soak passes followed by the resident element).
    phases: list = [LoadPhase(p.name, p.drain) for p in stationary]
    phases.append(PassPhase("soak", tuple((p.name, p.soak) for p in moving)))
    phases.append(
        ComputeLoop(
            repeater=TargetRepeater(sp.first, sp.last, sp.increment),
            recv_streams=tuple(p.name for p in moving),
            send_streams=tuple(p.name for p in moving),
            body=sp.source.body,
            indices=sp.source.indices,
        )
    )
    phases.append(PassPhase("drain", tuple((p.name, p.drain) for p in moving)))
    phases.extend(RecoverPhase(p.name, p.soak) for p in stationary)

    channels = tuple(
        ChannelDecl(p.name, p.hop, p.stationary, p.internal_buffers())
        for p in sp.streams
    )
    io_in = tuple(
        IOProcess(p.name, "in", TargetRepeater(p.first_s, p.last_s, p.increment_s))
        for p in sp.streams
    )
    io_out = tuple(
        IOProcess(p.name, "out", TargetRepeater(p.first_s, p.last_s, p.increment_s))
        for p in sp.streams
    )
    buffer = BufferProcess(tuple((p.name, p.pass_amount) for p in sp.streams))

    sizes = tuple(
        sorted(
            frozenset(sp.source.size_symbols)
            | (sp.first.free_symbols - frozenset(sp.coords))
        )
    )
    return TargetProgram(
        name=sp.source.name,
        array_name=sp.array.name,
        coords=sp.coords,
        sizes=sizes,
        ps_min=sp.ps_min,
        ps_max=sp.ps_max,
        channels=channels,
        compute=ComputeProcess(sp.coords, tuple(phases)),
        inputs=io_in,
        outputs=io_out,
        buffer=buffer,
    )
