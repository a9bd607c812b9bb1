"""The abstract target syntax (Appendix C).

A :class:`TargetProgram` is the language-independent distributed program the
scheme derives: one parameterised computation process replicated over the
process space, boundary input/output processes per stream pipe, and buffer
processes on the points of ``PS \\ CS``.  Every quantity is still symbolic
(piecewise affine over the process-space coordinates and size symbols) --
rendering to a concrete notation is the job of :mod:`repro.target.pretty`
(the paper's notation), :mod:`repro.target.occam`, :mod:`repro.target.cgen`
and :mod:`repro.target.pygen`.

The computation process is a phase list in the appendix order: stationary
loads (one receive plus the loading passes), the moving soaks, the repeater
loop around the basic statement, the moving drains, and stationary
recoveries (the recovery passes plus the final send of the resident
element).  The soaks and the drains are one :class:`PassPhase` each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point
from repro.lang.expr import Body
from repro.symbolic.affine import AffineVec
from repro.symbolic.piecewise import Piecewise


@dataclass(frozen=True)
class TargetRepeater:
    """``{first last increment}`` with piecewise-affine endpoints."""

    first: Piecewise
    last: Piecewise
    increment: Point


@dataclass(frozen=True)
class LoadPhase:
    """Stationary pre-phase: receive the resident element, then forward
    ``passes`` elements destined for processes further down the pipe."""

    stream: str
    passes: Piecewise  # = the stream's drain amount (Section 6.5)


@dataclass(frozen=True)
class PassPhase:
    """The moving streams' pass-through: the pre-phase soak (Eq. 8) or the
    post-phase drain (Eq. 9) of every moving stream, in declaration order.

    Every engine runs one interleaving, :func:`_round_robin` (the simulator
    calls it, pygen splices its source): round ``r`` passes one element of
    every stream whose amount exceeds ``r``, in stream order.  One stream
    at a time deadlocks capacity-1 channels: a neighbour blocked midway
    through another stream never reaches its repeater, which emits one
    element of every stream per statement.  Values do not depend on the
    order, and the ``par`` of the paper and occam renderings allows it.
    """

    kind: str  # "soak" (pre-phase) | "drain" (post-phase)
    passes: tuple[tuple[str, Piecewise], ...]  # (moving stream, amount); may be ()


def _round_robin(moving_io, counts):
    """``(cin, cout)`` of every pass of a soak or drain phase, in order:
    round ``r`` passes one element of every moving stream whose count
    exceeds ``r``, in stream order.  ``moving_io`` holds ``(name, cin,
    cout)`` per moving stream, ``counts`` its number of passes."""
    order, done = [], 0
    for limit in sorted(set(counts)):
        # rounds done .. limit-1 each pass one element of every stream
        # whose count reaches limit
        live = [(cin, cout) for (_n, cin, cout), c in zip(moving_io, counts) if c >= limit]
        order += live * (limit - done)
        done = limit
    return order


@dataclass(frozen=True)
class ComputeLoop:
    """The repeater loop: par-receive the moving streams, execute the basic
    statement, par-send the moving streams."""

    repeater: TargetRepeater
    recv_streams: tuple[str, ...]  # the moving streams, in plan order
    send_streams: tuple[str, ...]
    body: Body
    indices: tuple[str, ...]  # source loop indices bound by the repeater


@dataclass(frozen=True)
class RecoverPhase:
    """Stationary post-phase: forward ``passes`` recovered elements from
    upstream, then send the resident element itself."""

    stream: str
    passes: Piecewise  # = the stream's soak amount (Section 6.5)


Phase = object  # LoadPhase | PassPhase | ComputeLoop | RecoverPhase


@dataclass(frozen=True)
class ComputeProcess:
    """The parameterised computation process, replicated over CS."""

    coords: tuple[str, ...]
    phases: tuple[Phase, ...]


@dataclass(frozen=True)
class IOProcess:
    """A boundary process: ``in s : {first_s last_s increment_s}`` feeds the
    head of every pipe of stream ``s``; ``out s`` drains the tail."""

    stream: str
    direction: str  # "in" | "out"
    repeater: TargetRepeater


@dataclass(frozen=True)
class BufferProcess:
    """One PS \\ CS point: parallel ``pass s, amount`` loops (Eq. 10)."""

    passes: tuple[tuple[str, Piecewise], ...]  # (stream, whole-pipe amount)


@dataclass(frozen=True)
class ChannelDecl:
    """Per-stream link structure between neighbouring processes."""

    stream: str
    hop: Point  # the one-process move of the stream's elements
    stationary: bool
    latches: int  # interposed latch buffers per link (denominator - 1)


@dataclass(frozen=True)
class TargetProgram:
    """The complete abstract distributed program."""

    name: str  # source program name
    array_name: str
    coords: tuple[str, ...]
    sizes: tuple[str, ...]
    ps_min: AffineVec
    ps_max: AffineVec
    channels: tuple[ChannelDecl, ...]
    compute: ComputeProcess
    inputs: tuple[IOProcess, ...]
    outputs: tuple[IOProcess, ...]
    buffer: BufferProcess

    @property
    def stream_names(self) -> tuple[str, ...]:
        return tuple(c.stream for c in self.channels)
