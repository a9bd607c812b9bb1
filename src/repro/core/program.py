"""The compiled artefact: a fully symbolic systolic program.

A :class:`SystolicProgram` bundles everything Sections 6-7 derive, still
parameterised by the problem-size symbols and the process-space coordinate
symbols (``col``/``row``/...).  It is the input both to the textual
backends (:mod:`repro.target`) and to the executable runtime
(:mod:`repro.runtime`), which instantiates it at a concrete problem size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle
from repro.core.basis import concrete_process_space
from repro.core.repeater import Repeater
from repro.lang.program import SourceProgram
from repro.lang.stream import Stream
from repro.symbolic.affine import Numeric
from repro.symbolic.guard import Guard
from repro.symbolic.piecewise import Piecewise
from repro.systolic.spec import SystolicArray
from repro.util.errors import CompilationError


@dataclass(frozen=True)
class StreamPlan:
    """Everything the scheme derives for one stream."""

    stream: Stream
    #: exact flow in Q^{r-1}; zero for stationary streams
    flow: Point
    #: True iff the stream does not move during the computation
    stationary: bool
    #: the effective movement vector: the flow for moving streams, the
    #: loading & recovery vector for stationary ones (Section 4.2)
    transport: Point
    #: n where transport = y/n with nb.y; n-1 internal buffers per link
    denominator: int
    #: the integral one-hop direction y = n * transport between neighbours
    hop: Point
    #: increment_s = M . increment (or the loading vector; Theorem 11)
    increment_s: Point
    #: Eq. 6 / Eq. 7 endpoints of the pipe in VS.v, piecewise over PS coords
    first_s: Piecewise
    last_s: Piecewise
    #: Eq. 8 / Eq. 9 propagation amounts (nested piecewise, scalar leaves);
    #: for stationary streams soak = recovery passes, drain = loading passes
    soak: Piecewise
    drain: Piecewise
    #: Eq. 10: whole-pipe pass count for external buffer processes
    pass_amount: Piecewise

    @property
    def name(self) -> str:
        return self.stream.name

    def pipe_repeater(self) -> Repeater:
        """The i/o repeater ``{first_s last_s increment_s}``."""
        return Repeater(self.first_s, self.last_s, self.increment_s)

    def internal_buffers(self) -> int:
        """Explicit buffers interposed on each channel of this stream."""
        return self.denominator - 1


@dataclass(frozen=True)
class SystolicProgram:
    """The complete symbolic systolic program."""

    source: SourceProgram
    array: SystolicArray
    #: process-space coordinate symbols, e.g. ("col",) or ("col", "row")
    coords: tuple[str, ...]
    #: Section 7.1
    ps_min: object  # AffineVec
    ps_max: object  # AffineVec
    #: Section 7.2
    increment: Point
    first: Piecewise
    last: Piecewise
    count: Piecewise
    simple: bool
    #: per-stream plans, in source declaration order
    streams: tuple[StreamPlan, ...]
    #: standing assumptions (lb_i <= rb_i) used for pruning
    assumptions: Guard

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def plan(self, name: str) -> StreamPlan:
        for p in self.streams:
            if p.name == name:
                return p
        raise CompilationError(f"no stream plan for {name!r}")

    @property
    def repeater(self) -> Repeater:
        """The computation repeater ``{first last increment}``."""
        return Repeater(self.first, self.last, self.increment)

    @cached_property
    def fingerprint(self) -> str:
        """:func:`repro.target.pygen.design_fingerprint`, rendered and hashed
        once per instance: it keys the schedule and partition caches on
        every lookup."""
        from repro.target.pygen import fingerprint_of  # lazy: import cycle

        return fingerprint_of(self.source, self.array)

    @cached_property
    def target_program(self):
        """The target program, arranged once per instance; never cached per
        :attr:`fingerprint`, which a planted mutant shares."""
        from repro.target.build import arrange  # lazy: import cycle

        return arrange(self)

    # ------------------------------------------------------------------
    # instantiation helpers
    # ------------------------------------------------------------------
    def process_space(self, env: Mapping[str, Numeric]) -> Rectangle:
        return concrete_process_space(self.ps_min, self.ps_max, env)

    def bind(self, y: Point, env: Mapping[str, Numeric]) -> dict[str, Numeric]:
        """A full symbol environment: problem size plus coordinates of y."""
        if y.dim != len(self.coords):
            raise CompilationError(f"{y} has wrong dimension for {self.coords}")
        full = dict(env)
        for name, c in zip(self.coords, y):
            full[name] = c
        return full

    def in_computation_space(self, y: Point, env: Mapping[str, Numeric]) -> bool:
        """Section 7.6: y is in CS iff some guard of ``first`` holds."""
        if not self.first.has_default:
            return True
        return self.first.any_case_holds(self.bind(y, env))

    def summary(self) -> str:
        """A short human-readable inventory of the derived program."""
        lines = [
            f"systolic program for {self.source.name!r} / {self.array.name!r}",
            f"  coords     : {', '.join(self.coords)}",
            f"  PS basis   : {self.ps_min} .. {self.ps_max}",
            f"  increment  : {self.increment}",
            f"  simple     : {self.simple}",
            f"  first      : {len(self.first.cases)} alternative(s)",
            f"  last       : {len(self.last.cases)} alternative(s)",
        ]
        for p in self.streams:
            kind = "stationary" if p.stationary else f"flow {p.flow}"
            lines.append(
                f"  stream {p.name}: {kind}, increment_s {p.increment_s}, "
                f"{p.internal_buffers()} internal buffer(s) per link"
            )
        return "\n".join(lines)
