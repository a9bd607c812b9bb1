"""Nested-loop source programs (Section 3.1).

A :class:`SourceProgram` is ``r`` perfectly nested :class:`Loop`\\ s around a
:class:`~repro.lang.expr.Body`.  Loop bounds are affine in the problem-size
symbols; steps are ``+1`` or ``-1``.  As in the paper, ``lb_i <= rb_i``
always holds, and a negative step means the loop runs from the right bound
down to the left bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle
from repro.lang.expr import Body
from repro.lang.stream import Stream
from repro.lang.variables import IndexedVariable
from repro.symbolic.affine import Affine, AffineLike, Numeric
from repro.symbolic.minmax import Bound, BoundLike, as_bound, check_bound_kind
from repro.util.errors import RequirementViolation, SourceProgramError


@dataclass(frozen=True)
class Loop:
    """``for x = lb <- st -> rb`` with ``st`` in ``{-1, +1}``.

    Bounds may be plain affine expressions or :class:`Extremum` forms,
    restricted to ``max`` on the left bound and ``min`` on the right so
    that membership ``lb <= x <= rb`` is always a conjunction.
    """

    index: str
    lower: Bound
    upper: Bound
    step: int = 1

    def __post_init__(self) -> None:
        if not self.index.isidentifier():
            raise SourceProgramError(f"bad loop index {self.index!r}")
        if self.step not in (-1, 1):
            raise RequirementViolation(
                f"loop {self.index}: step must be -1 or +1, got {self.step}"
            )
        check_bound_kind(self.lower, "max", f"loop {self.index}: left bound")
        check_bound_kind(self.upper, "min", f"loop {self.index}: right bound")

    @staticmethod
    def of(index: str, lower: BoundLike, upper: BoundLike, step: int = 1) -> "Loop":
        return Loop(index, as_bound(lower), as_bound(upper), step)

    def iteration_values(self, env: Mapping[str, Numeric]) -> range:
        """Concrete iteration sequence in *execution* order."""
        lo = self.lower.evaluate_int(env)
        hi = self.upper.evaluate_int(env)
        if lo > hi:
            raise SourceProgramError(
                f"loop {self.index}: lb {lo} > rb {hi} at size {dict(env)}"
            )
        if self.step == 1:
            return range(lo, hi + 1)
        return range(hi, lo - 1, -1)

    def __str__(self) -> str:
        return f"for {self.index} = {self.lower} <- {self.step:+d} -> {self.upper}"


@dataclass(frozen=True)
class SourceProgram:
    """A complete source program: loops, streams, basic statement."""

    loops: tuple[Loop, ...]
    streams: tuple[Stream, ...]
    body: Body
    size_symbols: tuple[str, ...] = ()
    name: str = "program"

    def __post_init__(self) -> None:
        if len({lp.index for lp in self.loops}) != len(self.loops):
            raise SourceProgramError("duplicate loop indices")
        names = [s.name for s in self.streams]
        if len(set(names)) != len(names):
            raise SourceProgramError("duplicate stream/variable names")

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def r(self) -> int:
        """The number of nested loops."""
        return len(self.loops)

    @property
    def indices(self) -> tuple[str, ...]:
        return tuple(lp.index for lp in self.loops)

    @property
    def variables(self) -> tuple[IndexedVariable, ...]:
        return tuple(s.variable for s in self.streams)

    @property
    def all_size_symbols(self) -> tuple[str, ...]:
        """Every size symbol the program mentions, sorted: the declared
        ones and those in loop and variable bounds."""
        loop_syms = (lp.lower.free_symbols | lp.upper.free_symbols for lp in self.loops)
        var_syms = (v.size_symbols for v in self.variables)
        return tuple(sorted(set(self.size_symbols).union(*loop_syms, *var_syms)))

    def stream(self, name: str) -> Stream:
        for s in self.streams:
            if s.name == name:
                return s
        raise SourceProgramError(f"no stream named {name!r}")

    # ------------------------------------------------------------------
    # the index space (Section 5)
    # ------------------------------------------------------------------
    def index_space(self, env: Mapping[str, Numeric]) -> Rectangle:
        """The concrete rectangular index space ``IS`` at size ``env``."""
        lo = Point(lp.lower.evaluate_int(env) for lp in self.loops)
        hi = Point(lp.upper.evaluate_int(env) for lp in self.loops)
        return Rectangle(lo, hi)

    def iter_index_points_sequential(
        self, env: Mapping[str, Numeric]
    ) -> Iterator[Point]:
        """Index points in the *sequential execution order* of the loops
        (respecting each loop's step direction)."""
        ranges = [lp.iteration_values(env) for lp in self.loops]
        for combo in itertools.product(*ranges):
            yield Point(combo)

    def index_env(self, x: Sequence[int]) -> dict[str, int]:
        """Bind loop-index names to the coordinates of index point ``x``."""
        if len(x) != self.r:
            raise SourceProgramError(f"index point {x} has wrong dimension")
        return {lp.index: int(c) for lp, c in zip(self.loops, x)}

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        lines = [f"-- {self.name}"]
        for v in self.variables:
            lines.append(f"int {v}")
        indent = ""
        for lp in self.loops:
            lines.append(indent + str(lp))
            indent += "  "
        lines.append(indent + str(self.body))
        return "\n".join(lines)

    def to_source(self) -> str:
        """Render back to the concrete syntax accepted by ``parse_program``.

        Stream references regain their subscripts from the index maps.  A
        branch with several assignments is emitted one statement per line
        (equivalent under the sequential semantics, since conditions depend
        only on the loop indices).
        """
        from repro.lang.expr import (
            Assign,
            BinOp,
            Const,
            Expr,
            IndexExpr,
            StreamRead,
        )

        subscripts: dict[str, str] = {}
        for s in self.streams:
            parts = []
            for row in s.index_map.rows:
                affine = Affine(
                    {idx: c for idx, c in zip(self.indices, row)}
                )
                parts.append(str(affine))
            subscripts[s.name] = "[" + ", ".join(parts) + "]"

        def expr_src(e: "Expr") -> str:
            if isinstance(e, Const):
                return str(e.value)
            if isinstance(e, StreamRead):
                return e.name + subscripts[e.name]
            if isinstance(e, IndexExpr):
                return f"({e.affine})"
            if isinstance(e, BinOp):
                if e.op in ("min", "max"):
                    return f"{e.op}({expr_src(e.left)}, {expr_src(e.right)})"
                return f"({expr_src(e.left)} {e.op} {expr_src(e.right)})"
            raise SourceProgramError(f"cannot render {e!r}")

        lines = [f"program {self.name}"]
        syms = self.all_size_symbols
        if syms:
            lines.append("size " + ", ".join(syms))
        for v in self.variables:
            dims = ", ".join(f"{lo}..{hi}" for lo, hi in v.bounds)
            lines.append(f"var {v.name}[{dims}]")
        for lp in self.loops:
            step = "1" if lp.step == 1 else "-1"
            lines.append(f"for {lp.index} = {lp.lower} <- {step} -> {lp.upper}")
        for branch in self.body.branches:
            for assign in branch.assigns:
                stmt = (
                    f"{assign.stream}{subscripts[assign.stream]} := "
                    f"{expr_src(assign.expr)}"
                )
                if branch.condition is not None:
                    cond = branch.condition
                    stmt = f"if {cond.affine} {cond.relation} 0 -> {stmt}"
                lines.append("    " + stmt)
        return "\n".join(lines)
