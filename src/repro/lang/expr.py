"""Expression and statement AST for the basic statement (Section 3.1).

The paper's basic statement is a guarded-command set

    if B_0 -> S_0 [] B_1 -> S_1 [] ... fi

where the guards ``B_j`` are boolean functions of the loop indices and the
computations ``S_j`` refer only to elements of the indexed variables selected
by the loop indices (the *streams*).  We model a basic statement as a
:class:`Body`: a sequence of :class:`Branch` (optional condition + list of
assignments).  A branch with ``condition=None`` is unconditional.

Value expressions (:class:`Expr`) are built from numeric constants, reads of
the current element of a stream (:class:`StreamRead`), affine forms in the
loop indices and problem-size symbols (:class:`IndexExpr`), and arithmetic
(:class:`BinOp`).  This is deliberately a *data* representation, not Python
closures: the compiler copies it verbatim into the target program, where the
same body is re-evaluated with stream values received from channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from repro.symbolic.affine import Affine
from repro.util.errors import SourceProgramError

#: Runtime values carried on streams.  Exact numbers only.
RuntimeValue = Union[int, Fraction]

_BIN_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "min": min,
    "max": max,
}

#: Guard relations: ``affine rel 0`` as a test on the affine value.
RELATIONS = {
    "==": lambda v: v == 0,
    "!=": lambda v: v != 0,
    "<=": lambda v: v <= 0,
    "<": lambda v: v < 0,
    ">=": lambda v: v >= 0,
    ">": lambda v: v > 0,
}


class Expr:
    """Base class of value expressions."""

    def evaluate(
        self,
        streams: Mapping[str, RuntimeValue],
        indices: Mapping[str, int],
    ) -> RuntimeValue:
        raise NotImplementedError

    def stream_reads(self) -> frozenset[str]:
        """Names of streams read by this expression."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: RuntimeValue

    def evaluate(self, streams, indices):
        return self.value

    def stream_reads(self):
        return frozenset()

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class StreamRead(Expr):
    """The value of the current element of stream ``name``.

    In the source program this is e.g. ``a[i]``; inside the systolic program
    the element's identity is gone and only the value remains (Section 4.2),
    so the reference is by stream name alone.
    """

    name: str

    def evaluate(self, streams, indices):
        if self.name not in streams:
            raise SourceProgramError(f"no value for stream {self.name!r}")
        return streams[self.name]

    def stream_reads(self):
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IndexExpr(Expr):
    """An affine form in loop indices and problem-size symbols.

    Allowed by the source format because the loop body is a procedure
    parameterized by the loop indices; e.g. a guard ``i == 0`` or a
    computation ``c + i * b``.
    """

    affine: Affine

    def evaluate(self, streams, indices):
        return self.affine.evaluate(indices)

    def stream_reads(self):
        return frozenset()

    def __str__(self) -> str:
        return str(self.affine)


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic operation (``+ - * min max``)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BIN_OPS:
            raise SourceProgramError(f"unknown operator {self.op!r}")

    def evaluate(self, streams, indices):
        return _BIN_OPS[self.op](
            self.left.evaluate(streams, indices),
            self.right.evaluate(streams, indices),
        )

    def stream_reads(self):
        return self.left.stream_reads() | self.right.stream_reads()

    def __str__(self) -> str:
        if self.op in ("min", "max"):
            return f"{self.op}({self.left}, {self.right})"
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Condition:
    """A boolean guard ``affine rel 0`` over loop indices / sizes."""

    affine: Affine
    relation: str  # one of ==, !=, <=, <, >=, >

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise SourceProgramError(f"unknown relation {self.relation!r}")

    def evaluate(self, indices: Mapping[str, int]) -> bool:
        return RELATIONS[self.relation](self.affine.evaluate(indices))

    def __str__(self) -> str:
        return f"{self.affine} {self.relation} 0"


@dataclass(frozen=True)
class Assign:
    """``stream := expr`` -- writes the current element of ``stream``."""

    stream: str
    expr: Expr

    def __str__(self) -> str:
        return f"{self.stream} := {self.expr}"


@dataclass(frozen=True)
class Branch:
    """One guarded command of the basic statement."""

    condition: Condition | None
    assigns: tuple[Assign, ...]

    def __str__(self) -> str:
        body = "; ".join(str(a) for a in self.assigns)
        if self.condition is None:
            return body
        return f"if {self.condition} -> {body} fi"


@dataclass(frozen=True)
class Body:
    """The basic statement: a sequence of guarded branches.

    Branches are executed in order; a branch runs its assignments when its
    condition holds (or unconditionally when it has none).
    """

    branches: tuple[Branch, ...]

    @staticmethod
    def single_assign(stream: str, expr: Expr) -> "Body":
        """The common one-assignment body, e.g. ``c := c + a * b``."""
        return Body((Branch(None, (Assign(stream, expr),)),))

    def streams_read(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for br in self.branches:
            for a in br.assigns:
                out |= a.expr.stream_reads()
        return out

    def streams_written(self) -> frozenset[str]:
        return frozenset(a.stream for br in self.branches for a in br.assigns)

    def streams_accessed(self) -> frozenset[str]:
        return self.streams_read() | self.streams_written()

    def execute(
        self,
        streams: Mapping[str, RuntimeValue],
        indices: Mapping[str, int],
    ) -> dict[str, RuntimeValue]:
        """Run the body on a snapshot of stream values; returns the updated
        values (the input mapping is not mutated)."""
        values = dict(streams)
        for br in self.branches:
            if br.condition is None or br.condition.evaluate(indices):
                for a in br.assigns:
                    values[a.stream] = a.expr.evaluate(values, indices)
        return values

    def __str__(self) -> str:
        return "; ".join(str(b) for b in self.branches)
