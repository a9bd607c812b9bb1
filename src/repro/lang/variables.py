"""Indexed variables and their variable spaces (Sections 3.1 and 5).

An indexed variable is a mapping from a rectangular box of lattice points
(its *variable space* ``VS.v``) to values.  The bounds of each dimension are
affine expressions in the problem-size symbols, so a variable is symbolic
until instantiated at a concrete size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.geometry.rectangle import Rectangle
from repro.symbolic.affine import Numeric
from repro.symbolic.minmax import Bound, BoundLike, as_bound, check_bound_kind
from repro.util.errors import SourceProgramError


@dataclass(frozen=True)
class IndexedVariable:
    """A declared indexed variable, e.g. ``int c[0..2*n]``.

    ``bounds`` holds one ``(lower, upper)`` pair per dimension; both
    bounds are inclusive.  As for loops, a lower bound may be a ``max``
    form and an upper bound a ``min`` form of affine expressions.
    """

    name: str
    bounds: tuple[tuple[Bound, Bound], ...]

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SourceProgramError(f"bad variable name {self.name!r}")
        if not self.bounds:
            raise SourceProgramError(f"variable {self.name} needs >= 1 dimension")
        for axis, (lo, hi) in enumerate(self.bounds):
            check_bound_kind(lo, "max", f"variable {self.name} dim {axis}: lower bound")
            check_bound_kind(hi, "min", f"variable {self.name} dim {axis}: upper bound")

    @staticmethod
    def of(name: str, *bounds: tuple[BoundLike, BoundLike]) -> "IndexedVariable":
        return IndexedVariable(
            name,
            tuple((as_bound(lo), as_bound(hi)) for lo, hi in bounds),
        )

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def size_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for lo, hi in self.bounds:
            out |= lo.free_symbols | hi.free_symbols
        return out

    def lower(self, axis: int) -> Bound:
        return self.bounds[axis][0]

    def upper(self, axis: int) -> Bound:
        return self.bounds[axis][1]

    def space(self, env: Mapping[str, Numeric]) -> Rectangle:
        """The concrete variable space ``VS.v`` at problem size ``env``."""
        return Rectangle.of_ints(
            [lo.evaluate_int(env) for lo, _ in self.bounds],
            [hi.evaluate_int(env) for _, hi in self.bounds],
        )

    def __str__(self) -> str:
        dims = ", ".join(f"{lo}..{hi}" for lo, hi in self.bounds)
        return f"{self.name}[{dims}]"
