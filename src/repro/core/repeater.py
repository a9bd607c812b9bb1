"""Repeaters: the language-independent for loops of the target programs.

A repeater ``{first last increment}`` (Section 4.1) enumerates the sequence
``first, first + increment, ..., last``.  ``first`` and ``last`` are
symbolic (piecewise affine vectors over the process-space coordinates);
``increment`` is a constant integer vector.  The number of loop steps is
``((last - first) // increment) + 1`` (Eq. 4).

:func:`affine_vector_quotient` is the symbolic form of the paper's ``//``
operator on vectors: the scalar ``m`` with ``m * den == num``, as an affine
expression.  The scheme guarantees the quotient exists identically (the two
operands are always parallel by construction); a failure indicates a genuine
compilation bug and raises :class:`CompilationError`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.geometry.point import Point, vector_quotient
from repro.symbolic.affine import Affine, AffineVec, Numeric
from repro.symbolic.piecewise import Piecewise
from repro.util.errors import CompilationError


def affine_vector_quotient(num: AffineVec, den: Point) -> Affine:
    """The affine scalar ``m`` with ``m * den == num`` (identically).

    Components where ``den`` is zero must be identically zero in ``num``;
    all non-zero components must give the same affine ratio.
    """
    if len(num) != len(den):
        raise CompilationError(f"dimension mismatch in {num} // {den}")
    result: Affine | None = None
    for n_comp, d_comp in zip(num, den):
        if d_comp == 0:
            if not n_comp.is_zero:
                raise CompilationError(
                    f"{num} is not a multiple of {den}: component {n_comp} over 0"
                )
            continue
        ratio = n_comp / d_comp
        if result is None:
            result = ratio
        elif result != ratio:
            raise CompilationError(
                f"{num} is not a multiple of {den}: {result} != {ratio}"
            )
    if result is None:
        raise CompilationError(f"vector quotient by the zero vector: {num} // {den}")
    return result


@dataclass(frozen=True)
class Repeater:
    """``{first last increment}`` with symbolic endpoints.

    ``first`` and ``last`` are :class:`Piecewise` whose leaves are
    :class:`AffineVec` (or ``None`` for null processes); ``increment`` is a
    constant integer :class:`Point`.
    """

    first: Piecewise
    last: Piecewise
    increment: Point

    def endpoints_at(
        self, env: Mapping[str, Numeric]
    ) -> tuple[Point, Point] | None:
        """Concrete (first, last) at a full symbol binding, or ``None`` for
        a null process."""
        first = self.first.evaluate(env)
        last = self.last.evaluate(env)
        if first is None or last is None:
            if first is not last:
                raise CompilationError(
                    f"repeater half-null at {dict(env)}: first={first}, last={last}"
                )
            return None
        if not (first.is_integral and last.is_integral):
            raise CompilationError(
                f"repeater endpoints not integral at {dict(env)}: {first}, {last} "
                "(non-integer solutions are outside the scheme's restrictions)"
            )
        return first, last

    def count_at(self, env: Mapping[str, Numeric]) -> int:
        """Concrete number of loop steps (Eq. 4); 0 for a null process."""
        endpoints = self.endpoints_at(env)
        if endpoints is None:
            return 0
        return self._count(*endpoints)

    def _count(self, first: Point, last: Point) -> int:
        return vector_quotient(last - first, self.increment) + 1

    def enumerate_at(self, env: Mapping[str, Numeric]) -> Iterator[tuple[int, ...]]:
        """The concrete sequence ``first, first+increment, ..., last``, as
        plain int tuples (each equal to the :class:`Point` it stands for)."""
        endpoints = self.endpoints_at(env)
        if endpoints is None:
            return
        first, last = endpoints
        increment = tuple(self.increment)
        current = tuple(first)
        for _ in range(self._count(first, last)):
            yield current
            current = tuple(map(operator.add, current, increment))
        if tuple(map(operator.sub, current, increment)) != last:
            raise CompilationError(
                f"repeater enumeration did not land on last: {last}"
            )

    def __str__(self) -> str:
        def leaf(pw: Piecewise) -> str:
            collapsed = pw.collapse()
            return str(collapsed) if not isinstance(collapsed, Piecewise) else "<cases>"

        return f"{{{leaf(self.first)}  {leaf(self.last)}  {self.increment}}}"
