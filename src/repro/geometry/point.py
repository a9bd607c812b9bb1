"""Exact points/vectors in n-space (paper, Section 2).

The paper identifies n-tuples with points in n-space and uses them both as
positions and as directions.  :class:`Point` is an immutable tuple of exact
numbers (``int`` or :class:`fractions.Fraction`); all arithmetic is exact.

Terminology from the paper:

* ``x . i``        -- the i-th coordinate: ``x[i]``.
* ``x (.) y``      -- inner product: :func:`dot`.
* ``m * x``        -- scalar multiple: ``x * m``.
* ``x / m``        -- component division: ``x / m``.
* ``x // y``       -- the integer ``m`` with ``m * y == x``:
                      :func:`vector_quotient`.
* ``nb . x``       -- neighbour predicate: :func:`nb`.
* ``sgn``          -- the sign function: :func:`sgn`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from repro.util.errors import GeometryError, ReproError

Scalar = Union[int, Fraction]


def exact(value: Scalar, error: type[ReproError] = GeometryError) -> Scalar:
    """The canonical exact form of a number: ``int`` when it is integral,
    :class:`~fractions.Fraction` only when it is not.

    Points and affine expressions (:mod:`repro.symbolic.affine`) hold every
    number in this form, so equal values hash and compare as one key and
    integral arithmetic stays in machine ints.  Anything that is not an
    exact number (a float, a bool) raises ``error``.
    """
    # Exact-type fast paths first: this runs once per coordinate of every
    # point a sweep enumerates.
    tp = type(value)
    if tp is int:
        return value
    if tp is Fraction or isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"expected an exact number, got {value!r}")
    return int(value)


def sgn(value: Scalar) -> int:
    """The sign function of the paper: -1, 0, or +1."""
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


class Point(tuple):
    """An immutable exact point/vector in n-space.

    Supports component-wise addition/subtraction, scalar multiplication and
    division, and exact comparison.  Coordinates are ``int`` or ``Fraction``.
    """

    __slots__ = ()

    def __new__(cls, coords: Iterable[Scalar]) -> "Point":
        return super().__new__(cls, (exact(c) for c in coords))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def of(*coords: Scalar) -> "Point":
        """Build a point from positional coordinates: ``Point.of(1, 2)``."""
        return Point(coords)

    @staticmethod
    def origin(dim: int) -> "Point":
        """The origin **0** of ``dim``-space."""
        return Point((0,) * dim)

    @staticmethod
    def unit(dim: int, axis: int) -> "Point":
        """The ``axis``-th standard basis vector of ``dim``-space."""
        if not 0 <= axis < dim:
            raise GeometryError(f"axis {axis} out of range for dimension {dim}")
        return Point(tuple(1 if i == axis else 0 for i in range(dim)))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """The dimension (number of coordinates)."""
        return len(self)

    @property
    def is_zero(self) -> bool:
        """True iff this is the origin of its space."""
        return all(c == 0 for c in self)

    @property
    def is_integral(self) -> bool:
        """True iff every coordinate is an integer."""
        return all(isinstance(c, int) for c in self)

    def as_int_tuple(self) -> tuple[int, ...]:
        """Return the coordinates as a tuple of ints; error if fractional."""
        if not self.is_integral:
            raise GeometryError(f"{self} has non-integer coordinates")
        return tuple(int(c) for c in self)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _check_dim(self, other: "Point") -> None:
        if len(self) != len(other):
            raise GeometryError(
                f"dimension mismatch: {len(self)}-point vs {len(other)}-point"
            )

    def __add__(self, other: object) -> "Point":  # type: ignore[override]
        if not isinstance(other, tuple):
            return NotImplemented
        other_pt = other if isinstance(other, Point) else Point(other)
        self._check_dim(other_pt)
        return Point(a + b for a, b in zip(self, other_pt))

    __radd__ = __add__

    def __sub__(self, other: object) -> "Point":
        if not isinstance(other, tuple):
            return NotImplemented
        other_pt = other if isinstance(other, Point) else Point(other)
        self._check_dim(other_pt)
        return Point(a - b for a, b in zip(self, other_pt))

    def __rsub__(self, other: object) -> "Point":
        if not isinstance(other, tuple):
            return NotImplemented
        return Point(other).__sub__(self)

    def __neg__(self) -> "Point":
        return Point(-c for c in self)

    def __mul__(self, scalar: object) -> "Point":  # type: ignore[override]
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return Point(c * scalar for c in self)

    __rmul__ = __mul__

    def __truediv__(self, scalar: object) -> "Point":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise GeometryError("division of a point by zero")
        return Point(Fraction(c) / scalar for c in self)

    def with_coord(self, axis: int, value: Scalar) -> "Point":
        """The paper's ``(x; i: e)``: this point with coordinate ``axis`` replaced."""
        if not 0 <= axis < len(self):
            raise GeometryError(f"axis {axis} out of range for {self}")
        return Point(value if i == axis else c for i, c in enumerate(self))

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self) + ")"


def dot(x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
    """Inner product of two points of equal dimension (paper's ``x (.) y``)."""
    if len(x) != len(y):
        raise GeometryError(f"dimension mismatch in dot product: {x} . {y}")
    return sum((a * b for a, b in zip(x, y)), 0)


def nb(x: Sequence[Scalar]) -> bool:
    """The neighbour predicate ``nb`` of Section 3.2.

    Applied to the difference of two points, it identifies whether they are
    neighbours in the process space: every component has magnitude <= 1.

    The paper types ``nb`` on ``Z^n``; the definition quantifies over all
    components of its argument.
    """
    return all(abs(c) <= 1 for c in x)


def gcd_reduce(x: Point) -> tuple[Point, int]:
    """Reduce an integral vector by the gcd of its components.

    Returns ``(x / k, k)`` where ``k = (gcd i : 0 <= i < n : |x.i|)``.
    The zero vector is returned unchanged with ``k = 1``.
    """
    ints = x.as_int_tuple()
    k = 0
    for c in ints:
        k = math.gcd(k, abs(c))
    if k == 0:
        return x, 1
    return Point(c // k for c in ints), k


def vector_quotient(x: Point, y: Point) -> int:
    """The paper's ``x // y``: the integer ``m`` such that ``m * y == x``.

    Only well-defined when ``x`` is an exact integer multiple of ``y``;
    otherwise :class:`GeometryError` is raised.  ``0 // y == 0`` for any
    non-zero ``y``; ``x // 0`` is only defined for ``x == 0`` (result 0).
    """
    if len(x) != len(y):
        raise GeometryError(f"dimension mismatch in {x} // {y}")
    # The quotient a/b of the first pair with b != 0; every later pair must
    # give the same ratio (compared by cross-multiplication, so integral
    # vectors never leave machine ints).
    ratio: tuple[Scalar, Scalar] | None = None
    for a, b in zip(x, y):
        if b == 0:
            if a != 0:
                raise GeometryError(f"{x} is not a multiple of {y}")
            continue
        if ratio is None:
            ratio = (a, b)
        elif a * ratio[1] != ratio[0] * b:
            raise GeometryError(f"{x} is not a multiple of {y}")
    if ratio is None:  # y == 0 and x == 0
        return 0
    a, b = ratio
    if a % b:
        raise GeometryError(f"{x} // {y} is not an integer (got {Fraction(a, b)})")
    return int(a // b)
