"""Rectangular lattice regions.

The paper's model (Section 5) makes the index space, the process space and
every variable space *rectangular*: the boundaries of each dimension are
orthogonal to its axis.  :class:`Rectangle` is the concrete (fully numeric)
form used by the runtime; the symbolic form (bounds that are affine in the
problem size) lives in :mod:`repro.symbolic`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from repro.geometry.point import Point
from repro.util.errors import GeometryError


@dataclass(frozen=True)
class Rectangle:
    """The integral box ``[lo.0, hi.0] x ... x [lo.(n-1), hi.(n-1)]``.

    Both corners are inclusive, matching the paper's loop bounds
    ``lb_i <= x.i <= rb_i``.
    """

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if self.lo.dim != self.hi.dim:
            raise GeometryError("rectangle corners must have equal dimension")
        if not (self.lo.is_integral and self.hi.is_integral):
            raise GeometryError("rectangle corners must be integral")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise GeometryError(f"empty rectangle: {self.lo} .. {self.hi}")

    @classmethod
    def of_ints(cls, lo: tuple[int, ...], hi: tuple[int, ...]) -> "Rectangle":
        """The box between ``int`` corners of one dimension.

        The coordinates are plain ints already, so this skips ``Point``'s
        per-coordinate normalization and the dimension and integrality
        checks, as :meth:`__iter__` does; an empty box still raises.
        """
        lo = tuple.__new__(Point, lo)
        hi = tuple.__new__(Point, hi)
        for l, h in zip(lo, hi):
            if l > h:
                raise GeometryError(f"empty rectangle: {lo} .. {hi}")
        box = object.__new__(cls)
        object.__setattr__(box, "lo", lo)
        object.__setattr__(box, "hi", hi)
        return box

    @property
    def dim(self) -> int:
        return self.lo.dim

    @property
    def size(self) -> int:
        """Number of lattice points in the box."""
        n = 1
        for l, h in zip(self.lo, self.hi):
            n *= h - l + 1
        return n

    def extent(self, axis: int) -> int:
        """Number of lattice points along ``axis``."""
        return int(self.hi[axis] - self.lo[axis] + 1)

    def __contains__(self, point: object) -> bool:
        if not isinstance(point, tuple):
            return False
        if len(point) != self.dim:
            return False
        return all(l <= c <= h for l, c, h in zip(self.lo, point, self.hi))

    def ranges(self) -> list[range]:
        """One ``range`` per axis; their product is the box's points, as
        plain tuples, in the lexicographic order of :meth:`__iter__`."""
        return [range(int(l), int(h) + 1) for l, h in zip(self.lo, self.hi)]

    def __iter__(self) -> Iterator[Point]:
        """Enumerate all lattice points in lexicographic order."""
        # The coordinates are plain ints, so bypass Point's per-coordinate
        # normalization; enumeration is the cost stage's inner loop.
        return map(
            tuple.__new__, itertools.repeat(Point), itertools.product(*self.ranges())
        )

    def corners(self) -> Iterator[Point]:
        """The ``2^dim`` vertices of the box."""
        def rec(prefix: tuple, axis: int) -> Iterator[Point]:
            if axis == self.dim:
                yield Point(prefix)
                return
            yield from rec(prefix + (int(self.lo[axis]),), axis + 1)
            if self.hi[axis] != self.lo[axis]:
                yield from rec(prefix + (int(self.hi[axis]),), axis + 1)

        return rec((), 0)

    def boundary_points(self, axis: int) -> Iterator[Point]:
        """Lattice points lying on either face orthogonal to ``axis``."""
        for p in self:
            if p[axis] == self.lo[axis] or p[axis] == self.hi[axis]:
                yield p

    def face(self, axis: int, *, at_lo: bool) -> "Rectangle":
        """The (dim-1 extent) face where coordinate ``axis`` is pinned."""
        val = self.lo[axis] if at_lo else self.hi[axis]
        return Rectangle(self.lo.with_coord(axis, val), self.hi.with_coord(axis, val))

    def clamp(self, point: Point) -> Point:
        """The nearest point of the box to ``point`` (component-wise)."""
        return Point(
            min(max(c, l), h) for c, l, h in zip(point, self.lo, self.hi)
        )

    @staticmethod
    def bounding(points: list[Point]) -> "Rectangle":
        """The smallest rectangle enclosing ``points`` (must be non-empty)."""
        if not points:
            raise GeometryError("bounding box of no points")
        dim = points[0].dim
        lo = Point(min(p[i] for p in points) for i in range(dim))
        hi = Point(max(p[i] for p in points) for i in range(dim))
        return Rectangle(lo, hi)
