"""Unit tests for repro.geometry.rectangle."""

import pytest

from repro.geometry import Point, Rectangle
from repro.util.errors import GeometryError


class TestConstruction:
    def test_basic(self):
        r = Rectangle(Point.of(0, 0), Point.of(2, 3))
        assert r.dim == 2
        assert r.size == 12

    def test_single_point(self):
        r = Rectangle(Point.of(1), Point.of(1))
        assert r.size == 1

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            Rectangle(Point.of(1), Point.of(0))

    def test_dim_mismatch(self):
        with pytest.raises(GeometryError):
            Rectangle(Point.of(0), Point.of(0, 0))

    def test_fractional_rejected(self):
        from fractions import Fraction

        with pytest.raises(GeometryError):
            Rectangle(Point.of(Fraction(1, 2)), Point.of(1))

    def test_of_ints_equals_checked_constructor(self):
        r = Rectangle.of_ints([0, 1], [2, 3])
        assert r == Rectangle(Point.of(0, 1), Point.of(2, 3))
        assert type(r.lo) is type(r.hi) is Point

    def test_of_ints_empty_rejected(self):
        with pytest.raises(GeometryError, match=r"empty rectangle: \(0, 2\) .. \(1, 1\)"):
            Rectangle.of_ints([0, 2], [1, 1])


class TestMembership:
    def test_contains(self):
        r = Rectangle(Point.of(0, 0), Point.of(2, 2))
        assert Point.of(1, 1) in r
        assert Point.of(0, 2) in r
        assert Point.of(3, 0) not in r
        assert Point.of(-1, 0) not in r

    def test_contains_wrong_dim(self):
        r = Rectangle(Point.of(0), Point.of(2))
        assert Point.of(1, 1) not in r


class TestIteration:
    def test_iter_order(self):
        r = Rectangle(Point.of(0, 0), Point.of(1, 1))
        assert list(r) == [
            Point.of(0, 0),
            Point.of(0, 1),
            Point.of(1, 0),
            Point.of(1, 1),
        ]

    def test_iter_count_matches_size(self):
        r = Rectangle(Point.of(-1, 0, 2), Point.of(1, 1, 3))
        assert len(list(r)) == r.size

    def test_extent(self):
        r = Rectangle(Point.of(-2, 0), Point.of(2, 0))
        assert r.extent(0) == 5
        assert r.extent(1) == 1


class TestCornersFaces:
    def test_corners(self):
        r = Rectangle(Point.of(0, 0), Point.of(1, 2))
        cs = set(r.corners())
        assert cs == {Point.of(0, 0), Point.of(0, 2), Point.of(1, 0), Point.of(1, 2)}

    def test_corners_degenerate_axis(self):
        r = Rectangle(Point.of(0, 5), Point.of(1, 5))
        assert set(r.corners()) == {Point.of(0, 5), Point.of(1, 5)}

    def test_face(self):
        r = Rectangle(Point.of(0, 0), Point.of(2, 2))
        f = r.face(0, at_lo=True)
        assert set(f) == {Point.of(0, 0), Point.of(0, 1), Point.of(0, 2)}

    def test_boundary_points(self):
        r = Rectangle(Point.of(0, 0), Point.of(2, 2))
        b = set(r.boundary_points(0))
        assert Point.of(0, 1) in b and Point.of(2, 1) in b
        assert Point.of(1, 1) not in b


class TestClampBounding:
    def test_clamp(self):
        r = Rectangle(Point.of(0, 0), Point.of(2, 2))
        assert r.clamp(Point.of(-5, 1)) == Point.of(0, 1)
        assert r.clamp(Point.of(3, 3)) == Point.of(2, 2)

    def test_bounding(self):
        r = Rectangle.bounding([Point.of(1, 5), Point.of(-1, 2), Point.of(0, 0)])
        assert r.lo == Point.of(-1, 0)
        assert r.hi == Point.of(1, 5)

    def test_bounding_empty(self):
        with pytest.raises(GeometryError):
            Rectangle.bounding([])
