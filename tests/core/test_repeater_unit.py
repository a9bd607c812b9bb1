"""Direct unit tests for repeaters and the symbolic vector quotient."""

import pytest

from repro.core import Repeater, affine_vector_quotient
from repro.geometry import Point
from repro.symbolic import Affine, AffineVec, Case, Guard, Piecewise, interval
from repro.util.errors import CompilationError, GeometryError

n = Affine.var("n")
col = Affine.var("col")


class TestAffineVectorQuotient:
    def test_constant(self):
        q = affine_vector_quotient(AffineVec.of(4, -8), Point.of(1, -2))
        assert q == Affine.constant(4)

    def test_symbolic(self):
        num = AffineVec.of(n - col, 0, n - col)
        q = affine_vector_quotient(num, Point.of(1, 0, 1))
        assert q == n - col

    def test_zero_component_must_vanish(self):
        with pytest.raises(CompilationError):
            affine_vector_quotient(AffineVec.of(n, 1), Point.of(1, 0))

    def test_inconsistent_components(self):
        with pytest.raises(CompilationError):
            affine_vector_quotient(AffineVec.of(n, 2 * n), Point.of(1, 1))

    def test_zero_divisor(self):
        with pytest.raises(CompilationError):
            affine_vector_quotient(AffineVec.of(0, 0), Point.of(0, 0))

    def test_dim_mismatch(self):
        with pytest.raises(CompilationError):
            affine_vector_quotient(AffineVec.of(1), Point.of(1, 1))


class TestRepeater:
    def simple(self):
        return Repeater(
            Piecewise.single(AffineVec.of(col, 0)),
            Piecewise.single(AffineVec.of(col, n)),
            Point.of(0, 1),
        )

    def test_endpoints(self):
        rep = self.simple()
        assert rep.endpoints_at({"col": 2, "n": 4}) == (Point.of(2, 0), Point.of(2, 4))

    def test_count(self):
        assert self.simple().count_at({"col": 0, "n": 4}) == 5

    def test_enumerate(self):
        pts = list(self.simple().enumerate_at({"col": 1, "n": 2}))
        assert pts == [Point.of(1, 0), Point.of(1, 1), Point.of(1, 2)]

    def test_null_process(self):
        rep = Repeater(
            Piecewise.with_null_default([Case(interval(0, col, n), AffineVec.of(col))]),
            Piecewise.with_null_default([Case(interval(0, col, n), AffineVec.of(col))]),
            Point.of(1),
        )
        assert rep.endpoints_at({"col": 99, "n": 3}) is None
        assert rep.count_at({"col": 99, "n": 3}) == 0
        assert list(rep.enumerate_at({"col": 99, "n": 3})) == []

    def test_half_null_rejected(self):
        rep = Repeater(
            Piecewise.single(AffineVec.of(col)),
            Piecewise.with_null_default([Case(interval(0, col, 0), AffineVec.of(col))]),
            Point.of(1),
        )
        with pytest.raises(CompilationError):
            rep.endpoints_at({"col": 5, "n": 3})

    def test_non_integral_rejected(self):
        rep = Repeater(
            Piecewise.single(AffineVec.of(col / 2)),
            Piecewise.single(AffineVec.of(col / 2)),
            Point.of(1),
        )
        with pytest.raises(CompilationError):
            rep.endpoints_at({"col": 3})

    def test_reversed_increment(self):
        rep = Repeater(
            Piecewise.single(AffineVec.of(n)),
            Piecewise.single(AffineVec.of(0)),
            Point.of(-1),
        )
        pts = list(rep.enumerate_at({"n": 2}))
        assert pts == [Point.of(2), Point.of(1), Point.of(0)]

    def test_enumerate_evaluates_each_endpoint_once(self, monkeypatch):
        calls = []
        evaluate = Piecewise.evaluate
        monkeypatch.setattr(
            Piecewise,
            "evaluate",
            lambda self, env: (calls.append(self), evaluate(self, env))[1],
        )
        rep = self.simple()
        assert len(list(rep.enumerate_at({"col": 1, "n": 3}))) == 4
        assert calls == [rep.first, rep.last]

    def test_enumerate_yields_plain_int_tuples(self):
        pts = list(self.simple().enumerate_at({"col": 1, "n": 2}))
        assert all(type(p) is tuple for p in pts)

    def test_enumeration_must_land_on_last(self):
        # last - first = -2 * increment: no step lands on last
        rep = Repeater(
            Piecewise.single(AffineVec.of(0)),
            Piecewise.single(AffineVec.of(-2)),
            Point.of(1),
        )
        with pytest.raises(CompilationError, match="did not land on last"):
            list(rep.enumerate_at({}))

    def test_count_needs_a_multiple_of_the_increment(self):
        rep = Repeater(
            Piecewise.single(AffineVec.of(0, 0)),
            Piecewise.single(AffineVec.of(3, 0)),
            Point.of(2, 0),
        )
        with pytest.raises(GeometryError, match=r"not an integer \(got 3/2\)"):
            rep.count_at({})
        with pytest.raises(GeometryError, match="not an integer"):
            list(rep.enumerate_at({}))

    def test_str(self):
        assert "{" in str(self.simple()) and "}" in str(self.simple())
