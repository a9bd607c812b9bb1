"""Unit tests for repro.symbolic.affine."""

from fractions import Fraction

import pytest

from repro.geometry import Matrix, Point
from repro.symbolic import Affine, AffineVec
from repro.util.errors import SymbolicError

n = Affine.var("n")
col = Affine.var("col")
row = Affine.var("row")


class TestConstruction:
    def test_constant(self):
        assert Affine.constant(5).is_constant
        assert Affine.constant(5).as_int() == 5

    def test_var(self):
        assert n.free_symbols == {"n"}
        assert n.coeff("n") == 1

    def test_zero_coefficients_dropped(self):
        a = Affine({"n": 0, "m": 2})
        assert a.free_symbols == {"m"}

    def test_lift(self):
        assert Affine.lift(3) == Affine.constant(3)
        assert Affine.lift(n) is n

    def test_bad_symbol(self):
        with pytest.raises(SymbolicError):
            Affine({"": 1})

    def test_immutable(self):
        with pytest.raises(AttributeError):
            n.const = 5


class TestArithmetic:
    def test_add(self):
        assert (n + 1).const == 1
        assert (n + col).free_symbols == {"n", "col"}

    def test_sub_cancels(self):
        assert (n - n).is_zero

    def test_rsub(self):
        a = 5 - n
        assert a.const == 5 and a.coeff("n") == -1

    def test_scalar_mul(self):
        a = 2 * n + 3
        assert a.coeff("n") == 2 and a.const == 3

    def test_mul_by_constant_affine(self):
        assert n * Affine.constant(4) == Affine({"n": 4})

    def test_nonaffine_product_rejected(self):
        with pytest.raises(SymbolicError):
            n * col

    def test_div(self):
        assert (2 * n) / 2 == n
        assert (n / 2).coeff("n") == Fraction(1, 2)

    def test_div_by_symbol_rejected(self):
        with pytest.raises(SymbolicError):
            n / col

    def test_div_by_zero(self):
        with pytest.raises(SymbolicError):
            n / 0

    def test_neg(self):
        assert (-n).coeff("n") == -1

    def test_paper_expression(self):
        # 2*n - col (drain of stream c, Appendix D.1)
        drain = 2 * n - col
        assert drain.evaluate_int({"n": 4, "col": 3}) == 5


class TestSubsEvaluate:
    def test_subs_number(self):
        assert (n + col).subs({"col": 3}) == n + 3

    def test_subs_expression(self):
        assert (2 * col).subs({"col": n - 1}) == 2 * n - 2

    def test_subs_missing_kept(self):
        assert (n + col).subs({"q": 1}) == n + col

    def test_evaluate(self):
        assert (2 * n + col).evaluate({"n": 3, "col": 1}) == 7

    def test_evaluate_unbound(self):
        with pytest.raises(SymbolicError):
            n.evaluate({})

    def test_evaluate_int_rejects_fraction(self):
        with pytest.raises(SymbolicError):
            (n / 2).evaluate_int({"n": 3})


class TestDisplay:
    def test_str_simple(self):
        assert str(n) == "n"

    def test_str_combined(self):
        assert str(2 * n - col + 1) in ("-col + 2*n + 1", "2*n - col + 1")

    def test_str_constant(self):
        assert str(Affine.constant(0)) == "0"

    def test_eq_with_number(self):
        assert Affine.constant(3) == 3
        assert n != 3


class TestAffineVec:
    def test_of(self):
        v = AffineVec.of(col, 0)
        assert v.dim == 2
        assert v[1].is_zero

    def test_from_point(self):
        assert AffineVec.from_point(Point.of(1, 2)).as_point() == Point.of(1, 2)

    def test_symbols(self):
        v = AffineVec.symbols(["col", "row"])
        assert v.free_symbols == {"col", "row"}

    def test_add_sub(self):
        v = AffineVec.of(col, row) + (1, 2)
        assert v == AffineVec.of(col + 1, row + 2)
        assert v - (1, 2) == AffineVec.of(col, row)

    def test_rsub(self):
        v = (1, 2) - AffineVec.of(col, row)
        assert v == AffineVec.of(1 - col, 2 - row)

    def test_scalar_mul(self):
        assert AffineVec.of(col, 1) * 2 == AffineVec.of(2 * col, 2)

    def test_mul_by_affine(self):
        assert AffineVec.of(1, 1) * n == AffineVec.of(n, n)

    def test_dim_mismatch(self):
        with pytest.raises(SymbolicError):
            AffineVec.of(col) + AffineVec.of(col, row)

    def test_evaluate(self):
        v = AffineVec.of(col, n - col)
        assert v.evaluate({"col": 2, "n": 5}) == Point.of(2, 3)

    def test_as_point_requires_constant(self):
        with pytest.raises(SymbolicError):
            AffineVec.of(col).as_point()

    def test_with_coord(self):
        v = AffineVec.symbols(["i", "j", "k"]).with_coord(2, 0)
        assert v[2].is_zero and v[0] == Affine.var("i")

    def test_matrix_apply(self):
        # index map M.c = (i, j) applied to symbolic point (col, row, 0)
        m = Matrix([[1, 0, 0], [0, 1, 0]])
        out = AffineVec(m.apply(AffineVec.of(col, row, 0)))
        assert out == AffineVec.of(col, row)

    def test_matrix_apply_kung_leiserson(self):
        # place = (i-k, j-k) applied to (col, row, 0)
        m = Matrix([[1, 0, -1], [0, 1, -1]])
        out = AffineVec(m.apply(AffineVec.of(0, row - col, -col)))
        assert out == AffineVec.of(col, row)


class TestNumericOperands:
    """A plain ``int`` operand is used without lifting it to an interned
    constant; every result is the very object the lifted path returns."""

    EXPRS = (col, 2 * n - col + 3, row - col + n, Affine({"n": Fraction(1, 2)}, Fraction(-1, 3)))
    KS = (0, 1, -1, 2, -3)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("a", EXPRS, ids=str)
    def test_results_are_the_lifted_objects(self, a, k):
        lk = Affine.lift(k)
        assert a + k is a + lk
        assert k + a is lk + a
        assert a - k is a - lk
        assert k - a is lk - a
        assert a * k is a * lk
        assert k * a is lk * a
        scaled = Affine({s: c * k for s, c in a.coeffs.items()}, a.const * k)
        assert a * k is scaled
        if k:
            assert a / k is a / lk
            assert a / k is Affine(
                {s: Fraction(c, 1) / k for s, c in a.coeffs.items()}, Fraction(a.const) / k
            )
        else:
            with pytest.raises(SymbolicError):
                a / k

    def test_neutral_operands_return_self(self):
        a = 2 * n - col
        assert a + 0 is a and 0 + a is a and a - 0 is a
        assert a * 1 is a and 1 * a is a and a / 1 is a
        assert a * -1 is -a and a / -1 is -a

    @pytest.mark.parametrize("k", [Fraction(1, 2), Fraction(4, 2), True, False])
    def test_fraction_and_bool_take_the_lifted_path(self, monkeypatch, k):
        lifted = []
        lift = Affine.lift

        def spy(value):
            lifted.append(value)
            return lift(value)

        monkeypatch.setattr(Affine, "lift", staticmethod(spy))
        a = n + 1
        for op in (lambda: a + k, lambda: a - k, lambda: a * k, lambda: a / k):
            lifted.clear()
            if type(k) is bool:
                # the lifted path refuses a bool, as it always has
                with pytest.raises(SymbolicError):
                    op()
            else:
                op()
            assert lifted == [k]
        lifted.clear()
        a + 3, 3 + a, a - 3, a * 3, 3 * a, a / 3
        assert lifted == []

    def test_int_product_makes_one_intern_lookup(self):
        stats = Affine._stats
        a = 2 * n - col + 1
        before = stats.hits + stats.misses
        a * 3
        assert stats.hits + stats.misses == before + 1

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0, -1], [0, 1, -1]],
            [[1, 1, 0], [-1, 1, 0], [0, 0, 1]],
            [[Fraction(1, 2), Fraction(1, 2), 0], [Fraction(-1, 2), Fraction(1, 2), 0]],
            [[0, 0, 1], [1, -1, 0]],
        ],
    )
    def test_matrix_apply_is_the_term_by_term_sum(self, rows):
        m = Matrix(rows)
        vec = AffineVec.of(col - row, row + col + n, n - col - row + 2)
        out = m.apply(vec)
        for row_coeffs, got in zip(m.rows, out):
            acc = None
            for elem, k in zip(vec, row_coeffs):
                term = elem * Affine.lift(k)
                acc = term if acc is None else acc + term
            assert got is acc
            assert str(got) == str(acc)
