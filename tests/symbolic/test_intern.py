"""Hash-consing invariants of the symbolic core.

Structural equality must imply *identity* for constructor-built
expressions, normalization must be idempotent (and memo-stable), ``subs``
must round-trip back to the interned original, compiled evaluation must
agree with the interpretive walk, and pickling -- the substrate of
``parallel.sweep_designs`` workers -- must re-intern on load.
"""

import pickle
from fractions import Fraction

import pytest

from repro.geometry import Matrix
from repro.parallel import sweep_designs
from repro.symbolic.affine import Affine, AffineVec
from repro.symbolic.compile import compile_guard, compile_piecewise
from repro.symbolic.guard import Constraint, Guard, interval
from repro.symbolic.piecewise import Case, Piecewise
from repro.systolic import explore_designs
from repro.systolic.designs import polynomial_product_program
from repro.util.errors import SymbolicError


def _pw():
    n = Affine.var("n")
    col = Affine.var("col")
    return Piecewise.with_null_default(
        [
            Case(interval(0, col, n), col - 1),
            Case(Guard([Constraint.ge(col, n + 1)]), AffineVec.of(col, 0)),
        ]
    )


class TestStructuralEqualityIsIdentity:
    def test_affine(self):
        assert Affine({"n": 2, "col": -1}, 5) is Affine({"col": -1, "n": 2}, 5)
        assert Affine.var("n") + 1 is Affine({"n": 1}, 1)
        # zero coefficients normalize away before interning
        assert Affine({"n": 0}, 3) is Affine.constant(3)

    def test_constraint_and_guard(self):
        assert Constraint.ge(Affine.var("n"), 3) is Constraint.ge(Affine.var("n"), 3)
        g1 = interval(0, Affine.var("col"), Affine.var("n"))
        g2 = interval(0, Affine.var("col"), Affine.var("n"))
        assert g1 is g2
        assert Guard() is Guard.TRUE

    def test_case_and_piecewise(self):
        assert _pw() is _pw()
        c = Case(Guard.TRUE, Affine.var("n"))
        assert c is Case(Guard.TRUE, Affine.var("n"))

    def test_distinct_forms_stay_distinct(self):
        assert Affine.var("n") is not Affine.var("m")
        assert Affine({"n": 1}, 1) != Affine({"n": 1}, 2)

    def test_guard_order_preserved_for_printing(self):
        # __eq__ on guards is order-insensitive, but the intern key keeps
        # constraint order so rendered output is deterministic.
        a, b = Constraint.ge(Affine.var("n"), 0), Constraint.ge(Affine.var("m"), 0)
        g_ab, g_ba = Guard([a, b]), Guard([b, a])
        assert g_ab == g_ba
        assert g_ab.constraints == (a, b)
        assert g_ba.constraints == (b, a)


class TestCanonicalNumbers:
    """Every coefficient and constant is an ``int`` when integral and a
    ``Fraction`` only when it is not, however it was built."""

    def test_integral_numbers_are_ints(self):
        a = Affine({"n": Fraction(4, 2), "col": -1}, Fraction(6, 3))
        built = Affine.var("n") * Fraction(3, 2) + Affine.var("n") / 2 - 1
        for expr in (a, built, Affine.constant(Fraction(5, 5)), -a, a - a):
            assert all(type(c) is int for c in expr.coeffs.values())
            assert type(expr.const) is int
        assert type(a.coeff("absent")) is int

    def test_integral_fraction_interns_with_int(self):
        a = Affine({"n": Fraction(4, 2)})
        assert a is Affine({"n": 2})
        assert type(a.coeffs["n"]) is int
        assert Affine({}, Fraction(-3)) is Affine.constant(-3)

    def test_division_keeps_fraction_until_integral(self):
        half = Affine.var("n") / 2
        assert type(half.coeffs["n"]) is Fraction
        assert half.coeffs["n"] == Fraction(1, 2)
        back = half * 2
        assert type(back.coeffs["n"]) is int
        assert back is Affine.var("n")

    def test_pickle_keeps_types(self):
        for a in (Affine({"n": 2}, -1), Affine.var("n") / 2 + Fraction(1, 3)):
            b = pickle.loads(pickle.dumps(a))
            assert b is a
            assert [type(c) for c in b.coeffs.values()] == [
                type(c) for c in a.coeffs.values()
            ]
            assert type(b.const) is type(a.const)
        assert type(pickle.loads(pickle.dumps(Affine({"n": 2}))).coeffs["n"]) is int

    def test_evaluate_returns_int_when_integral(self):
        half = Affine.var("n") / 2
        assert type(half.evaluate({"n": 4})) is int
        assert half.evaluate({"n": 3}) == Fraction(3, 2)
        assert type(Affine({"n": 2}, 1).evaluate({"n": Fraction(6, 2)})) is int
        assert type(Affine.constant(Fraction(8, 4)).evaluate({})) is int

    def test_compiled_leaf_returns_evaluates_type(self):
        pw = Piecewise.single(Affine.var("n") / 2 + 1)
        for n in (2, 3, 4):
            env = {"n": n}
            got = pw.evaluate(env)
            want = pw._evaluate_interp(env)
            assert got == want and type(got) is type(want)
        assert type(pw.evaluate({"n": 4})) is int


class TestImmutability:
    def test_all_classes_reject_setattr(self):
        n = Affine.var("n")
        for obj in (n, Constraint(n), Guard([Constraint(n)]), Case(Guard.TRUE, n),
                    Piecewise.single(n)):
            with pytest.raises(AttributeError):
                obj.anything = 1


class TestNormalizationIdempotence:
    def test_guard_simplify_idempotent_and_memoized(self):
        assumptions = Guard([Constraint.ge(Affine.var("n"), 1)])
        g = interval(0, Affine.var("col"), 2 * Affine.var("n"))
        once = g.simplify(assumptions)
        assert g.simplify(assumptions) is once  # memo: same object back
        assert once.simplify(assumptions) is once  # idempotent

    def test_piecewise_simplify_idempotent_and_memoized(self):
        assumptions = Guard([Constraint.ge(Affine.var("n"), 1)])
        pw = _pw()
        once = pw.simplify(assumptions)
        assert pw.simplify(assumptions) is once
        assert once.simplify(assumptions) is once

    def test_prune_memoized(self):
        pw = _pw()
        assert pw.prune() is pw.prune()


class TestSubsRoundTrip:
    def test_affine_round_trip(self):
        a = Affine({"col": 2, "n": -1}, 3)
        shifted = a.subs({"col": Affine.var("col") + 1})
        assert shifted.subs({"col": Affine.var("col") - 1}) is a

    def test_piecewise_round_trip(self):
        pw = _pw()
        there = pw.subs({"col": Affine.var("col") + 1})
        assert there is not pw
        assert there.subs({"col": Affine.var("col") - 1}) is pw

    def test_piecewise_subs_memoized(self):
        pw = _pw()
        mapping = {"col": Affine.var("col") + 1}
        assert pw.subs(mapping) is pw.subs(mapping)


class TestCompiledEvaluation:
    def test_guard_compiled_matches_interpretive(self):
        g = interval(0, Affine.var("col"), Affine.var("n"))
        fn = compile_guard(g)
        for col in (-1, 0, 2, 4, 5):
            env = {"col": col, "n": 4}
            assert fn(env) == all(c.evaluate(env) for c in g.constraints)
            assert g.evaluate(env) == fn(env)

    def test_piecewise_compiled_matches_interpretive(self):
        pw = _pw()
        fn = compile_piecewise(pw)
        assert fn is not None
        for col in (-2, 0, 3, 4, 5, 7):
            env = {"col": col, "n": 4}
            assert fn(env) == pw._evaluate_interp(env)
            assert pw.evaluate(env) == pw._evaluate_interp(env)

    def test_nested_piecewise_compiles(self):
        inner = Piecewise.single(Affine.var("n") * 2)
        outer = Piecewise(
            [Case(Guard([Constraint.ge(Affine.var("n"), 0)]), inner)]
        )
        assert outer.evaluate({"n": 3}) == 6

    def test_compiled_unbound_symbol_raises_symbolic_error(self):
        g = Guard([Constraint.ge(Affine.var("n"), 0)])
        with pytest.raises(SymbolicError):
            g.evaluate({})
        with pytest.raises(SymbolicError):
            _pw().evaluate({"col": 1})

    def test_compiled_no_alternative_raises(self):
        pw = Piecewise([Case(Guard([Constraint.ge(Affine.var("n"), 0)]),
                             Affine.var("n"))])
        with pytest.raises(SymbolicError, match="no alternative"):
            pw.evaluate({"n": -1})

    def test_any_case_holds_matches_matching_cases(self):
        pw = _pw()
        for col in (-2, 0, 4, 5, 9):
            env = {"col": col, "n": 4}
            assert pw.any_case_holds(env) == bool(pw.matching_cases(env))

    def test_vector_leaf_evaluates_to_point(self):
        pw = Piecewise.single(AffineVec.of(Affine.var("n"), 0))
        assert pw.evaluate({"n": 2}) == (2, 0)


class TestPicklingReinterns:
    def test_round_trip_restores_identity(self):
        pw = _pw()
        a = Affine({"n": 2}, -1)
        g = interval(0, Affine.var("col"), Affine.var("n"))
        assert pickle.loads(pickle.dumps(a)) is a
        assert pickle.loads(pickle.dumps(g)) is g
        assert pickle.loads(pickle.dumps(pw)) is pw

    def test_through_sweep_workers(self, monkeypatch):
        # The real cross-process path: workers rebuild interned objects via
        # __reduce__ and send DesignCosts back; the pooled table must equal
        # the serial one exactly.  Two CPUs keep the pool on any machine.
        import repro.parallel as par

        monkeypatch.setattr(par.os, "cpu_count", lambda: 2)
        prog = polynomial_product_program()
        step = Matrix([[2, 1]])
        serial = explore_designs(prog, step, {"n": 3}, bound=1)
        pooled = sweep_designs(prog, step, [{"n": 3}], bound=1, jobs=2)
        assert pooled.timings.jobs == 2
        assert pooled.costs_at({"n": 3}) == serial
