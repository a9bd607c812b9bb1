"""Unit tests for repro.symbolic.guard."""

import math

import pytest

from repro import compile_systolic, generate_instance
from repro.core.memo import DerivationMemo
from repro.profiling import counter
from repro.symbolic import Affine, Constraint, Guard, Piecewise, interval
from repro.systolic.designs import all_paper_designs
from repro.util.errors import GuardError

n = Affine.var("n")
col = Affine.var("col")
row = Affine.var("row")


class TestConstraint:
    def test_ge(self):
        c = Constraint.ge(col, 0)
        assert c.evaluate({"col": 0})
        assert not c.evaluate({"col": -1})

    def test_le(self):
        c = Constraint.le(col, n)
        assert c.evaluate({"col": 3, "n": 3})
        assert not c.evaluate({"col": 4, "n": 3})

    def test_trivial(self):
        assert Constraint.ge(1, 0).is_trivially_true
        assert Constraint.ge(0, 1).is_trivially_false

    def test_subs(self):
        c = Constraint.le(col, n).subs({"col": n})
        assert c.is_trivially_true or c.evaluate({"n": 5})

    def test_int_row(self):
        assert Constraint.ge(col, n).int_row(("col", "n")) == (1, -1, 0)
        assert Constraint.ge(col / 2, 1).int_row(("col",)) == (1, -2)

    def test_negated_int_row_unreduced(self):
        # 2*col - 4 >= 0 negates to -2*col + 3 >= 0, not to the
        # gcd-tightened -col + 1 >= 0.
        assert Constraint(2 * col - 4).negated_int_row(("col",)) == (-2, 3)
        assert Constraint(col / 2 - 1).negated_int_row(("col",)) == (-1, 1)

    def test_eq_hash(self):
        assert Constraint.ge(col, 0) == Constraint.ge(col, 0)
        assert hash(Constraint.ge(col, 0)) == hash(Constraint.ge(col, 0))


class TestGuard:
    def test_true(self):
        assert Guard.TRUE.is_true
        assert Guard.TRUE.evaluate({})

    def test_interval(self):
        g = interval(0, col, n)  # 0 <= col <= n
        assert g.evaluate({"col": 2, "n": 5})
        assert not g.evaluate({"col": 6, "n": 5})
        assert not g.evaluate({"col": -1, "n": 5})

    def test_and(self):
        g = interval(0, col, n) & interval(0, row, n)
        assert g.evaluate({"col": 1, "row": 1, "n": 2})
        assert not g.evaluate({"col": 1, "row": 3, "n": 2})

    def test_and_constraint(self):
        g = Guard.TRUE & Constraint.ge(col, 1)
        assert not g.evaluate({"col": 0})

    def test_dedup(self):
        g = Guard([Constraint.ge(col, 0), Constraint.ge(col, 0)])
        assert len(g.constraints) == 1

    def test_trivially_true_dropped(self):
        g = Guard([Constraint.ge(1, 0)])
        assert g.is_true

    def test_subs(self):
        g = interval(0, col, n).subs({"col": Affine.constant(-1)})
        assert g.is_trivially_false

    def test_free_symbols(self):
        assert interval(0, col, n).free_symbols == {"col", "n"}


class TestFeasibility:
    def test_feasible(self):
        assert interval(0, col, n).feasible()

    def test_infeasible(self):
        g = Guard([Constraint.ge(col, 1), Constraint.le(col, 0)])
        assert not g.feasible()

    def test_feasible_with_assumptions(self):
        # 0 <= -col <= n  /\  col >= 1 is infeasible
        g = interval(0, -col, n) & Constraint.ge(col, 1)
        assert not g.feasible(assumptions=Guard([Constraint.ge(n, 1)]))

    def test_paper_d2_overlap_point(self):
        # guards 0<=col<=n and n<=col<=2n overlap exactly at col=n
        g = interval(0, col, n) & interval(n, col, 2 * n)
        assert g.feasible(assumptions=Guard([Constraint.ge(n, 1)]))

    def test_trivially_false(self):
        assert not Guard([Constraint.ge(0, 1)]).feasible()


class TestImplication:
    def test_simple_implication(self):
        g = interval(1, col, n)
        assert g.implies(Constraint.ge(col, 0))

    def test_non_implication(self):
        g = interval(0, col, n)
        assert not g.implies(Constraint.ge(col, 1))

    def test_implies_guard(self):
        g = interval(2, col, 3)
        assert all(g.implies(c) for c in interval(0, col, 5).constraints)

    def test_implication_with_assumptions(self):
        g = interval(0, col, n)
        assumptions = Guard([Constraint.ge(n, 0)])
        assert g.and_(assumptions).implies(Constraint.ge(n - col, 0))

    def test_fractional_coefficients_scaled(self):
        g = Guard([Constraint.ge(col / 2, 1)])  # col >= 2
        assert g.implies(Constraint.ge(col, 2))

    def test_own_conjunct_needs_no_fourier_motzkin(self):
        c1 = Constraint.ge(col, 7)
        c2 = Constraint.le(col, n + 5)
        fm = counter("fm_feasible")
        before = (fm.hits, fm.misses)
        assert Guard([c1, c2]).implies(c1)
        assert Guard([c2]).and_(Guard([c1])).implies(c1)
        assert (fm.hits, fm.misses) == before


def _reference_implies(g, c, assumptions):
    """The integer-exact implication test as a plain guard construction."""
    e = c.expr
    lcm = 1
    for x in (e.const, *e.coeffs.values()):
        lcm = math.lcm(lcm, x.denominator)
    test = g.and_(Constraint(-(lcm * e) - 1))
    if assumptions is not None:
        test = test.and_(assumptions)
    return not test.feasible()


def _forget_symbolic_memos():
    for guard in list(Guard._intern.values()):
        guard._memo.clear()
    for constraint in list(Constraint._intern.values()):
        constraint._introw.clear()
    for pw in list(Piecewise._intern.values()):
        pw._memo.clear()


def test_implies_matches_reference_on_derivations(monkeypatch):
    """Every implication ``Guard.simplify`` asks while compiling the paper
    designs and 20 generated instances, and the same question with the
    guard's other conjuncts as context, answers as the reference does."""
    monkeypatch.setattr(
        DerivationMemo, "get", lambda self, table, key, compute: compute()
    )
    seen = {}
    simplify = Guard.simplify

    def recording(self, assumptions=None):
        if assumptions is not None:
            seen.setdefault((self.constraints, assumptions), (self, assumptions))
        return simplify(self, assumptions)

    monkeypatch.setattr(Guard, "simplify", recording)
    _forget_symbolic_memos()
    designs = [(p, a) for _, p, a in all_paper_designs()]
    for seed in range(20):
        inst = generate_instance(seed)
        if inst is not None:
            designs.append((inst.program, inst.array))
    for program, array in designs:
        compile_systolic(program, array)
    monkeypatch.undo()
    assert len(seen) > 300

    _forget_symbolic_memos()
    answers = []
    for guard, assumptions in seen.values():
        for c in guard.constraints:
            rest = Guard(x for x in guard.constraints if x is not c)
            implied = assumptions.implies(c)
            assert implied == _reference_implies(assumptions, c, None)
            assert rest.and_(assumptions).implies(c) == _reference_implies(
                rest, c, assumptions
            )
            answers.append(implied)
    assert len(answers) > 1000 and 0 < sum(answers) < len(answers)
