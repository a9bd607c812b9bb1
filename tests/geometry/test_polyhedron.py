"""Unit tests for Fourier-Motzkin feasibility (guard pruning substrate)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_systolic, generate_instance
from repro.core.memo import DerivationMemo
from repro.geometry import polyhedron
from repro.geometry.polyhedron import _tightest, canonical_int_row, feasible_int_rows
from repro.symbolic import guard as guard_module
from repro.systolic.designs import all_paper_designs
from repro.util.cache import BoundedLRU
from tests.symbolic.test_guard import _forget_symbolic_memos


def row(coeffs, const):
    """The canonical row of ``sum coeffs.x + const >= 0``."""
    return canonical_int_row(tuple(Fraction(c) for c in coeffs) + (Fraction(const),))


def feasible(constraints, dim):
    """Feasibility of ``(coeffs, const)`` pairs, trivial rows decided first."""
    rows = []
    for coeffs, const in constraints:
        r = row(coeffs, const)
        if r is False:
            return False
        if r is not True:
            rows.append(r)
    return feasible_int_rows(rows, dim)


class TestCanonicalIntRow:
    def test_trivial_true(self):
        assert row([0, 0], 1) is True

    def test_trivial_false(self):
        assert row([0], -1) is False

    def test_fractions_scaled_and_reduced(self):
        assert row([Fraction(1, 2), Fraction(-1, 3)], 1) == (3, -2, 6)
        assert row([2, 4], -6) == (1, 2, -3)


class TestFeasibility:
    def test_empty_system(self):
        assert feasible_int_rows([], 2)

    def test_box(self):
        cs = [([1], 0), ([-1], 5)]  # 0 <= x <= 5
        assert feasible(cs, 1)

    def test_empty_interval(self):
        cs = [([1], -5), ([-1], 2)]  # x >= 5 and x <= 2
        assert not feasible(cs, 1)

    def test_unit_gap_infeasible(self):
        cs = [([1], 0), ([-1], -1)]  # x >= 0 and x <= -1
        assert not feasible(cs, 1)

    def test_two_vars_feasible(self):
        # x >= 0, y >= 0, x + y <= 3
        cs = [([1, 0], 0), ([0, 1], 0), ([-1, -1], 3)]
        assert feasible(cs, 2)

    def test_two_vars_infeasible(self):
        # x >= 2, y >= 2, x + y <= 3
        cs = [([1, 0], -2), ([0, 1], -2), ([-1, -1], 3)]
        assert not feasible(cs, 2)

    def test_trivially_false_input(self):
        assert not feasible([([0], -1)], 1)

    def test_paper_e2_vacuous_subalternative(self):
        """Appendix E.2.5 prunes sub-alternatives like
        0 <= row-col <= n  /\\  0 <= -col <= n  /\\  0 <= col <= n  /\\ col > 0
        vs the consistent ones.  Model: vars (col, row, n), n >= 1.

        The clause guard 0<=row-col<=n /\\ 0<=-col<=n together with the
        sub-guard col >= 1 is infeasible (since -col >= 0 forces col <= 0).
        """
        base = [
            ([-1, 1, 0], 0),   # row - col >= 0
            ([1, -1, 1], 0),   # n - (row - col) >= 0
            ([-1, 0, 0], 0),   # -col >= 0
            ([1, 0, 1], 0),    # n + col >= 0
            ([0, 0, 1], -1),   # n >= 1
        ]
        infeasible = base + [([1, 0, 0], -1)]  # col >= 1
        assert not feasible(infeasible, 3)
        consistent = base + [([-1, 0, 0], 0)]  # col <= 0
        assert feasible(consistent, 3)


# ----------------------------------------------------------------------
# elimination order: every order gives the fixed-order answer
# ----------------------------------------------------------------------
def _fixed_order_feasible(rows, dim):
    """Fourier-Motzkin in index order, keeping every derived row: the
    elimination :func:`feasible_int_rows` used before it picked the
    cheapest variable and dropped the looser of two parallel rows."""
    work = list(rows)
    for var in range(dim):
        lowers = [r for r in work if r[var] > 0]
        uppers = [r for r in work if r[var] < 0]
        work = [r for r in work if r[var] == 0]
        for lo in lowers:
            for hi in uppers:
                new = tuple(-hi[var] * a + lo[var] * b for a, b in zip(lo, hi))
                if any(new[:-1]):
                    work.append(new)
                elif new[-1] < 0:
                    return False
    return all(r[-1] >= 0 for r in work)


_coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def int_systems(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.tuples(*([_coeff] * dim), st.integers(min_value=-6, max_value=6)),
            max_size=8,
        )
    )
    return rows, dim


class TestEliminationOrder:
    @settings(max_examples=300)
    @given(int_systems())
    def test_agrees_with_fixed_order(self, system):
        rows, dim = system
        assert feasible_int_rows(rows, dim) == _fixed_order_feasible(rows, dim)

    def test_parallel_rows_keep_the_tightest(self):
        loose, tight = (1, 1, 0), (1, 1, -5)  # x + y >= 0, x + y >= 5
        assert _tightest([loose, tight, loose]) == [tight]
        upper = (-1, -1, 3)  # x + y <= 3
        assert feasible_int_rows([loose, upper], 2)
        assert not feasible_int_rows([loose, tight, upper], 2)
        assert not feasible_int_rows([tight, loose, upper], 2)

    def test_derivation_queries_agree_with_fixed_order(self, monkeypatch):
        """Every feasibility query compiling the paper designs and fuzz
        seeds 0-19 asks gets the fixed-order answer."""
        queries = set()

        def recording(rows, dim):
            queries.add((tuple(sorted(set(rows))), dim))
            return feasible_int_rows(rows, dim)

        monkeypatch.setattr(guard_module, "feasible_int_rows", recording)
        monkeypatch.setattr(polyhedron, "FM_CACHE", BoundedLRU(32768))
        monkeypatch.setattr(
            DerivationMemo, "get", lambda self, table, key, compute: compute()
        )
        _forget_symbolic_memos()
        designs = [(p, a) for _, p, a in all_paper_designs()]
        for seed in range(20):
            inst = generate_instance(seed)
            if inst is not None:
                designs.append((inst.program, inst.array))
        for program, array in designs:
            compile_systolic(program, array)
        monkeypatch.setattr(guard_module, "feasible_int_rows", feasible_int_rows)
        assert len(queries) > 300
        answers = [feasible_int_rows(rows, dim) for rows, dim in queries]
        assert answers == [_fixed_order_feasible(rows, dim) for rows, dim in queries]
        assert 0 < sum(answers) < len(answers)
