"""Unit tests for Fourier-Motzkin feasibility (guard pruning substrate)."""

from fractions import Fraction

from repro.geometry.polyhedron import canonical_int_row, feasible_int_rows


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
