"""Hypothesis property tests for the exact-arithmetic substrates."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Matrix,
    Point,
    gcd_reduce,
    lattice_points_on_vector,
    on_chord,
    unit_distance,
    vector_quotient,
)
from repro.geometry.polyhedron import canonical_int_row, feasible_int_rows
from repro.symbolic import Affine, Guard, Constraint

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

small_int = st.integers(min_value=-8, max_value=8)
symbols = st.sampled_from(["n", "m", "col", "row"])


@st.composite
def affines(draw):
    coeffs = draw(
        st.dictionaries(symbols, st.fractions(min_value=-5, max_value=5), max_size=3)
    )
    const = draw(st.fractions(min_value=-5, max_value=5))
    return Affine(coeffs, const)


@st.composite
def envs(draw):
    return {s: draw(small_int) for s in ["n", "m", "col", "row"]}


@st.composite
def int_points(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(min_value=1, max_value=4))
    return Point(draw(st.lists(small_int, min_size=d, max_size=d)))


# ----------------------------------------------------------------------
# affine ring laws
# ----------------------------------------------------------------------


class TestAffineLaws:
    @given(affines(), affines(), envs())
    def test_add_commutes_with_eval(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(affines(), affines(), envs())
    def test_sub_commutes_with_eval(self, a, b, env):
        assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)

    @given(affines(), st.integers(min_value=-5, max_value=5), envs())
    def test_scalar_mul_commutes_with_eval(self, a, k, env):
        assert (a * k).evaluate(env) == a.evaluate(env) * k

    @given(affines(), affines())
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(affines(), affines(), affines())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(affines())
    def test_sub_self_is_zero(self, a):
        assert (a - a).is_zero

    @given(affines(), envs())
    def test_subs_then_eval_equals_extended_eval(self, a, env):
        partial = a.subs({"n": Affine.constant(env["n"])})
        assert partial.evaluate(env) == a.evaluate(env)

    @given(affines(), affines(), envs())
    def test_subs_affine_composition(self, a, replacement, env):
        substituted = a.subs({"col": replacement})
        extended = dict(env)
        extended["col"] = replacement.evaluate(env)
        assert substituted.evaluate(env) == a.evaluate(extended)

    @given(affines())
    def test_hash_consistent_with_eq(self, a):
        clone = Affine(dict(a.coeffs), a.const)
        assert a == clone and hash(a) == hash(clone)


# ----------------------------------------------------------------------
# lattice geometry (Theorem 7 and friends)
# ----------------------------------------------------------------------


class TestLatticeProperties:
    @given(int_points())
    def test_gcd_reduce_roundtrip(self, x):
        unit, k = gcd_reduce(x)
        assert unit * k == x

    @given(int_points())
    def test_gcd_reduce_coprime(self, x):
        unit, _ = gcd_reduce(x)
        if not unit.is_zero:
            _, k2 = gcd_reduce(unit)
            assert k2 == 1

    @given(int_points(), st.integers(min_value=-6, max_value=6))
    def test_vector_quotient_roundtrip(self, y, m):
        assert vector_quotient(y * m, y) == m or y.is_zero

    @given(int_points())
    def test_theorem_7_count(self, x):
        pts = lattice_points_on_vector(x)
        _, k = gcd_reduce(x)
        expected = 1 if x.is_zero else k + 1
        assert len(pts) == expected
        assert all(on_chord(p, x) for p in pts)

    @given(int_points())
    def test_unit_distance_spacing(self, x):
        if x.is_zero:
            return
        pts = lattice_points_on_vector(x)
        u = unit_distance(x)
        for a, b in zip(pts, pts[1:]):
            assert b - a == u


# ----------------------------------------------------------------------
# Fourier-Motzkin vs brute force
# ----------------------------------------------------------------------


@st.composite
def constraint_systems(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=5))
    constraints = []
    for _ in range(count):
        coeffs = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(dim)]
        const = draw(st.integers(min_value=-6, max_value=6))
        constraints.append((tuple(coeffs), const))
    return dim, constraints


def _fm_feasible(constraints, dim):
    rows = []
    for coeffs, const in constraints:
        row = canonical_int_row(tuple(Fraction(c) for c in coeffs) + (Fraction(const),))
        if row is False:
            return False
        if row is not True:
            rows.append(row)
    return feasible_int_rows(rows, dim)


def _holds(constraints, point):
    return all(
        sum(c * v for c, v in zip(coeffs, point)) + const >= 0
        for coeffs, const in constraints
    )


class TestFourierMotzkin:
    @given(constraint_systems())
    @settings(max_examples=60)
    def test_sound_against_integer_grid(self, system):
        """If any small integer point satisfies the system, FM must report
        feasible (FM is complete over the rationals, so no false negatives
        are possible for integer-satisfiable systems)."""
        dim, constraints = system
        feasible = _fm_feasible(constraints, dim)
        grid_hit = False
        from itertools import product

        for point in product(range(-6, 7), repeat=dim):
            if _holds(constraints, point):
                grid_hit = True
                break
        if grid_hit:
            assert feasible

    @given(constraint_systems())
    @settings(max_examples=30)
    def test_infeasible_means_no_integer_point(self, system):
        dim, constraints = system
        if _fm_feasible(constraints, dim):
            return
        from itertools import product

        for point in product(range(-6, 7), repeat=dim):
            assert not _holds(constraints, point)


# ----------------------------------------------------------------------
# guard simplification soundness
# ----------------------------------------------------------------------


@st.composite
def guards(draw):
    count = draw(st.integers(min_value=0, max_value=3))
    return Guard([Constraint(draw(affines())) for _ in range(count)])


class TestGuardProperties:
    @given(guards(), guards(), envs())
    @settings(max_examples=60)
    def test_simplify_equivalent_under_assumptions(self, g, assumptions, env):
        """Wherever the assumptions hold, simplify() preserves truth."""
        if not assumptions.evaluate(env):
            return
        simplified = g.simplify(assumptions)
        assert simplified.evaluate(env) == g.evaluate(env)

    @given(guards(), envs())
    def test_and_is_conjunction(self, g, env):
        both = g.and_(g)
        assert both.evaluate(env) == g.evaluate(env)

    @given(guards(), guards(), envs())
    def test_implies_sound(self, g, h, env):
        if all(g.implies(c) for c in h.constraints) and g.evaluate(env):
            assert h.evaluate(env)
