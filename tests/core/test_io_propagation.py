"""Tests for i/o layout/communications (7.3-7.4), soak/drain (7.5) and
buffers (7.6), pinned to the closed forms printed in Appendices D and E."""

import itertools

import pytest

from repro.core import compile_systolic
from repro.core.io_layout import (
    concrete_io_points,
    io_axes,
    io_boundary_sides,
    io_process_count,
)
from repro.geometry import Point, Rectangle
from repro.symbolic import Affine, AffineVec
from repro.systolic import (
    all_paper_designs,
    matmul_design_e1,
    matmul_design_e2,
    matrix_product_program,
    polynomial_product_program,
    polyprod_design_d1,
    polyprod_design_d2,
)

n = Affine.var("n")
col = Affine.var("col")
row = Affine.var("row")


def compiled(prog_fn, design_fn):
    return compile_systolic(prog_fn(), design_fn())


class TestIOLayout:
    def test_axes(self):
        assert io_axes(Point.of(0, 1)) == [1]
        assert io_axes(Point.of(-1, -1)) == [0, 1]

    def test_sides(self):
        assert io_boundary_sides(Point.of(0, 1), 1) == ("lo", "hi")
        assert io_boundary_sides(Point.of(-1, -1), 0) == ("hi", "lo")

    def test_e1_stream_a_on_horizontal_boundaries(self):
        """E.1.3: a's i/o processes lie on the horizontal boundaries; input
        at the bottom (row = 0), output at the top (row = n)."""
        space = Rectangle(Point.of(0, 0), Point.of(3, 3))
        pts = concrete_io_points(space, Point.of(0, 1))
        inputs = {p.position for p in pts if p.role == "input"}
        outputs = {p.position for p in pts if p.role == "output"}
        assert inputs == {Point.of(i, 0) for i in range(4)}
        assert outputs == {Point.of(i, 3) for i in range(4)}

    def test_e2_stream_c_dedup(self):
        """E.2.3: c flows (-1,-1); inputs on top and right, outputs on bottom
        and left, with corner duplicates removed from the later set."""
        space = Rectangle(Point.of(-2, -2), Point.of(2, 2))
        pts = concrete_io_points(space, Point.of(-1, -1))
        inputs = [p for p in pts if p.role == "input"]
        outputs = [p for p in pts if p.role == "output"]
        # no duplicate positions within a role
        assert len({p.position for p in inputs}) == len(inputs)
        assert len({p.position for p in outputs}) == len(outputs)
        # (2,2) is an input corner claimed by axis 0 only
        claimed = [p for p in inputs if p.position == Point.of(2, 2)]
        assert len(claimed) == 1 and claimed[0].axis == 0
        # counts: each side has 5, minus 1 duplicate corner per role
        assert len(inputs) == 9 and len(outputs) == 9


    def test_count_equals_enumeration(self):
        """The face-arithmetic count is the enumerating reference's length
        for every box of dims 1-3 (corners at -1 or 0, 1-3 points per
        axis, so single-point axes too) and every non-zero transport."""
        cases = 0
        for dim in (1, 2, 3):
            for lo in itertools.product((-1, 0), repeat=dim):
                for ext in itertools.product((0, 1, 2), repeat=dim):
                    space = Rectangle(Point(lo), Point(l + e for l, e in zip(lo, ext)))
                    for t in itertools.product((-1, 0, 1, 2), repeat=dim):
                        if not any(t):
                            continue
                        transport = Point(t)
                        expected = len(concrete_io_points(space, transport))
                        assert io_process_count(space, transport) == expected, (space, t)
                        cases += 1
        assert cases == 14166


class TestD1IO:
    """D.1.4: repeaters {0 n 1} for a and b, {0 2n 1} for c."""

    def test_endpoints(self):
        sp = compiled(polynomial_product_program, polyprod_design_d1)
        env = {"col": 0, "n": 5}
        assert sp.plan("a").first_s.evaluate(env) == Point.of(0)
        assert sp.plan("a").last_s.evaluate(env) == Point.of(5)
        assert sp.plan("b").first_s.evaluate(env) == Point.of(0)
        assert sp.plan("b").last_s.evaluate(env) == Point.of(5)
        assert sp.plan("c").first_s.evaluate(env) == Point.of(0)
        assert sp.plan("c").last_s.evaluate(env) == Point.of(10)

    def test_increments(self):
        sp = compiled(polynomial_product_program, polyprod_design_d1)
        assert sp.plan("a").increment_s == Point.of(1)  # the loading vector
        assert sp.plan("b").increment_s == Point.of(1)
        assert sp.plan("c").increment_s == Point.of(1)

    def test_closed_forms(self):
        """The repeaters and D.1.5's soak/drain as symbolic forms, valid
        for every n and col."""
        sp = compiled(polynomial_product_program, polyprod_design_d1)
        assert sp.plan("a").first_s.collapse() == AffineVec.of(0)
        assert sp.plan("a").last_s.collapse() == AffineVec.of(n)
        assert sp.plan("c").last_s.collapse() == AffineVec.of(2 * n)
        assert sp.plan("b").soak.collapse() == Affine.constant(0)
        assert sp.plan("b").drain.collapse() == Affine.constant(0)
        assert sp.plan("c").soak.collapse() == col
        assert sp.plan("c").drain.collapse() == n - col
        assert sp.plan("a").drain.collapse() == n - col  # loading passes
        assert sp.plan("a").soak.collapse() == col  # recovery passes


class TestD2IO:
    """D.2.4: increment_a = 1, increment_b = -1, increment_c = 0 (stationary,
    loading vector 1); repeaters {0 n 1}, {n 0 -1}, {0 2n 1}."""

    def test_b_reversed(self):
        sp = compiled(polynomial_product_program, polyprod_design_d2)
        env = {"col": 0, "n": 5}
        assert sp.plan("a").increment_s == Point.of(1)
        assert sp.plan("b").increment_s == Point.of(-1)
        assert sp.plan("b").first_s.evaluate(env) == Point.of(5)
        assert sp.plan("b").last_s.evaluate(env) == Point.of(0)
        assert sp.plan("b").first_s.collapse() == AffineVec.of(n)
        assert sp.plan("b").last_s.collapse() == AffineVec.of(0)

    def test_c_stationary_uses_loading_vector(self):
        sp = compiled(polynomial_product_program, polyprod_design_d2)
        assert sp.plan("c").stationary
        assert sp.plan("c").increment_s == Point.of(1)
        env = {"col": 0, "n": 5}
        assert sp.plan("c").first_s.evaluate(env) == Point.of(0)
        assert sp.plan("c").last_s.evaluate(env) == Point.of(10)
        assert sp.plan("c").last_s.collapse() == AffineVec.of(2 * n)


class TestE1IO:
    """E.1.4's summary table: first_a=(col,0), last_a=(col,n),
    first_b=(0,row), last_b=(n,row), first_c=(0,row), last_c=(n,row)."""

    def test_table(self):
        sp = compiled(matrix_product_program, matmul_design_e1)
        env = {"col": 2, "row": 1, "n": 4}
        assert sp.plan("a").first_s.evaluate(env) == Point.of(2, 0)
        assert sp.plan("a").last_s.evaluate(env) == Point.of(2, 4)
        assert sp.plan("b").first_s.evaluate(env) == Point.of(0, 1)
        assert sp.plan("b").last_s.evaluate(env) == Point.of(4, 1)
        assert sp.plan("c").first_s.evaluate(env) == Point.of(0, 1)
        assert sp.plan("c").last_s.evaluate(env) == Point.of(4, 1)

    def test_increments(self):
        sp = compiled(matrix_product_program, matmul_design_e1)
        assert sp.plan("a").increment_s == Point.of(0, 1)
        assert sp.plan("b").increment_s == Point.of(1, 0)
        assert sp.plan("c").increment_s == Point.of(1, 0)  # loading vector

    def test_closed_forms(self):
        """The E.1.4 table and E.1.5's soak/drain as symbolic forms."""
        sp = compiled(matrix_product_program, matmul_design_e1)
        assert sp.plan("a").first_s.collapse() == AffineVec.of(col, 0)
        assert sp.plan("a").last_s.collapse() == AffineVec.of(col, n)
        assert sp.plan("b").first_s.collapse() == AffineVec.of(0, row)
        assert sp.plan("b").last_s.collapse() == AffineVec.of(n, row)
        assert sp.plan("c").first_s.collapse() == AffineVec.of(0, row)
        assert sp.plan("c").last_s.collapse() == AffineVec.of(n, row)
        for name in ("a", "b"):
            assert sp.plan(name).soak.collapse() == Affine.constant(0)
            assert sp.plan(name).drain.collapse() == Affine.constant(0)
        assert sp.plan("c").drain.collapse() == n - col  # loading
        assert sp.plan("c").soak.collapse() == col  # recovery


class TestE2IO:
    """E.2.4: first_a = (0,-col) | (col,0); last_a = (n+col,n) | (n,n-col);
    symmetrically for b; first_c = (0,row-col) | (col-row,0)."""

    def test_increments(self):
        sp = compiled(matrix_product_program, matmul_design_e2)
        for name in ("a", "b", "c"):
            assert sp.plan(name).increment_s == Point.of(1, 1)

    def test_first_a(self):
        sp = compiled(matrix_product_program, matmul_design_e2)
        assert sp.plan("a").first_s.evaluate({"col": -2, "row": 0, "n": 4}) == Point.of(0, 2)
        assert sp.plan("a").first_s.evaluate({"col": 2, "row": 0, "n": 4}) == Point.of(2, 0)

    def test_last_a(self):
        sp = compiled(matrix_product_program, matmul_design_e2)
        assert sp.plan("a").last_s.evaluate({"col": -2, "row": 0, "n": 4}) == Point.of(2, 4)
        assert sp.plan("a").last_s.evaluate({"col": 2, "row": 0, "n": 4}) == Point.of(4, 2)

    def test_first_b(self):
        sp = compiled(matrix_product_program, matmul_design_e2)
        assert sp.plan("b").first_s.evaluate({"col": 0, "row": -2, "n": 4}) == Point.of(2, 0)
        assert sp.plan("b").first_s.evaluate({"col": 0, "row": 2, "n": 4}) == Point.of(0, 2)

    def test_first_c_depends_on_diagonal(self):
        sp = compiled(matrix_product_program, matmul_design_e2)
        assert sp.plan("c").first_s.evaluate({"col": 1, "row": 3, "n": 4}) == Point.of(0, 2)
        assert sp.plan("c").first_s.evaluate({"col": 3, "row": 1, "n": 4}) == Point.of(2, 0)

    def test_null_pipe_in_corner(self):
        """c's pipes through the PS corners miss VS.c entirely."""
        sp = compiled(matrix_product_program, matmul_design_e2)
        assert sp.plan("c").first_s.evaluate({"col": 4, "row": -4, "n": 4}) is None


class TestSoakDrain:
    def test_d1_values(self):
        """D.1.5: soak_b = drain_b = 0; soak_c = col, drain_c = n - col;
        loading a = n - col, recovery a = col."""
        sp = compiled(polynomial_product_program, polyprod_design_d1)
        for c in range(6):
            env = {"col": c, "n": 5}
            assert sp.plan("b").soak.evaluate(env) == 0
            assert sp.plan("b").drain.evaluate(env) == 0
            assert sp.plan("c").soak.evaluate(env) == c
            assert sp.plan("c").drain.evaluate(env) == 5 - c
            assert sp.plan("a").drain.evaluate(env) == 5 - c  # loading passes
            assert sp.plan("a").soak.evaluate(env) == c  # recovery passes

    def test_d2_values(self):
        """D.2.5: per-clause soak/drain for a and b."""
        sp = compiled(polynomial_product_program, polyprod_design_d2)
        nv = 5
        for c in range(2 * nv + 1):
            env = {"col": c, "n": nv}
            soak_a = sp.plan("a").soak.evaluate(env)
            drain_a = sp.plan("a").drain.evaluate(env)
            soak_b = sp.plan("b").soak.evaluate(env)
            drain_b = sp.plan("b").drain.evaluate(env)
            assert soak_a == (0 if c <= nv else c - nv)
            assert drain_a == (nv - c if c <= nv else 0)
            assert soak_b == (nv - c if c <= nv else 0)
            assert drain_b == (0 if c <= nv else c - nv)
            # c stationary: loading = 2n - col, recovery = col
            assert sp.plan("c").drain.evaluate(env) == 2 * nv - c
            assert sp.plan("c").soak.evaluate(env) == c

    def test_e1_no_soak_drain_for_moving(self):
        """E.1.5: M.s.first = first_s for a and b -- no soaking/draining;
        c loads n-col passes and recovers col passes."""
        sp = compiled(matrix_product_program, matmul_design_e1)
        for cc in range(4):
            for rr in range(4):
                env = {"col": cc, "row": rr, "n": 3}
                assert sp.plan("a").soak.evaluate(env) == 0
                assert sp.plan("a").drain.evaluate(env) == 0
                assert sp.plan("b").soak.evaluate(env) == 0
                assert sp.plan("b").drain.evaluate(env) == 0
                assert sp.plan("c").drain.evaluate(env) == 3 - cc  # loading
                assert sp.plan("c").soak.evaluate(env) == cc  # recovery

    def test_e2_clause_values(self):
        """E.2.5/E.2.7: the nested soak code, evaluated per region.

        The paper's guarded commands may have several true sub-alternatives;
        evaluation picks the first (values agree on overlaps).  E.g. in the
        first clause (col <= 0 <= row-col <= n), sub-case first_a = (0,-col)
        holds, and M.a.first = (0,-col) equals it: soak_a = 0.
        """
        sp = compiled(matrix_product_program, matmul_design_e2)
        nv = 3
        # first-clause region (upper-left of the hexagon)
        env = {"col": -2, "row": 0, "n": nv}
        assert sp.plan("a").soak.evaluate(env) == 0
        assert sp.plan("b").soak.evaluate(env) == 2  # row - col
        assert sp.plan("c").soak.evaluate(env) == 0
        # third-clause region (col, row >= 0)
        env = {"col": 1, "row": 2, "n": nv}
        assert sp.plan("a").soak.evaluate(env) == 0
        assert sp.plan("a").drain.evaluate(env) == 1
        assert sp.plan("b").soak.evaluate(env) == 0
        assert sp.plan("c").soak.evaluate(env) == 1  # row - col
        # second-clause region (row <= 0 <= col - row)
        env = {"col": 1, "row": -1, "n": nv}
        assert sp.plan("a").soak.evaluate(env) == 1  # col - row - ... = 1
        assert sp.plan("b").soak.evaluate(env) == 0
        assert sp.plan("b").drain.evaluate(env) == 1
        assert sp.plan("c").soak.evaluate(env) == 0


class TestPipeConservation:
    """soak + count + drain == pipe length for every computation process,
    in every design -- the invariant that makes the propagation protocol
    work.  Checked by brute force against the symbolic formulas."""

    @pytest.mark.parametrize("design_idx", [0, 1, 2, 3])
    def test_conservation(self, design_idx):
        exp_id, prog, array = all_paper_designs()[design_idx]
        sp = compile_systolic(prog, array)
        env = {"n": 3}
        ps = sp.process_space(env)
        for y in ps:
            binding = sp.bind(y, env)
            count = sp.count.evaluate(binding)
            for plan in sp.streams:
                first_s = plan.first_s.evaluate(binding)
                if count is None or count == 0:
                    continue  # null process: covered by pass_amount
                soak = plan.soak.evaluate(binding)
                drain = plan.drain.evaluate(binding)
                total = plan.pass_amount.evaluate(binding)
                assert first_s is not None
                assert soak is not None and drain is not None
                assert soak >= 0 and drain >= 0, f"{exp_id} {y} {plan.name}"
                if plan.stationary:
                    # the process retains exactly one element: recovery
                    # passes (soak) + itself + loading passes (drain)
                    assert soak + 1 + drain == total, (
                        f"{exp_id} {y} {plan.name}: {soak}+1+{drain} != {total}"
                    )
                else:
                    assert soak + count + drain == total, (
                        f"{exp_id} {y} {plan.name}: {soak}+{count}+{drain} != {total}"
                    )

    @pytest.mark.parametrize("design_idx", [0, 1, 2, 3])
    def test_pass_amount_matches_enumeration(self, design_idx):
        """Eq. 10 equals the actual number of variable elements on the pipe."""
        exp_id, prog, array = all_paper_designs()[design_idx]
        sp = compile_systolic(prog, array)
        env = {"n": 3}
        index_space = prog.index_space(env)
        ps = sp.process_space(env)
        for plan in sp.streams:
            stream = plan.stream
            transport = plan.transport
            for y in ps:
                binding = sp.bind(y, env)
                total = plan.pass_amount.evaluate(binding)
                # enumerate the pipe through y along the transport direction
                from repro.geometry import Line, integer_direction

                direction = integer_direction(transport)
                line = Line(y, direction)
                pipe = [
                    z
                    for z in line.lattice_points_between(ps.lo, ps.hi)
                ]
                elems = set()
                for z in pipe:
                    bz = sp.bind(z, env)
                    cases = sp.first.matching_cases(bz)
                    if not cases and sp.first.has_default:
                        continue
                    for x in index_space:
                        if array.place_of(x) == z:
                            elems.add(stream.element_of(x))
                expected = len(elems) if elems else None
                assert total == expected, (
                    f"{exp_id} {plan.name} at {y}: Eq.10 gives {total}, "
                    f"enumeration gives {expected}"
                )


class TestE2Buffers:
    """E.2.6: corner buffers pass n+col+1 / n-col+1 elements of a (and the
    symmetric amounts of b) and nothing of c."""

    def test_amounts(self):
        sp = compiled(matrix_product_program, matmul_design_e2)
        nv = 3
        env = {"col": -1, "row": 3, "n": nv}  # col-row = -4 < -n: a buffer point
        assert not sp.in_computation_space(Point.of(-1, 3), {"n": nv})
        assert sp.plan("a").pass_amount.evaluate(env) == nv + (-1) + 1
        assert sp.plan("b").pass_amount.evaluate(env) == nv - 3 + 1
        assert sp.plan("c").pass_amount.evaluate(env) is None  # no c elements

    def test_internal_buffer_counts(self):
        d1 = compiled(polynomial_product_program, polyprod_design_d1)
        assert d1.plan("b").internal_buffers() == 1
        assert d1.plan("a").internal_buffers() == 0
        e2 = compiled(matrix_product_program, matmul_design_e2)
        assert all(p.internal_buffers() == 0 for p in e2.streams)
