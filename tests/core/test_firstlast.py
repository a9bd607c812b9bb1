"""Tests for first/last/count (7.2.2-7.2.3) against the paper's closed forms."""

import pytest

from repro.core import (
    compile_systolic,
    derive_count,
    derive_first,
    derive_increment,
    derive_last,
    is_simple_place,
)
from repro.geometry import Matrix, Point
from repro.runtime import execute
from repro.symbolic import Affine, AffineVec, Piecewise
from repro.systolic import (
    SystolicArray,
    all_paper_designs,
    matmul_design_e1,
    matmul_design_e2,
    matrix_product_program,
    polynomial_product_program,
    polyprod_design_d1,
    polyprod_design_d2,
)
from repro.verify import random_inputs

n = Affine.var("n")
col = Affine.var("col")
row = Affine.var("row")


def compiled(prog_fn, design_fn):
    return compile_systolic(prog_fn(), design_fn())


class TestSimplePlaceDetection:
    def test_d1_simple(self):
        assert is_simple_place(polyprod_design_d1(), Point.of(0, 1))

    def test_d2_not_simple(self):
        assert not is_simple_place(polyprod_design_d2(), Point.of(1, -1))

    def test_e1_simple(self):
        assert is_simple_place(matmul_design_e1(), Point.of(0, 0, 1))

    def test_e2_not_simple(self):
        assert not is_simple_place(matmul_design_e2(), Point.of(1, 1, 1))

    def test_non_permutation_projection_not_simple(self):
        """place = (j+k, k) collapses axis i but shears the box: the
        remaining columns are not a signed permutation, so the no-guard
        shortcut must not apply."""
        array = SystolicArray(
            step=Matrix([[1, 1, 1]]),
            place=Matrix([[0, 1, 1], [0, 0, 1]]),
        )
        assert not is_simple_place(array, Point.of(1, 0, 0))


class TestD1FirstLast:
    """D.1: first = (col, 0), last = (col, n), count = n+1, no guards."""

    def test_first(self):
        sp = compiled(polynomial_product_program, polyprod_design_d1)
        assert len(sp.first.cases) == 1
        assert sp.first.cases[0].guard.is_true
        assert sp.first.cases[0].value == AffineVec.of(col, 0)

    def test_last(self):
        sp = compiled(polynomial_product_program, polyprod_design_d1)
        assert sp.last.cases[0].value == AffineVec.of(col, n)

    def test_count(self):
        sp = compiled(polynomial_product_program, polyprod_design_d1)
        assert sp.count.evaluate({"col": 2, "n": 5}) == 6
        assert sp.simple
        assert sp.count.collapse() == n + 1


class TestPruneAblation:
    """The Fourier-Motzkin pruning pass is the paper's by-hand
    "optimisation before translation": it may shrink the case analyses,
    never change what the program computes."""

    def test_pruning_shrinks_guards(self):
        def guard_atoms(pw):
            return sum(len(case.guard.constraints) for case in pw.cases)

        prog, array = matrix_product_program(), matmul_design_e2()
        raw = compile_systolic(prog, array, prune=False)
        slim = compile_systolic(prog, array)
        for name in ("a", "b", "c"):
            assert guard_atoms(slim.plan(name).first_s) < guard_atoms(
                raw.plan(name).first_s
            )
        # the pruned D1 repeater collapses to a single unguarded form
        d1 = compiled(polynomial_product_program, polyprod_design_d1)
        assert not isinstance(d1.plan("a").first_s.collapse(), Piecewise)

    @pytest.mark.parametrize("design_idx", [0, 1, 2, 3])
    def test_semantics_unchanged_by_pruning(self, design_idx):
        exp_id, prog, array = all_paper_designs()[design_idx]
        raw = compile_systolic(prog, array, prune=False)
        slim = compile_systolic(prog, array)
        env = {"n": 3}
        inputs = random_inputs(prog, env, seed=design_idx)
        assert execute(raw, env, inputs)[0] == execute(slim, env, inputs)[0]


class TestD2FirstLast:
    """D.2: two alternatives each (paper Section D.2.2)."""

    def test_first_cases(self):
        sp = compiled(polynomial_product_program, polyprod_design_d2)
        values = [c.value for c in sp.first.cases]
        assert AffineVec.of(0, col) in values
        assert AffineVec.of(col - n, n) in values

    def test_last_cases(self):
        sp = compiled(polynomial_product_program, polyprod_design_d2)
        values = [c.value for c in sp.last.cases]
        assert AffineVec.of(col, 0) in values
        assert AffineVec.of(n, col - n) in values

    def test_overlap_at_col_n_agrees(self):
        """The paper: guards overlap at col = n and the expressions agree."""
        sp = compiled(polynomial_product_program, polyprod_design_d2)
        env = {"col": 4, "n": 4}
        assert len(sp.first.matching_cases(env)) == 2
        assert sp.first.check_overlaps_agree(env)

    def test_count_piecewise(self):
        sp = compiled(polynomial_product_program, polyprod_design_d2)
        # count = col+1 for 0<=col<=n; 2n-col+1 for n<=col<=2n
        assert sp.count.evaluate({"col": 2, "n": 5}) == 3
        assert sp.count.evaluate({"col": 8, "n": 5}) == 3
        assert sp.count.evaluate({"col": 5, "n": 5}) == 6

    def test_cs_covers_all_of_ps(self):
        """D.2: the guards are simplified under PS membership (their
        implicit domain), and CS = PS -- every process in 0..2n computes."""
        sp = compiled(polynomial_product_program, polyprod_design_d2)
        for c in range(11):
            assert sp.first.evaluate({"col": c, "n": 5}) is not None
        # outside CS (and PS) the *unsimplified* derivation is null
        raw = compile_systolic(
            polynomial_product_program(), polyprod_design_d2(), prune=False
        )
        assert raw.first.evaluate({"col": 99, "n": 5}) is None


class TestE1FirstLast:
    """E.1: first = (col,row,0), last = (col,row,n), count = n+1."""

    def test_values(self):
        sp = compiled(matrix_product_program, matmul_design_e1)
        assert sp.first.cases[0].value == AffineVec.of(col, row, 0)
        assert sp.last.cases[0].value == AffineVec.of(col, row, n)
        assert sp.simple
        assert sp.count.evaluate({"col": 0, "row": 0, "n": 7}) == 8
        assert sp.count.collapse() == n + 1


class TestE2FirstLast:
    """E.2: three alternatives each, matching Section E.2.2 verbatim."""

    def test_first_values(self):
        sp = compiled(matrix_product_program, matmul_design_e2)
        values = [c.value for c in sp.first.cases]
        assert AffineVec.of(0, row - col, -col) in values
        assert AffineVec.of(col - row, 0, -row) in values
        assert AffineVec.of(col, row, 0) in values

    def test_last_values(self):
        sp = compiled(matrix_product_program, matmul_design_e2)
        values = [c.value for c in sp.last.cases]
        assert AffineVec.of(n, row - col + n, n - col) in values
        assert AffineVec.of(col - row + n, n, n - row) in values
        assert AffineVec.of(col + n, row + n, n) in values

    def test_guards_match_paper(self):
        """First clause guard is 0 <= row-col <= n /\\ 0 <= -col <= n."""
        sp = compiled(matrix_product_program, matmul_design_e2)
        case = next(
            c for c in sp.first.cases if c.value == AffineVec.of(0, row - col, -col)
        )
        env_in = {"col": -2, "row": 0, "n": 3}
        env_out = {"col": 1, "row": 0, "n": 3}
        assert case.guard.evaluate(env_in)
        assert not case.guard.evaluate(env_out)

    def test_count_interactions(self):
        """E.2.2: guard interactions give (at least) six distinct counts."""
        sp = compiled(matrix_product_program, matmul_design_e2)
        env = {"n": 3}
        # centre process (0,0) runs the full diagonal: n+1 statements
        assert sp.count.evaluate({**env, "col": 0, "row": 0}) == 4
        # the paper's clause col+n-row+1 at (2,0):
        assert sp.count.evaluate({**env, "col": 2, "row": 0}) == 2

    def test_null_in_corners(self):
        sp = compiled(matrix_product_program, matmul_design_e2)
        # (n, -n) has col-row = 2n > n: outside the hexagon
        assert sp.first.evaluate({"col": 3, "row": -3, "n": 3}) is None


class TestChordConsistency:
    """first/last must be the true step-extremes of each process's chord."""

    @pytest.mark.parametrize("design_idx", [0, 1, 2, 3])
    def test_against_enumeration(self, design_idx):
        from repro.systolic import all_paper_designs

        exp_id, prog, array = all_paper_designs()[design_idx]
        sp = compile_systolic(prog, array)
        env = {"n": 3}
        index_space = prog.index_space(env)
        chords: dict[Point, list[Point]] = {}
        for x in index_space:
            chords.setdefault(array.place_of(x), []).append(x)
        ps = sp.process_space(env)
        for y in ps:
            binding = sp.bind(y, env)
            first = sp.first.evaluate(binding)
            last = sp.last.evaluate(binding)
            chord = chords.get(y)
            if chord is None:
                assert first is None and last is None
                continue
            by_step = sorted(chord, key=lambda x: array.step_of(x))
            assert first == by_step[0], f"{exp_id} {y}: {first} != {by_step[0]}"
            assert last == by_step[-1], f"{exp_id} {y}: {last} != {by_step[-1]}"
            assert sp.count.evaluate(binding) == len(chord)
            assert sp.first.check_overlaps_agree(binding)
            assert sp.last.check_overlaps_agree(binding)
