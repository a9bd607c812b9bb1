"""Tests for array checking and for step/place synthesis."""

import functools
import itertools
import random

import pytest

from repro.fuzz.generator import generate_program
from repro.geometry import Matrix, Point, null_space_vector
from repro.systolic import (
    SystolicArray,
    all_paper_designs,
    check_systolic_array,
    makespan,
    matrix_product_program,
    polynomial_product_program,
    synthesize_array,
    synthesize_places,
    synthesize_step,
)
from repro.systolic.flow import flow_denominator, is_stationary, stream_flow
from repro.util.errors import (
    InconsistentDistributionError,
    RequirementViolation,
    SystolicSpecError,
)


class TestCheckSystolicArray:
    def test_all_paper_designs_pass(self):
        for exp_id, prog, array in all_paper_designs():
            check_systolic_array(array, prog)

    def test_incompatible_step_place(self):
        # place=(i), step=(1,0): step vanishes on null.place=(0,1)
        prog = polynomial_product_program()
        array = SystolicArray(
            step=Matrix([[1, 0]]),
            place=Matrix([[1, 0]]),
            loading_vectors={"a": Point.of(1)},
        )
        with pytest.raises(InconsistentDistributionError):
            check_systolic_array(array, prog)

    def test_non_neighbour_flow_rejected(self):
        # D.2.3's note: place=(i-j) gives flow.c = 2
        prog = polynomial_product_program()
        array = SystolicArray(step=Matrix([[2, 1]]), place=Matrix([[1, -1]]))
        with pytest.raises(RequirementViolation):
            check_systolic_array(array, prog)

    def test_arity_mismatch(self):
        prog = matrix_product_program()
        with pytest.raises(SystolicSpecError):
            check_systolic_array(
                SystolicArray(step=Matrix([[2, 1]]), place=Matrix([[1, 0]])), prog
            )

    def test_bad_loading_vector_neighbourhood(self):
        prog = matrix_product_program()
        array = SystolicArray(
            step=Matrix([[1, 1, 1]]),
            place=Matrix([[1, 0, 0], [0, 1, 0]]),
            loading_vectors={"c": Point.of(2, 0)},  # not a neighbour hop
        )
        with pytest.raises(RequirementViolation):
            check_systolic_array(array, prog)


class TestMakespan:
    def test_polyprod_step(self):
        prog = polynomial_product_program()
        # step = 2i+j over [0,n]^2 spans 0 .. 3n, so makespan = 3n+1
        assert makespan(prog, Matrix([[2, 1]]), {"n": 4}) == 13

    def test_matmul_step(self):
        prog = matrix_product_program()
        assert makespan(prog, Matrix([[1, 1, 1]]), {"n": 4}) == 13


class TestSynthesizeStep:
    def test_polyprod_optimum(self):
        """The synthesiser can beat the paper's step 2i+j: step i-j has
        makespan 2n+1 (a's dependence is read-only, so a negative step
        component along j is legal).  The paper's step must still be valid,
        just not minimal under this metric."""
        prog = polynomial_product_program()
        best = synthesize_step(prog, bound=2)
        spans = {makespan(prog, s, {"n": 4}) for s in best}
        assert spans == {9}  # 2n+1 at n=4
        assert Matrix([[1, -1]]) in best
        # the paper's step is valid but spans 3n+1:
        from repro.lang import check_step_function

        check_step_function(prog, Matrix([[2, 1]]))
        assert makespan(prog, Matrix([[2, 1]]), {"n": 4}) == 13

    def test_matmul_optimum_contains_paper_step(self):
        prog = matrix_product_program()
        best = synthesize_step(prog, bound=1)
        assert Matrix([[1, 1, 1]]) in best

    def test_all_results_valid(self):
        from repro.lang import check_step_function

        prog = polynomial_product_program()
        for s in synthesize_step(prog, bound=2):
            check_step_function(prog, s)

    def test_impossible_bound(self):
        # bound=0 leaves no non-zero candidates
        prog = polynomial_product_program()
        with pytest.raises(SystolicSpecError):
            synthesize_step(prog, bound=0)


class TestSynthesizePlaces:
    def test_polyprod_contains_paper_places(self):
        prog = polynomial_product_program()
        places = synthesize_places(prog, Matrix([[2, 1]]), bound=1)
        assert Matrix([[1, 0]]) in places
        assert Matrix([[1, 1]]) in places

    def test_paper_d23_place_excluded(self):
        # place=(i-j) has flow.c = 2: excluded by the neighbour filter
        prog = polynomial_product_program()
        places = synthesize_places(prog, Matrix([[2, 1]]), bound=1)
        assert Matrix([[1, -1]]) not in places
        unfiltered = synthesize_places(
            prog, Matrix([[2, 1]]), bound=1, require_neighbour_flows=False
        )
        assert Matrix([[1, -1]]) in unfiltered

    def test_matmul_contains_both_paper_places(self):
        """Places are deduplicated up to row order, so compare row sets."""
        prog = matrix_product_program()
        places = synthesize_places(prog, Matrix([[1, 1, 1]]), bound=1)
        row_sets = {frozenset(p.rows) for p in places}
        assert frozenset({(1, 0, 0), (0, 1, 0)}) in row_sets
        assert frozenset({(1, 0, -1), (0, 1, -1)}) in row_sets

    def test_all_results_have_full_rank(self):
        prog = matrix_product_program()
        for p in synthesize_places(prog, Matrix([[1, 1, 1]]), bound=1):
            assert p.rank == prog.r - 1


class TestSynthesizeArray:
    def test_polyprod_end_to_end(self):
        prog = polynomial_product_program()
        array = synthesize_array(prog)
        check_systolic_array(array, prog)

    def test_matmul_end_to_end(self):
        prog = matrix_product_program()
        array = synthesize_array(prog)
        check_systolic_array(array, prog)


# ----------------------------------------------------------------------
# the place search against its rational definition
# ----------------------------------------------------------------------
def _reference_places(program, step, bound, require_neighbour_flows):
    """The place search by its definition, in rational arithmetic: every
    ``(r-1)``-combination of non-zero rows with coefficients in
    ``[-bound, bound]``, in ``itertools.combinations`` order, kept when it
    has rank ``r-1``, ``step . null_p != 0`` (Eq. 1) and -- if asked --
    every stream's flow ``place.d / step.d`` is stationary or passes
    ``flow_denominator``."""
    streams = [
        (d, step.apply_point(d)[0])
        for d in (s.null_direction() for s in program.streams)
    ]
    kept = []
    for place, null_p in _full_rank_candidates(program.r, bound):
        if step.apply_point(null_p)[0] == 0:
            continue
        if require_neighbour_flows and not all(
            den != 0 and _neighbour(place.apply_point(d) / den)
            for d, den in streams
        ):
            continue
        kept.append(place)
    return kept


def _neighbour(flow):
    if is_stationary(flow):
        return True
    try:
        flow_denominator(flow)
    except RequirementViolation:
        return False
    return True


@functools.lru_cache(maxsize=None)
def _full_rank_candidates(r, bound):
    """``(place, null_p)`` for every rank-``(r-1)`` candidate, in order."""
    rows = [
        Point(c)
        for c in itertools.product(range(-bound, bound + 1), repeat=r)
        if any(c)
    ]
    places = (Matrix(combo) for combo in itertools.combinations(rows, r - 1))
    return tuple(
        (place, null_space_vector(place)) for place in places if place.rank == r - 1
    )


def _rejection(program, step, place):
    """Why ``place`` is not a valid place for ``step`` (``None`` if it is),
    by the definition through ``stream_flow``/``flow_denominator``."""
    if place.rank != program.r - 1:
        return "rank"
    if step.apply_point(null_space_vector(place))[0] == 0:
        return "eq1"
    array = SystolicArray(step=step, place=place)
    for stream in program.streams:
        flow = stream_flow(array, stream)
        if not is_stationary(flow):
            try:
                flow_denominator(flow)
            except RequirementViolation as exc:
                return "mixed" if "mixed" in str(exc) else "magnitude"
    return None


class TestPlaceSearchMatchesDefinition:
    """``synthesize_places`` decides each candidate with one integer
    determinant and integer flow magnitudes; the list it returns, order
    included, is the one the rational definition gives.  The fuzz generator
    feeds the list's length and order into ``rng.sample``."""

    def test_generator_programs_every_minimal_step(self):
        checked = 0
        for seed in range(200):
            program = generate_program(random.Random(seed))
            try:
                steps = synthesize_step(program)
            except SystolicSpecError:
                continue
            for step in steps:
                for flows in (True, False):
                    got = synthesize_places(
                        program, step, require_neighbour_flows=flows
                    )
                    assert got == _reference_places(program, step, 1, flows), (
                        seed, step.rows, flows
                    )
                    checked += 1
        assert checked > 400

    def test_bound_two_on_two_loop_programs(self):
        programs = [polynomial_product_program()] + [
            p
            for p in (generate_program(random.Random(s)) for s in range(40))
            if p.r == 2
        ]
        for program in programs:
            for step in synthesize_step(program):
                for flows in (True, False):
                    got = synthesize_places(
                        program, step, bound=2, require_neighbour_flows=flows
                    )
                    assert got == _reference_places(program, step, 2, flows)

    @pytest.mark.parametrize(
        "step, rows, reason",
        [
            # two parallel rows: rank 1
            ((1, 1, 1), ((1, 0, 0), (-1, 0, 0)), "rank"),
            # null_p = (1, -1, 0) and step . null_p = 0 (Eq. 1)
            ((1, 1, 1), ((1, 1, 0), (0, 0, 1)), "eq1"),
            # flow.b = (-1, -1/2): mixed component magnitudes
            ((2, 1, 1), ((-2, -1, -2), (-1, -1, -2)), "mixed"),
            # flow.c = (0, 2/3): magnitude 2/3 is not 1/n
            ((1, 2, 3), ((-1, -2, 0), (-1, 0, 2)), "magnitude"),
        ],
    )
    def test_named_rejection(self, step, rows, reason):
        program = matrix_product_program()
        step, place = Matrix([step]), Matrix(rows)
        assert _rejection(program, step, place) == reason
        assert place not in synthesize_places(program, step, bound=2)
