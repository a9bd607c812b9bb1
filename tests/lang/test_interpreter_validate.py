"""Tests for the sequential oracle, validator and dependence analysis."""

from fractions import Fraction
from pathlib import Path

import pytest

from repro.fuzz.corpus import corpus_files, load_reproducer
from repro.geometry import Matrix, Point
from repro.lang import (
    check_step_function,
    dependence_vectors,
    parse_program,
    run_sequential,
    validate_program,
)
from repro.lang.interpreter import checked_values, initial_state
from repro.systolic import all_paper_designs
from repro.util.errors import (
    GeometryError,
    RequirementViolation,
    RestrictionViolation,
    SourceProgramError,
    SystolicSpecError,
)
from repro.verify import random_inputs
from tests.lang.test_parser_program import MATMUL, POLYPROD


def poly_inputs(n):
    return {
        "a": {Point.of(i): i + 1 for i in range(n + 1)},
        "b": {Point.of(j): 2 * j + 1 for j in range(n + 1)},
        "c": 0,
    }


class TestSequentialOracle:
    def test_polyprod_matches_direct_computation(self):
        n = 4
        p = parse_program(POLYPROD)
        final = run_sequential(p, {"n": n}, poly_inputs(n))
        a = [i + 1 for i in range(n + 1)]
        b = [2 * j + 1 for j in range(n + 1)]
        expect = [0] * (2 * n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                expect[i + j] += a[i] * b[j]
        assert [final["c"][Point.of(k)] for k in range(2 * n + 1)] == expect

    def test_matmul_matches_numpy(self):
        np = pytest.importorskip("numpy")

        n = 3
        p = parse_program(MATMUL)
        rng = np.random.default_rng(42)
        a = rng.integers(-5, 6, size=(n + 1, n + 1))
        b = rng.integers(-5, 6, size=(n + 1, n + 1))
        inputs = {
            "a": {Point.of(i, k): int(a[i, k]) for i in range(n + 1) for k in range(n + 1)},
            "b": {Point.of(k, j): int(b[k, j]) for k in range(n + 1) for j in range(n + 1)},
            "c": 0,
        }
        final = run_sequential(p, {"n": n}, inputs)
        expect = a @ b
        for i in range(n + 1):
            for j in range(n + 1):
                assert final["c"][Point.of(i, j)] == expect[i, j]

    def test_inputs_default_zero(self):
        p = parse_program(POLYPROD)
        final = run_sequential(p, {"n": 1})
        assert all(v == 0 for v in final["c"].values())

    def test_missing_input_element_rejected(self):
        p = parse_program(POLYPROD)
        with pytest.raises(SourceProgramError):
            initial_state(p, {"n": 2}, {"a": {Point.of(0): 1}})

    def test_input_outside_space_rejected(self):
        p = parse_program(POLYPROD)
        bad = {Point.of(i): 0 for i in range(5)}  # a has 3 elements at n=2
        with pytest.raises(SourceProgramError):
            initial_state(p, {"n": 2}, {"a": bad})

    @pytest.mark.parametrize("coord", [1.0, True])
    def test_inexact_key_coordinates_rejected(self, coord):
        p = parse_program(POLYPROD)
        a = {(i,): 0 for i in range(3)}
        del a[(1,)]
        a[(coord,)] = 0
        with pytest.raises(GeometryError):
            initial_state(p, {"n": 2}, {"a": a})

    def test_numpy_key_coordinates_rejected(self):
        np = pytest.importorskip("numpy")
        p = parse_program(POLYPROD)
        a = {(np.int64(i),): 0 for i in range(3)}
        with pytest.raises(GeometryError):
            initial_state(p, {"n": 2}, {"a": a})

    def test_integral_fraction_key_coordinates_accepted(self):
        p = parse_program(POLYPROD)
        a = {(Fraction(i),): i for i in range(3)}
        state = initial_state(p, {"n": 2}, {"a": a})
        assert state["a"] == {(0,): 0, (1,): 1, (2,): 2}
        assert all(type(c) is int for k in state["a"] for c in k)

    def test_bare_int_keys_rejected_by_name(self):
        p = parse_program(POLYPROD)
        with pytest.raises(SourceProgramError, match="variable a: .*index tuples"):
            initial_state(p, {"n": 2}, {"a": {0: 1, 1: 2, 2: 3}})

    def test_undeclared_input_name_rejected(self):
        p = parse_program(POLYPROD)
        with pytest.raises(SourceProgramError, match="'aa'"):
            initial_state(p, {"n": 2}, {"aa": {(i,): 1 for i in range(3)}})

    def test_elements_come_back_in_row_major_order(self):
        p = parse_program(MATMUL)
        env = {"n": 2}
        a = [((i, k), 3 * i + k) for i in range(3) for k in range(3)]
        state = initial_state(p, env, {"a": dict(reversed(a))})
        assert list(state["a"].items()) == a
        for var in p.variables:
            assert list(state[var.name]) == list(var.space(env))

    def test_guarded_body(self):
        text = """
size n
var a[0..n], b[0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
  if j == 0 -> a[i] := 0
  a[i] := a[i] + b[j]
"""
        p = parse_program(text)
        final = run_sequential(p, {"n": 2}, {"b": {Point.of(j): j for j in range(3)}, "a": 7})
        # a[i] is reset at j=0 then accumulates b[0]+b[1]+b[2] = 3
        assert all(final["a"][Point.of(i)] == 3 for i in range(3))


def _refusal(program, inputs):
    with pytest.raises((SourceProgramError, GeometryError)) as info:
        initial_state(program, {"n": 2}, inputs)
    return type(info.value).__name__, str(info.value)


class TestCheckedValues:
    """``checked_values``: one input check, row-major values; the fast path
    (int keys in row-major order) and the lookup path agree."""

    def test_fast_path_and_fallbacks_agree(self):
        p = parse_program(MATMUL)
        env = {"n": 2}
        rows = [((i, k), 3 * i + k - 4) for i in range(3) for k in range(3)]
        fast = checked_values(p, env, {"a": dict(rows), "b": 7})
        assert fast["a"] == [v for _, v in rows]
        assert fast["b"] == [7] * 9 and fast["c"] == [0] * 9
        variants = [
            {"a": dict(reversed(rows)), "b": 7},
            {"a": {(Fraction(i), k): v for (i, k), v in rows}, "b": 7},
            {
                "a": {Point(key): v for key, v in rows},
                "b": {(i, k): 7 for i in range(3) for k in range(3)},
            },
        ]
        for inputs in variants:
            assert checked_values(p, env, inputs) == fast
            assert initial_state(p, env, inputs) == initial_state(
                p, env, {"a": dict(rows), "b": 7}
            )

    def test_initial_state_is_the_point_keyed_view(self):
        p = parse_program(POLYPROD)
        env = {"n": 2}
        inputs = poly_inputs(2)
        values = checked_values(p, env, inputs)
        state = initial_state(p, env, inputs)
        for var in p.variables:
            assert list(state[var.name]) == list(var.space(env))
            assert list(state[var.name].values()) == values[var.name]
            assert all(type(k) is Point for k in state[var.name])

    def test_fast_path_returns_the_given_objects(self):
        p = parse_program(POLYPROD)
        big = [10**40 + i for i in range(3)]
        a = {(i,): big[i] for i in range(3)}
        values = checked_values(p, {"n": 2}, {"a": a})["a"]
        assert all(x is y for x, y in zip(values, big))

    def test_point_keys_in_order_are_the_callers_keys(self):
        from repro.verify.equivalence import random_inputs

        p = parse_program(MATMUL)
        env = {"n": 2}
        inputs = random_inputs(p, env, seed=3)
        state = initial_state(p, env, inputs)
        for name, given in inputs.items():
            assert state[name] == given and state[name] is not given
            assert all(x is y for x, y in zip(state[name], given))
        run_sequential(p, env, inputs)  # mutates its own copy only
        assert inputs == random_inputs(p, env, seed=3)

    def test_in_order_keys_with_one_wrong_element_take_the_lookup_path(self):
        p = parse_program(POLYPROD)
        a = {(0,): 1, (1,): 2, (3,): 3}  # right length, one key outside
        assert _refusal(p, {"a": a}) == (
            "SourceProgramError", "variable a: missing values for [(2)]..."
        )

    @pytest.mark.parametrize(
        "program, inputs, refusal",
        [
            (POLYPROD, {"a": {(0,): 1}},
             ("SourceProgramError", "variable a: missing values for [(1), (2)]...")),
            (MATMUL, {"a": {(0, 0): 1}},
             ("SourceProgramError",
              "variable a: missing values for [(0, 1), (0, 2), (1, 0)]...")),
            (POLYPROD, {"a": {(i,): 0 for i in range(5)}},
             ("SourceProgramError", "variable a: values outside its space: [(3,), (4,)]...")),
            (POLYPROD, {"a": {(Fraction(i),): 0 for i in range(5)}},
             ("SourceProgramError", "variable a: values outside its space: [(3), (4)]...")),
            (POLYPROD, {"a": {(0,): 0, (1.0,): 0, (2,): 0}},
             ("GeometryError", "expected an exact number, got 1.0")),
            (POLYPROD, {"a": {(0,): 0, (True,): 0, (2,): 0}},
             ("GeometryError", "expected an exact number, got True")),
            (POLYPROD, {"a": {0: 1, 1: 2, 2: 3}},
             ("SourceProgramError",
              "variable a: element keys must be index tuples, got 0")),
            (POLYPROD, {"aa": {(i,): 1 for i in range(3)}, "zz": 0},
             ("SourceProgramError", "inputs for undeclared variable(s) ['aa', 'zz']")),
            (POLYPROD, {"a": {(i, 0): 1 for i in range(3)}},
             ("SourceProgramError", "variable a: missing values for [(0), (1), (2)]...")),
        ],
        ids=["missing", "missing-2d", "extra", "extra-fraction", "float", "bool",
             "bare-int", "undeclared", "wrong-dimension"],
    )
    def test_refusal_messages(self, program, inputs, refusal):
        assert _refusal(parse_program(program), inputs) == refusal

    def test_numpy_key_refusal_message(self):
        np = pytest.importorskip("numpy")
        a = {(np.int64(i),): 0 for i in range(3)}
        assert _refusal(parse_program(POLYPROD), {"a": a}) == (
            "GeometryError", f"expected an exact number, got {np.int64(0)!r}"
        )


class TestValidate:
    def test_polyprod_valid(self):
        validate_program(parse_program(POLYPROD))

    def test_matmul_valid(self):
        validate_program(parse_program(MATMUL))

    def test_single_loop_rejected(self):
        from repro.lang.expr import Body, StreamRead, BinOp
        from repro.lang.program import Loop, SourceProgram
        from repro.lang.stream import Stream
        from repro.lang.variables import IndexedVariable

        # One loop: index maps would have to be 0 x 1; not a systolic program.
        prog = SourceProgram(
            loops=(Loop.of("i", 0, 5),),
            streams=(),
            body=Body.single_assign("a", StreamRead("a")),
        )
        with pytest.raises((RequirementViolation, RestrictionViolation)):
            validate_program(prog)

    def test_structure_checked_once_per_program(self, monkeypatch):
        import dataclasses

        from repro.core import compile_systolic
        from repro.lang import validate
        from repro.systolic import polynomial_product_program, polyprod_design_d1

        calls = []
        check = validate._check_structure

        def spy(program):
            calls.append(program)
            check(program)

        monkeypatch.setattr(validate, "_check_structure", spy)
        prog = dataclasses.replace(polynomial_product_program())
        compile_systolic(prog, polyprod_design_d1())
        compile_systolic(prog, polyprod_design_d1())
        assert calls == [prog]

    def test_invalid_structure_raises_every_call(self, monkeypatch):
        from repro.lang import validate

        calls = []
        check = validate._check_structure

        def spy(program):
            calls.append(program)
            check(program)

        monkeypatch.setattr(validate, "_check_structure", spy)
        text = """
size n
var a[0..n, 0..n], b[0..n, 0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
  a[i,j] := a[i,j] + b[j,i]
"""
        prog = parse_program(text)
        for _ in range(2):
            with pytest.raises((RequirementViolation, RestrictionViolation)):
                validate_program(prog)
        assert calls == [prog, prog]

    def test_wrong_variable_dimension(self):
        text = """
size n
var a[0..n, 0..n], b[0..n, 0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
  a[i,j] := a[i,j] + b[j,i]
"""
        # 2-d variables in a 2-loop program: must be (r-1)=1-dimensional.
        with pytest.raises((RequirementViolation, RestrictionViolation)):
            validate_program(parse_program(text))

    def test_partial_coverage_rejected(self):
        text = """
size n
var a[0..2*n], b[0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
  a[i] := a[i] + b[j]
"""
        # a has 2n+1 elements but only n+1 are accessed
        with pytest.raises(RestrictionViolation):
            validate_program(parse_program(text))


class TestDependence:
    def test_polyprod_vectors(self):
        p = parse_program(POLYPROD)
        deps = dependence_vectors(p)
        assert deps["a"] == Point.of(0, 1)
        assert deps["b"] == Point.of(1, 0)
        assert deps["c"] == Point.of(1, -1)

    def test_matmul_vectors(self):
        p = parse_program(MATMUL)
        deps = dependence_vectors(p)
        assert deps["a"] == Point.of(0, 1, 0)
        assert deps["b"] == Point.of(1, 0, 0)
        assert deps["c"] == Point.of(0, 0, 1)

    def test_negative_step_orientation(self):
        text = """
size n
var a[0..n], b[0..n]
for i = 0 <- 1 -> n
for j = 0 <- -1 -> n
  a[i] := a[i] + b[j]
"""
        p = parse_program(text)
        # loop j runs from n down to 0, so the a-dependence points along -j
        assert dependence_vectors(p)["a"] == Point.of(0, -1)

    def test_paper_step_functions_valid(self):
        check_step_function(parse_program(POLYPROD), Matrix([[2, 1]]))
        check_step_function(parse_program(MATMUL), Matrix([[1, 1, 1]]))

    def test_violating_step_rejected(self):
        # step = i - j maps the c-dependence (1,-1) to 2 > 0 but the
        # a-dependence (0,1) to -1 < 0 -- a is read-only, so the failure is
        # b/c of the written stream? a is read-only: -1 != 0 is fine.
        # b-dependence (1,0) -> 1 > 0.  c is written: (1,-1) -> 2 > 0. Valid!
        check_step_function(parse_program(POLYPROD), Matrix([[1, -1]]))
        # step = j - i maps written stream c's dependence (1,-1) to -2.
        with pytest.raises(SystolicSpecError):
            check_step_function(parse_program(POLYPROD), Matrix([[-1, 1]]))

    def test_zero_step_for_readonly_rejected(self):
        # step = (1, 0) maps a's dependence (0,1) to 0: shared access.
        with pytest.raises(SystolicSpecError):
            check_step_function(parse_program(POLYPROD), Matrix([[1, 0]]))

    def test_bad_shape(self):
        with pytest.raises(SystolicSpecError):
            check_step_function(parse_program(POLYPROD), Matrix([[1, 1, 1]]))


class TestElementOf:
    """``Stream.element_of`` is ``M.x`` in integer arithmetic, so the
    oracle's per-statement lookups build no rational ``Point``."""

    def test_run_sequential_calls_no_apply_point(self, monkeypatch):
        prog = next(p for eid, p, _ in all_paper_designs() if eid == "E2")
        env = {"n": 3}
        inputs = random_inputs(prog, env, seed=0)
        calls = []
        real = Matrix.apply_point

        def spy(self, vector):
            calls.append(vector)
            return real(self, vector)

        monkeypatch.setattr(Matrix, "apply_point", spy)
        run_sequential(prog, env, inputs)
        assert calls == []

    def test_agrees_with_apply_point(self):
        cases = [(p, {"n": 4}) for _, p, _ in all_paper_designs()]
        corpus = Path(__file__).resolve().parent.parent / "fuzz_corpus"
        for path in corpus_files(corpus):
            instance, _config, _raw = load_reproducer(path)
            cases.append((instance.program, instance.env))
        assert len(cases) == 10
        for prog, env in cases:
            for s in prog.streams:
                for x in prog.index_space(env):
                    el = s.element_of(x)
                    assert el == s.index_map.apply_point(x)
                    assert type(el) is Point
                    assert all(type(c) is int for c in el)
