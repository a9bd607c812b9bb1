"""Error-path tests for the compilation driver."""

import dataclasses

import pytest

from repro.core import compile_systolic
from repro.geometry import Matrix, Point
from repro.lang import parse_program, validate_program
from repro.lang import validate as validate_module
from repro.lang.expr import BinOp, Body, StreamRead
from repro.systolic.designs import polyprod_design_d1
from repro.systolic import (
    SystolicArray,
    matrix_product_program,
    polynomial_product_program,
)
from repro.util.errors import (
    CompilationError,
    InconsistentDistributionError,
    RequirementViolation,
    RestrictionViolation,
)


class TestCoordinateHandling:
    def test_custom_coords(self):
        sp = compile_systolic(
            matrix_product_program(),
            SystolicArray(
                step=Matrix([[1, 1, 1]]),
                place=Matrix([[1, 0, 0], [0, 1, 0]]),
                loading_vectors={"c": Point.of(1, 0)},
            ),
            coords=("px", "py"),
        )
        assert sp.coords == ("px", "py")
        assert sp.first.collapse().free_symbols <= {"px", "py", "n"}

    def test_wrong_coord_count(self):
        with pytest.raises(CompilationError):
            compile_systolic(
                polynomial_product_program(),
                SystolicArray(
                    step=Matrix([[2, 1]]),
                    place=Matrix([[1, 0]]),
                    loading_vectors={"a": Point.of(1)},
                ),
                coords=("x", "y"),
            )

    def test_coord_clash_with_loop_index(self):
        with pytest.raises(CompilationError):
            compile_systolic(
                polynomial_product_program(),
                SystolicArray(
                    step=Matrix([[2, 1]]),
                    place=Matrix([[1, 0]]),
                    loading_vectors={"a": Point.of(1)},
                ),
                coords=("i",),
            )

    def test_coord_clash_with_size_symbol(self):
        with pytest.raises(CompilationError):
            compile_systolic(
                polynomial_product_program(),
                SystolicArray(
                    step=Matrix([[2, 1]]),
                    place=Matrix([[1, 0]]),
                    loading_vectors={"a": Point.of(1)},
                ),
                coords=("n",),
            )

    def test_default_coords_high_dim(self):
        from repro.core.scheme import default_coords

        assert default_coords(1) == ("col",)
        assert default_coords(2) == ("col", "row")
        assert default_coords(3) == ("y0", "y1", "y2")


class TestRestrictionDiagnostics:
    def test_incompatible_distributions(self):
        with pytest.raises(InconsistentDistributionError):
            compile_systolic(
                polynomial_product_program(),
                SystolicArray(step=Matrix([[1, 0]]), place=Matrix([[1, 0]])),
            )

    def test_missing_loading_vector(self):
        # a comes out stationary under place=(i) but no vector given
        from repro.util.errors import SystolicSpecError

        with pytest.raises(SystolicSpecError):
            compile_systolic(
                polynomial_product_program(),
                SystolicArray(step=Matrix([[2, 1]]), place=Matrix([[1, 0]])),
            )

    def test_validate_false_skips_source_checks(self):
        """validate=False trusts the caller (used by the explorer)."""
        sp = compile_systolic(
            polynomial_product_program(),
            SystolicArray(
                step=Matrix([[2, 1]]),
                place=Matrix([[1, 0]]),
                loading_vectors={"a": Point.of(1)},
            ),
            validate=False,
        )
        assert sp.simple

    def test_increment_restriction_message(self):
        with pytest.raises(RestrictionViolation) as err:
            compile_systolic(
                polynomial_product_program(),
                SystolicArray(
                    step=Matrix([[2, 1]]),
                    place=Matrix([[1, 2]]),
                    loading_vectors={},
                ),
                validate=False,
            )
        assert "increment" in str(err.value)

    def test_flow_requirement_message(self):
        with pytest.raises(RequirementViolation) as err:
            compile_systolic(
                polynomial_product_program(),
                SystolicArray(step=Matrix([[2, 1]]), place=Matrix([[1, -1]])),
            )
        assert "flow" in str(err.value) or "1/n" in str(err.value)


class TestValidationOnce:
    def test_invalid_body_names_the_restriction(self):
        """The program is validated before it is fingerprinted: rendering
        the source of a body that assigns an undeclared stream fails with a
        bare KeyError."""
        program = dataclasses.replace(
            polynomial_product_program(),
            body=Body.single_assign("z", BinOp("+", StreamRead("a"), StreamRead("b"))),
        )
        with pytest.raises(RestrictionViolation, match="does not access"):
            compile_systolic(program, polyprod_design_d1())

    def test_coverage_checked_once_per_program(self, monkeypatch):
        program = dataclasses.replace(
            polynomial_product_program(), name="coverage_once_probe"
        )
        calls = []
        check = validate_module._check_coverage
        monkeypatch.setattr(
            validate_module,
            "_check_coverage",
            lambda p, env: (calls.append(env), check(p, env))[1],
        )
        validate_program(program)
        compile_systolic(program, polyprod_design_d1())
        assert calls == [{"n": 3}]

    def test_invalid_program_raises_every_time(self):
        program = parse_program("""
size n
var a[0..2*n], b[0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
  a[i] := a[i] + b[j]
""")
        for _ in range(2):
            with pytest.raises(RestrictionViolation, match="never accessed"):
                validate_program(program)
