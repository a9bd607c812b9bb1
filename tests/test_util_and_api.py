"""Tests for the error hierarchy and the top-level public API surface."""

import pytest

import repro
from repro.util import errors


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__dict__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_violations_are_source_program_errors(self):
        assert issubclass(errors.RequirementViolation, errors.SourceProgramError)
        assert issubclass(errors.RestrictionViolation, errors.SourceProgramError)

    def test_deadlock_is_runtime_error(self):
        assert issubclass(errors.DeadlockError, errors.RuntimeSimulationError)

    def test_inconsistent_is_spec_error(self):
        assert issubclass(
            errors.InconsistentDistributionError, errors.SystolicSpecError
        )

    def test_invalid_argument_is_also_a_value_error(self):
        assert issubclass(errors.InvalidArgumentError, errors.ReproError)
        assert issubclass(errors.InvalidArgumentError, ValueError)

    def test_catching_base_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.DeadlockError("x")
        with pytest.raises(errors.ReproError):
            raise errors.GuardError("x")


class TestCompilationRun:
    @pytest.mark.parametrize("batch", [0, -1])
    def test_an_empty_batch_is_a_named_error(self, batch):
        from repro.compilation import Compilation
        from repro.systolic.designs import (
            polynomial_product_program,
            polyprod_design_d1,
        )

        handle = Compilation.compile(polynomial_product_program(), polyprod_design_d1())
        with pytest.raises(errors.InvalidArgumentError, match=f"got {batch}$"):
            handle.run({"n": 3}, batch=batch)


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_quickstart_docstring_code_runs(self):
        """The module docstring's example is real code; run its essence."""
        from repro import (
            SystolicArray,
            compile_systolic,
            parse_program,
            verify_design,
        )
        from repro.geometry import Matrix, Point

        program = parse_program(
            """
            size n
            var a[0..n], b[0..n], c[0..2*n]
            for i = 0 <- 1 -> n
            for j = 0 <- 1 -> n
                c[i+j] := c[i+j] + a[i] * b[j]
            """
        )
        array = SystolicArray(
            step=Matrix([[2, 1]]),
            place=Matrix([[1, 0]]),
            loading_vectors={"a": Point.of(1)},
        )
        systolic = compile_systolic(program, array)
        report = verify_design(program, array, {"n": 4}, compiled=systolic)
        assert report.matched

    def test_subpackage_docstrings(self):
        """Every public module carries a real docstring."""
        import importlib
        import pkgutil

        bad = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue  # importing it would run the CLI
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                bad.append(info.name)
        assert not bad, f"modules without docstrings: {bad}"


class TestOpsRepr:
    def test_reprs(self):
        from repro.runtime import Channel, Par, Recv, Send

        c = Channel("ch")
        assert "ch" in repr(Send(c, 1))
        assert "ch" in repr(Recv(c))
        assert "Par" in repr(Par([Send(c, 1), Recv(c)]))
        assert "ch" in repr(c)
