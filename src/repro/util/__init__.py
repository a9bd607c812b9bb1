"""Shared utilities: error hierarchy and small helpers."""

from repro.util.errors import (
    ReproError,
    GeometryError,
    SingularMatrixError,
    SymbolicError,
    GuardError,
    SourceProgramError,
    RequirementViolation,
    RestrictionViolation,
    SystolicSpecError,
    InconsistentDistributionError,
    CompilationError,
    BackendUnsupportedError,
    MissingDependencyError,
    RuntimeSimulationError,
    DeadlockError,
    VerificationError,
)

__all__ = [
    "ReproError",
    "GeometryError",
    "SingularMatrixError",
    "SymbolicError",
    "GuardError",
    "SourceProgramError",
    "RequirementViolation",
    "RestrictionViolation",
    "SystolicSpecError",
    "InconsistentDistributionError",
    "CompilationError",
    "BackendUnsupportedError",
    "MissingDependencyError",
    "RuntimeSimulationError",
    "DeadlockError",
    "VerificationError",
    "require_numpy",
]


def require_numpy(feature: str = "this feature"):
    """Import and return :mod:`numpy`, or raise a clean install hint.

    NumPy is an *optional* extra (``pip install repro[np]``): only the
    vectorized wavefront backend and the array-flavoured examples need it.
    Every entry point that does goes through this helper so a missing
    install fails with one uniform, actionable message instead of a bare
    ``ModuleNotFoundError`` deep inside a backend.
    """
    try:
        import numpy
    except ImportError:
        raise MissingDependencyError(
            f"{feature} requires NumPy, which is not installed; "
            "install the optional extra with `pip install repro[np]` "
            "(or simply `pip install numpy`)"
        ) from None
    return numpy
