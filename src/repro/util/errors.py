"""Exception hierarchy for the systolizing compilation scheme.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch library failures without masking genuine Python bugs.
The sub-hierarchy mirrors the pipeline stages: geometry / symbolic algebra,
source-program validation (Appendix A of the paper), systolic-array
specification (Section 3.2), compilation (Sections 6-7), and the distributed
runtime substrate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GeometryError(ReproError):
    """A geometric operation was applied to incompatible operands."""


class SingularMatrixError(GeometryError):
    """A linear system had no unique solution where one was required."""


class SymbolicError(ReproError):
    """An affine/piecewise symbolic manipulation failed."""


class GuardError(SymbolicError):
    """A guard (conjunction of affine inequalities) could not be handled."""


class SourceProgramError(ReproError):
    """The source program is malformed."""


class RequirementViolation(SourceProgramError):
    """A *requirement* of Appendix A.1 is violated.

    Requirements are demanded by the nature of systolic arrays themselves
    (e.g. unit loop steps, rank ``r-1`` index maps, neighbouring flows).
    """


class RestrictionViolation(SourceProgramError):
    """A *restriction* of Appendix A.2 is violated.

    Restrictions are additional limits of the paper's method (e.g. increment
    components in ``{-1, 0, +1}``, constant-free index vectors).
    """


class SystolicSpecError(ReproError):
    """The systolic-array specification (``step``/``place``) is malformed."""


class InconsistentDistributionError(SystolicSpecError):
    """``step`` and ``place`` violate the compatibility condition (Eq. 1)."""


class CompilationError(ReproError):
    """The compilation scheme could not derive a systolic program."""


class RuntimeSimulationError(ReproError):
    """The distributed-runtime simulator detected an execution error."""


class DeadlockError(RuntimeSimulationError):
    """No process in the network can make progress."""


class VerificationError(ReproError):
    """A generated program disagreed with the sequential oracle."""


class InvalidArgumentError(ReproError, ValueError):
    """A library call got an argument outside its domain, such as a negative
    worker count or an empty batch.  Also a :class:`ValueError`."""


class MissingDependencyError(ReproError):
    """An optional third-party dependency is required but not installed."""


class BackendUnsupportedError(CompilationError):
    """A backend cannot execute this particular program/design.

    Raised by backends with a restricted value domain (e.g. the vectorized
    NumPy backend, which lowers to machine integers) when the program needs
    something outside it, such as fractional coefficients.  Callers that
    have a slower general backend available should fall back to it.
    """


# --- HTTP status mapping (used by the compile service) ----------------------
#
# The service daemon (``repro.service``) turns library exceptions into HTTP
# responses.  The rule of thumb follows the hierarchy above: errors caused by
# the *request contents* (malformed source program, inconsistent design
# spec, bad symbolic forms the client submitted) are 4xx; errors caused by
# the *server's* inability to carry out a well-formed request (compilation
# scheme limits, missing optional backends, runtime faults) are 422/5xx.

#: Most-derived-first (exception, status) mapping; order matters because
#: ``BackendUnsupportedError`` derives from ``CompilationError``.
_HTTP_STATUS_MAP: "tuple[tuple[type[BaseException], int], ...]" = (
    (MissingDependencyError, 501),  # backend not installed on this server
    (BackendUnsupportedError, 422),  # well-formed, outside backend's domain
    (VerificationError, 422),  # request asked for an impossible check
    (DeadlockError, 500),  # runtime fault while serving
    (RuntimeSimulationError, 500),
    (CompilationError, 422),  # valid input the scheme cannot systolize
    (SourceProgramError, 400),  # the client's program is malformed
    (SystolicSpecError, 400),  # the client's step/place spec is malformed
    (SymbolicError, 400),
    (GeometryError, 400),
    (ReproError, 400),  # default: the request was the problem
)


def http_status(exc: BaseException) -> int:
    """The HTTP status code the compile service reports for ``exc``.

    Library errors map onto 4xx/422/501 per the table above; anything that
    is not a :class:`ReproError` is an internal server error (500).
    """
    for exc_type, status in _HTTP_STATUS_MAP:
        if isinstance(exc, exc_type):
            return status
    return 500
