"""Verification: oracle equivalence and executable theorems.

:mod:`repro.verify.equivalence` runs a compiled design on any engine
(:func:`run_backend`) and compares every variable against the sequential
interpreter (:func:`oracle_mismatches`) -- the mechanical version of the
paper's hand-checked transputer runs.
:mod:`repro.verify.theorems` states Theorems 1-11 of Appendix B as
executable checks over a concrete design and problem size.
"""

from repro.verify.equivalence import (
    BACKENDS,
    VerificationReport,
    oracle_mismatches,
    random_inputs,
    run_backend,
    verify_design,
)
from repro.verify.theorems import check_all_theorems, THEOREM_CHECKS
from repro.verify.enumerative import CrossCheckReport, cross_check

__all__ = [
    "BACKENDS",
    "VerificationReport",
    "verify_design",
    "oracle_mismatches",
    "run_backend",
    "random_inputs",
    "check_all_theorems",
    "THEOREM_CHECKS",
    "CrossCheckReport",
    "cross_check",
]
