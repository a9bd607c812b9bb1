"""Appendix A: requirements and restrictions on source programs.

*Requirements* (A.1) stem from the nature of systolic arrays; *restrictions*
(A.2) are additional limits of the paper's method.  The checks that concern
the distribution functions (`increment` components, neighbouring flows) live
in :mod:`repro.systolic.check` and :mod:`repro.core`, because they need
``step``/``place``; this module checks everything visible from the source
program alone:

A.1  r > 0 (we require r >= 2, since index maps must be (r-1) x r with
     rank r-1, which forces r >= 2 for non-trivial streams);
A.1  loop steps in {-1, +1} (enforced structurally by :class:`Loop`);
A.1  every index map is (r-1) x r with rank r-1;
A.2  loop bounds affine (or min/max of affines) in the problem size,
     never in the loop indices (checked here: the index space is a box);
A.2  each indexed variable is (r-1)-dimensional;
A.2  index vectors contain no constants (structural for parsed programs;
     re-checked here for programmatically built ones);
A.2  each basic statement accesses all of the streams;
A.2  each element of each variable is accessed by some statement
     (checked concretely at sample problem sizes).
"""

from __future__ import annotations

import weakref
from typing import Mapping, Sequence

from repro.lang.program import SourceProgram
from repro.symbolic.affine import Numeric
from repro.symbolic.minmax import bound_args
from repro.util.errors import RequirementViolation, RestrictionViolation


#: ids of the live programs whose structural checks passed.
_structure_passed: set[int] = set()


def validate_program(
    program: SourceProgram,
    *,
    sample_sizes: Sequence[Mapping[str, Numeric]] | None = None,
) -> None:
    """Raise ``RequirementViolation``/``RestrictionViolation`` on failure.

    ``sample_sizes`` are concrete problem-size bindings at which the
    surjectivity restriction ("every element is accessed") is checked; when
    omitted, a small default is derived by binding every size symbol to 3.

    The default coverage check enumerates the index space, so it is
    memoized in ``repro.core.memo.MEMO`` under the program's fingerprint: a
    caller that validates before ``compile_systolic`` shares the result
    with the driver's own validation.  Only a passing check is cached, so an
    invalid program raises on every call.  The fingerprint renders the
    program's source text, which needs the structural checks to pass first.
    The structural checks run once per program instance: a passed check is
    remembered by ``id`` until the program is garbage-collected, and a
    failing one raises on every call.
    """
    ident = id(program)
    if ident not in _structure_passed:
        _check_structure(program)
        _structure_passed.add(ident)
        weakref.finalize(program, _structure_passed.discard, ident)
    if sample_sizes is not None:
        for env in sample_sizes:
            _check_coverage(program, env)
        return
    from repro.core.memo import MEMO, program_fingerprint  # core imports lang

    MEMO.get(
        "validate",
        (program_fingerprint(program),),
        lambda: _check_default_coverage(program),
    )


def _check_structure(program: SourceProgram) -> None:
    """Every check except coverage: these need no problem size."""
    r = program.r
    if r < 2:
        raise RequirementViolation(
            f"program must have at least two nested loops, got {r}"
        )

    if not program.streams:
        raise RestrictionViolation("program accesses no streams")

    # A.2: loop/variable bounds are affine in the *size symbols*.  A loop
    # index leaking into a bound used to be folded silently into the
    # sample-size binding below (masquerading as a size symbol bound to
    # 3); reject it loudly instead -- the index space must be a box.
    indices = set(program.indices)
    for lp in program.loops:
        for which, bound in (("left", lp.lower), ("right", lp.upper)):
            used = frozenset().union(
                *(piece.free_symbols for piece in bound_args(bound))
            ) & indices
            if used:
                raise RestrictionViolation(
                    f"loop {lp.index}: {which} bound {bound} uses loop "
                    f"indices {sorted(used)}; bounds must be affine in the "
                    "size symbols only"
                )
    for v in program.variables:
        used = v.size_symbols & indices
        if used:
            raise RestrictionViolation(
                f"variable {v.name}: bounds use loop indices {sorted(used)}; "
                "variable spaces must be parameterised by size symbols only"
            )

    for s in program.streams:
        s.check_rank()  # (r-1) x r with rank r-1
        if s.variable.dim != r - 1:
            raise RestrictionViolation(
                f"variable {s.name} must be {r-1}-dimensional, is {s.variable.dim}-d"
            )
        if s.index_map.ncols != r:
            raise RequirementViolation(
                f"stream {s.name}: index map consumes {s.index_map.ncols} indices, "
                f"program has {r} loops"
            )

    accessed = program.body.streams_accessed()
    declared = {s.name for s in program.streams}
    missing = declared.difference(accessed)
    if missing:
        raise RestrictionViolation(
            f"basic statement does not access streams {sorted(missing)}"
        )
    unknown = accessed.difference(declared)
    if unknown:
        raise RestrictionViolation(
            f"basic statement accesses undeclared streams {sorted(unknown)}"
        )


def _check_default_coverage(program: SourceProgram) -> bool:
    """Coverage with every size symbol bound to 3."""
    syms = set(program.size_symbols)
    for lp in program.loops:
        syms |= lp.lower.free_symbols | lp.upper.free_symbols
    for v in program.variables:
        syms |= v.size_symbols
    _check_coverage(program, {s: 3 for s in sorted(syms)})
    return True


def _check_coverage(program: SourceProgram, env: Mapping[str, Numeric]) -> None:
    """Every element of every variable is accessed by some basic statement,
    and no statement steps outside a variable's space."""
    index_space = program.index_space(env)
    for s in program.streams:
        space = s.variable.space(env)
        touched = set()
        for x in index_space:
            el = s.element_of(x)
            if el not in space:
                raise RestrictionViolation(
                    f"stream {s.name}: statement {x} accesses element "
                    f"{el} outside {space.lo}..{space.hi} at "
                    f"size {dict(env)}"
                )
            touched.add(el)
        if len(touched) != space.size:
            untouched = space.size - len(touched)
            raise RestrictionViolation(
                f"stream {s.name}: {untouched} element(s) never accessed "
                f"at size {dict(env)} (the scheme requires full coverage)"
            )
