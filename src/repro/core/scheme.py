"""The compilation driver (Section 7's derivation, end to end).

:func:`compile_systolic` takes a validated source program and a consistent
systolic array and produces the :class:`SystolicProgram`:

1. check the source (Appendix A) and the array (Eq. 1, neighbour flows);
2. derive the process-space basis (7.1);
3. derive ``increment`` (7.2.1) and ``first``/``last``/``count``
   (7.2.2-7.2.3);
4. for every stream: flow, ``increment_s``, ``first_s``/``last_s``
   (7.3-7.4), soak/drain (7.5) and the buffer pass amount (7.6);
5. prune vacuous alternatives under the standing assumptions
   ``lb_i <= rb_i`` (the mechanical counterpart of the paper's
   hand-simplifications).

The derived program is size-free, so the whole of it is memoized under
the ``design`` table of :data:`~repro.core.memo.MEMO`, on top of the
per-step tables the derivation itself consults.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.basis import process_space_basis, process_space_guard
from repro.core.buffers import derive_pass_amount
from repro.core.firstlast import derive_count, derive_first, derive_last, is_simple_place
from repro.core.increment import derive_increment
from repro.core.io_comm import derive_io_endpoint, derive_stream_increment
from repro.core.memo import MEMO, program_fingerprint, stable_key
from repro.core.program import StreamPlan, SystolicProgram
from repro.core.propagation import derive_drain, derive_soak
from repro.lang.program import SourceProgram
from repro.lang.validate import validate_program
from repro.symbolic.guard import Constraint, Guard
from repro.symbolic.minmax import bound_le_constraints
from repro.systolic.check import check_systolic_array
from repro.systolic.flow import flow_denominator, is_stationary, stream_flow
from repro.systolic.spec import SystolicArray
from repro.util.errors import CompilationError, RestrictionViolation

#: Default coordinate names, matching the paper's appendices.
_DEFAULT_COORDS = {1: ("col",), 2: ("col", "row")}


def default_coords(dim: int) -> tuple[str, ...]:
    """Process-space coordinate symbols: ``col``/``row`` when they fit."""
    if dim in _DEFAULT_COORDS:
        return _DEFAULT_COORDS[dim]
    return tuple(f"y{i}" for i in range(dim))


def loop_range_assumptions(program: SourceProgram) -> Guard:
    """The paper's standing assumption ``lb_i <= rb_i`` for every loop.

    An extremum bound expands conjunctively: ``max(a, b) <= min(c, d)``
    contributes every pairwise ``a_i <= c_j``.
    """
    constraints: list[Constraint] = []
    for lp in program.loops:
        constraints.extend(bound_le_constraints(lp.lower, lp.upper))
    return Guard(constraints)


def compile_systolic(
    program: SourceProgram,
    array: SystolicArray,
    *,
    coords: Sequence[str] | None = None,
    validate: bool = True,
    prune: bool = True,
) -> SystolicProgram:
    """Compile a source program and systolic array into a systolic program.

    The result depends on the program and the design alone, never on a
    problem size, so it is memoized whole in the ``design`` table of
    :data:`~repro.core.memo.MEMO`: a repeated compile is one lookup and
    returns the identical :class:`SystolicProgram` (whose cached
    ``fingerprint`` then keys the schedule and plan caches for free).  The
    key is the program fingerprint, the ``step``/``place`` rows, the
    loading vectors, the array's name, ``coords``, ``validate`` and
    ``prune``.  A miss derives as below; a failing compile inserts nothing
    and raises again on every call.
    """
    if not isinstance(program, SourceProgram):
        raise CompilationError(
            f"compile_systolic needs a SourceProgram, got {type(program).__name__}"
        )
    if not isinstance(array, SystolicArray):
        raise CompilationError(
            f"compile_systolic needs a SystolicArray, got {type(array).__name__}"
        )
    if validate:
        # validate_program memoizes its own costly part per program, so a
        # sweep's candidates and a caller that already validated pay it
        # once.  Its structural checks make the fingerprint safe to render.
        validate_program(program)
    fp = program_fingerprint(program)
    key = (
        fp,
        array.step.rows,
        array.place.rows,
        tuple(sorted((name, tuple(vec)) for name, vec in array.loading_vectors.items())),
        array.name,
        None if coords is None else tuple(coords),
        validate,
        prune,
    )
    return MEMO.get(
        "design", key, lambda: _derive(program, array, fp, coords, validate, prune)
    )


def _derive(
    program: SourceProgram,
    array: SystolicArray,
    fp: str,
    coords: Sequence[str] | None,
    validate: bool,
    prune: bool,
) -> SystolicProgram:
    """The derivation behind :func:`compile_systolic`, run on a memo miss."""
    if validate:
        # the array check is per-design: the design memo holds only passes
        check_systolic_array(array, program)

    dim = program.r - 1
    coord_names = tuple(coords) if coords is not None else default_coords(dim)
    if len(coord_names) != dim:
        raise CompilationError(
            f"{len(coord_names)} coordinate names for a {dim}-dimensional "
            "process space"
        )
    reserved = set(program.indices) | set(program.size_symbols)
    clash = reserved.intersection(coord_names)
    if clash:
        raise CompilationError(
            f"coordinate names {sorted(clash)} collide with loop indices or "
            "size symbols"
        )

    assumptions = loop_range_assumptions(program)

    # 7.1 -- the process space basis
    ps_min, ps_max = process_space_basis(program, array)
    # Per-process quantities are only ever evaluated at points of PS, so the
    # simplification context may assume PS membership on top of lb <= rb
    # (this is what lets e.g. E.1.4's first_a collapse to the unguarded
    # (col, 0): its guard 0 <= col <= n *is* PS membership).
    ps_assumptions = assumptions.and_(
        process_space_guard(ps_min, ps_max, coord_names)
    )

    # 7.2 -- computation repeaters.  Every derivation below is routed
    # through the cross-design memo: candidates in a sweep share `step`,
    # the program, and usually several `place` rows, so the same closed
    # forms (and the Fourier-Motzkin work inside simplify) recur hundreds
    # of times across cost_candidate calls.
    step_rows = array.step.rows
    place_rows = array.place.rows
    increment = MEMO.get(
        "increment", (step_rows, place_rows),
        lambda: derive_increment(array),
    )
    simple = is_simple_place(array, increment)
    first = MEMO.get(
        "endpoint", (fp, step_rows, place_rows, increment, coord_names, "first"),
        lambda: derive_first(program, array, increment, coord_names),
    )
    last = MEMO.get(
        "endpoint", (fp, step_rows, place_rows, increment, coord_names, "last"),
        lambda: derive_last(program, array, increment, coord_names),
    )
    # Guards and piecewise forms go into keys via stable_key: their __eq__
    # ignores ordering, but the cached result's rendering must not change
    # depending on which order-variant populated the table first.
    count = MEMO.get(
        "count",
        (stable_key(first), stable_key(last), increment, stable_key(assumptions)),
        lambda: derive_count(first, last, increment, assumptions),
    )

    # 7.3 - 7.6 -- per-stream plans
    plans: list[StreamPlan] = []
    for stream in program.streams:
        flow = stream_flow(array, stream)
        stationary = is_stationary(flow)
        transport = array.loading_vector(stream.name) if stationary else flow
        denominator = flow_denominator(transport)
        hop = transport * denominator
        if not hop.is_integral:
            raise CompilationError(
                f"stream {stream.name}: hop vector {hop} is not integral"
            )
        # `transport` (the loading vector for stationary streams, the flow
        # otherwise) is part of the key: the same step/place rows with a
        # different loading vector derive a different increment_s.
        increment_s = MEMO.get(
            "increment_s",
            (fp, stream.name, step_rows, place_rows, increment, transport),
            lambda: derive_stream_increment(stream, increment, array),
        )
        if any(abs(c) > 1 for c in increment_s):
            # Surfaced by this reproduction: the paper restricts the
            # components of `increment` to {-1,0,+1} (A.2) but places no
            # such restriction on increment_s = M.increment.  When a
            # component's magnitude exceeds 1, the Eq. 6/7 boundary
            # projection can land between lattice points of VS.v and the
            # i/o endpoints stop being elements; handling that needs the
            # floor/perturbation machinery the paper defers to future work
            # (Section 6.2's note, "non-integer solutions" in Section 8).
            raise RestrictionViolation(
                f"stream {stream.name}: increment_s {increment_s} has a "
                "component outside {-1, 0, +1}; the i/o endpoint equations "
                "(6)/(7) require unit element steps (implicit restriction "
                "of the scheme)"
            )
        first_key = stable_key(first)
        first_s = MEMO.get(
            "io_endpoint", (fp, stream.name, increment_s, first_key, "first"),
            lambda: derive_io_endpoint(stream, increment_s, first, "first"),
        )
        last_s = MEMO.get(
            "io_endpoint", (fp, stream.name, increment_s, first_key, "last"),
            lambda: derive_io_endpoint(stream, increment_s, first, "last"),
        )
        soak = MEMO.get(
            "soak",
            (fp, stream.name, first_key, stable_key(first_s), increment_s),
            lambda: derive_soak(stream, first, first_s, increment_s),
        )
        drain = MEMO.get(
            "drain",
            (fp, stream.name, stable_key(last), stable_key(last_s), increment_s),
            lambda: derive_drain(stream, last, last_s, increment_s),
        )
        pass_amount = MEMO.get(
            "pass_amount",
            (stable_key(first_s), stable_key(last_s), increment_s),
            lambda: derive_pass_amount(first_s, last_s, increment_s),
        )
        if prune:
            # simplify() itself is memoized on the interned instances, so
            # repeated forms cost one dict lookup here.
            first_s = first_s.simplify(ps_assumptions)
            last_s = last_s.simplify(ps_assumptions)
            soak = soak.simplify(ps_assumptions)
            drain = drain.simplify(ps_assumptions)
            pass_amount = pass_amount.simplify(ps_assumptions)
        plans.append(
            StreamPlan(
                stream=stream,
                flow=flow,
                stationary=stationary,
                transport=transport,
                denominator=denominator,
                hop=hop,
                increment_s=increment_s,
                first_s=first_s,
                last_s=last_s,
                soak=soak,
                drain=drain,
                pass_amount=pass_amount,
            )
        )

    if prune:
        first = first.simplify(ps_assumptions)
        last = last.simplify(ps_assumptions)
        count = count.simplify(ps_assumptions)

    return SystolicProgram(
        source=program,
        array=array,
        coords=coord_names,
        ps_min=ps_min,
        ps_max=ps_max,
        increment=increment,
        first=first,
        last=last,
        count=count,
        simple=simple,
        streams=tuple(plans),
        assumptions=assumptions,
    )
