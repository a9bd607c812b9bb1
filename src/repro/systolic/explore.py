"""Design-space exploration over candidate place functions.

"Once [step] has been derived, many different place functions are possible"
(Section 3.2).  The paper derives two per example by hand; this module
enumerates and *costs* the whole bounded design space, which is how a user
of the compiler would actually pick one:

* process count (``|PS|`` at a sample size) -- hardware cost;
* null-process count (``|PS \\ CS|``) -- wasted cells / external buffers;
* i/o process count -- boundary wiring;
* total latch buffers (fractional flows);
* stationary stream count (memory per cell vs pure pipelining).

Candidates are deduplicated up to row order (coordinate renaming).  Costing
is exact: the candidate is compiled and its closed forms evaluated at each
concrete size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.core.io_layout import io_process_count
from repro.geometry.linalg import Matrix
from repro.geometry.point import Point
from repro.lang.program import SourceProgram
from repro.symbolic.affine import Numeric
from repro.systolic.flow import is_stationary
from repro.systolic.spec import SystolicArray
from repro.util.errors import ReproError


@dataclass(frozen=True)
class DesignCost:
    """Exact cost metrics of one compiled candidate."""

    place: Matrix
    processes: int
    null_processes: int
    io_processes: int
    latch_buffers: int
    stationary_streams: int

    @property
    def total_cells(self) -> int:
        """Everything that must be instantiated."""
        return self.processes + self.io_processes + self.latch_buffers

    def row(self) -> dict:
        return {
            "place": " ; ".join(str(tuple(r)) for r in self.place.rows),
            "procs": self.processes,
            "null": self.null_processes,
            "io": self.io_processes,
            "latches": self.latch_buffers,
            "stationary": self.stationary_streams,
            "total": self.total_cells,
        }


def loading_candidates(
    program: SourceProgram, step: Matrix, place: Matrix
) -> Iterator[dict[str, Point]]:
    """Yield unit loading-vector assignments for the stationary streams.

    A stationary stream needs a loading & recovery vector, but which unit
    axis is *compilable* depends on the stream's index map (the vector must
    shift element identities integrally; see
    :func:`repro.core.io_comm.derive_stream_increment`).  One assignment per
    axis is yielded, axis 0 first, so callers can fall back to the next axis
    when compilation rejects the current one.  Designs with no stationary
    stream yield a single empty assignment.
    """
    from repro.systolic.flow import stream_flow

    base = SystolicArray(step=step, place=place)
    stationary = [
        s.name for s in program.streams if is_stationary(stream_flow(base, s))
    ]
    dim = program.r - 1
    if not stationary:
        yield {}
        return
    for axis in range(dim):
        unit = Point.unit(dim, axis)
        yield {name: unit for name in stationary}


def cost_candidate(
    program: SourceProgram,
    step: Matrix,
    place: Matrix,
    env: Mapping[str, Numeric],
) -> DesignCost:
    """Compile and cost one place candidate, trying each loading axis.

    Historical bug: only axis 0 was ever tried, so a design whose stationary
    streams are only loadable along another axis was silently dropped from
    the explored space.  Raises the last :class:`ReproError` when no axis
    compiles.
    """
    error: ReproError | None = None
    for loading in loading_candidates(program, step, place):
        array = SystolicArray(step=step, place=place, loading_vectors=loading)
        try:
            return cost_of(program, array, env)
        except ReproError as exc:
            error = exc
    assert error is not None  # loading_candidates always yields
    raise error


def cost_of(
    program: SourceProgram,
    array: SystolicArray,
    env: Mapping[str, Numeric],
) -> DesignCost:
    """Compile a candidate and measure it at a concrete size."""
    from repro.core.scheme import compile_systolic

    return cost_of_compiled(compile_systolic(program, array), env)


def cost_of_compiled(sp, env: Mapping[str, Numeric]) -> DesignCost:
    """Measure an already compiled candidate at a concrete size.

    Splitting this off :func:`cost_of` lets a multi-size sweep compile each
    design *once* and evaluate the symbolic closed forms at every requested
    size -- compilation dominates, so this is the batching win.

    Only the null processes need a walk over ``PS`` (and only when ``first``
    has a default).  Process and latch counts come from ``|PS|``, and each
    stream's i/o processes are counted by face arithmetic
    (:func:`~repro.core.io_layout.io_process_count`), equal to the length of
    the enumerating :func:`~repro.core.io_layout.concrete_io_points`.
    """
    space = sp.process_space(env)
    first = sp.first
    if not first.has_default:
        compute = space.size  # 'first' total on PS: CS = PS
    else:
        # One shared binding dict mutated per point (instead of a fresh
        # dict(env) copy each), driving the compiled any-case closure.
        binding = dict(env)
        coords = sp.coords
        any_case = first.any_case_holds
        compute = 0
        for y in space:
            for name, c in zip(coords, y):
                binding[name] = c
            if any_case(binding):
                compute += 1
    io_total = 0
    latches = 0
    stationary = 0
    for plan in sp.streams:
        io_total += io_process_count(space, plan.transport)
        latches += plan.internal_buffers() * space.size
        if plan.stationary:
            stationary += 1
    return DesignCost(
        place=sp.array.place,
        processes=space.size,
        null_processes=space.size - compute,
        io_processes=io_total,
        latch_buffers=latches,
        stationary_streams=stationary,
    )


def compile_candidate(program: SourceProgram, step: Matrix, place: Matrix):
    """Compile one place candidate, trying each loading axis in turn.

    Returns the :class:`~repro.core.program.SystolicProgram` of the first
    axis that compiles; raises the last :class:`ReproError` when none does.
    """
    from repro.core.scheme import compile_systolic

    error: ReproError | None = None
    for loading in loading_candidates(program, step, place):
        array = SystolicArray(step=step, place=place, loading_vectors=loading)
        try:
            return compile_systolic(program, array)
        except ReproError as exc:
            error = exc
    assert error is not None  # loading_candidates always yields
    raise error


def sweep_candidate(
    program: SourceProgram,
    step: Matrix,
    place: Matrix,
    envs: "Sequence[Mapping[str, Numeric]]",
) -> list[DesignCost | None] | None:
    """Compile one candidate once, then cost it at every requested size.

    Returns ``None`` when no loading axis compiles (the design is outside
    the scheme); otherwise one :class:`DesignCost` -- or ``None`` for a
    size the concrete evaluation rejects -- per entry of ``envs``.
    """
    try:
        sp = compile_candidate(program, step, place)
    except ReproError:
        return None
    out: list[DesignCost | None] = []
    for env in envs:
        try:
            out.append(cost_of_compiled(sp, env))
        except ReproError:
            out.append(None)
    return out


def rank_costs(
    costs: list[DesignCost], limit: int | None = None
) -> list[DesignCost]:
    """Deterministic ranking: cheapest total first, stable tiebreak."""
    ranked = sorted(
        costs, key=lambda c: (c.total_cells, c.null_processes, str(c.place.rows))
    )
    if limit is not None:
        ranked = ranked[:limit]
    return ranked


def explore_designs(
    program: SourceProgram,
    step: Matrix,
    env: Mapping[str, Numeric],
    *,
    bound: int = 1,
    limit: int | None = None,
    jobs: int | None = None,
) -> list[DesignCost]:
    """Cost every compilable place candidate, cheapest total first.

    Candidates that fail compilation (restriction violations such as
    non-unimodular faces or oversize ``increment_s``) are skipped -- the
    design space the scheme can actually handle is exactly what remains.

    ``jobs`` > 1 fans the candidates over a process pool via
    :mod:`repro.parallel`; the ranked result is identical to the serial one.
    """
    from repro.parallel import sweep_designs

    result = sweep_designs(
        program, step, [env], bound=bound, limit=limit, jobs=jobs
    )
    return list(result.by_size[0][1])
