"""Bounded-search synthesis of distribution functions.

The paper assumes ``step``/``place`` are produced by an external synthesis
system (DIASTOL, ADVIS, the Huang-Lengauer method, ...; Section 1).  As a
substrate substitute, this module synthesises them directly:

* :func:`synthesize_step` searches integer row vectors ``tau`` with bounded
  coefficients that respect every dependence, returning those of minimal
  *makespan* (span of ``tau`` over the index space at a sample size) --
  mirroring the optimality guarantee the paper attributes to the external
  systems.
* :func:`synthesize_places` searches integer ``(r-1) x r`` matrices of rank
  ``r-1`` that are compatible with a given ``step`` (Eq. 1) and keep every
  moving stream's flow within the neighbour requirement.

The search space grows as ``O((2*bound+1)^(r*(r-1)))`` for places, so bounds
are kept small; for the nested-loop programs in the paper's class (r = 2, 3)
this is instantaneous and already contains all four appendix designs.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from repro import profiling
from repro.geometry.linalg import Matrix, null_space_vector
from repro.geometry.point import Point, dot
from repro.lang.dependence import check_step_function, dependence_vectors
from repro.lang.program import SourceProgram
from repro.symbolic.affine import Numeric
from repro.systolic.check import check_systolic_array
from repro.systolic.flow import flow_denominator, is_stationary, stream_flow
from repro.systolic.spec import SystolicArray
from repro.util.cache import BoundedLRU
from repro.util.errors import RequirementViolation, SystolicSpecError


#: memoized place searches -- the fuzz generator re-runs the same bounded
#: search for every attempt, and distinct programs share (step, index-map)
#: signatures constantly
PLACES_CACHE = BoundedLRU(2048)
profiling.register("place_searches", PLACES_CACHE.stats)


def makespan(
    program: SourceProgram, step: Matrix, env: Mapping[str, Numeric]
) -> int:
    """``(max x : x in IS : step.x) - (min x :: step.x) + 1``.

    The number of synchronous steps the array takes (ignoring i/o fill and
    drain).  Linear over the convex index space, so only corners matter.
    """
    corners = list(program.index_space(env).corners())
    values = [step.apply_point(c)[0] for c in corners]
    return int(max(values) - min(values)) + 1


def _candidate_rows(r: int, bound: int) -> Iterator[Point]:
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=r):
        if any(c != 0 for c in coeffs):
            yield Point(coeffs)


def synthesize_step(
    program: SourceProgram,
    *,
    bound: int = 2,
    env: Mapping[str, Numeric] | None = None,
) -> list[Matrix]:
    """All dependence-respecting step vectors of minimal makespan.

    Candidates have coefficients in ``[-bound, bound]``; ties are returned
    in deterministic (lexicographic) order.  ``env`` is the sample problem
    size at which makespan is measured (default: all sizes bound to 4).
    """
    if env is None:
        env = {s: 4 for s in program.all_size_symbols}
    deps = dependence_vectors(program)
    written = program.body.streams_written()
    # The index-space corners depend only on (program, env): hoist them out
    # of the candidate loop (makespan is linear, so corners suffice).
    corners = list(program.index_space(env).corners())
    best: list[Matrix] = []
    best_span: int | None = None
    for tau in _candidate_rows(program.r, bound):
        ok = True
        for name, d in deps.items():
            product = dot(tau, d)
            if (name in written and product <= 0) or product == 0:
                ok = False
                break
        if not ok:
            continue
        values = [dot(tau, c) for c in corners]
        span = int(max(values) - min(values)) + 1
        if best_span is None or span < best_span:
            best, best_span = [Matrix([tau])], span
        elif span == best_span:
            best.append(Matrix([tau]))
    if not best:
        raise SystolicSpecError(
            f"no valid step vector with coefficients in [-{bound}, {bound}]"
        )
    return best


def synthesize_places(
    program: SourceProgram,
    step: Matrix,
    *,
    bound: int = 1,
    require_neighbour_flows: bool = True,
) -> list[Matrix]:
    """All place matrices compatible with ``step`` under the bound.

    A candidate is kept when it has rank ``r-1``, satisfies Eq. 1
    (``step . null_p != 0``), and -- when ``require_neighbour_flows`` --
    every moving stream's flow meets the neighbour requirement.  Stationary
    streams are accepted (the caller chooses loading vectors later).
    Candidates are deduplicated up to row order.
    """
    check_step_function(program, step)
    # Everything below depends only on (r, bound, step rows, the streams'
    # index maps, the flow requirement) -- not on the loop bounds or body --
    # so the search is memoized across programs and fuzz instances.
    cache_key = (
        program.r,
        bound,
        step.rows,
        tuple(s.index_map.rows for s in program.streams),
        require_neighbour_flows,
    )
    return list(
        PLACES_CACHE.get_or_build(
            cache_key,
            lambda: _search_places(program, step, bound, require_neighbour_flows),
        )
    )


def _search_places(
    program: SourceProgram, step: Matrix, bound: int, require_neighbour_flows: bool
) -> tuple[Matrix, ...]:
    r = program.r
    # Per-stream flow data for a fixed step: with ``d`` spanning
    # ``null(M)``, ``flow = place.d / (step.d)`` (Theorem 10), so only
    # ``place.d`` varies across candidates.
    stream_data = []
    for s in program.streams:
        d = s.null_direction()
        denominator = step.apply_point(d)[0]
        stream_data.append((d, denominator))
    seen: set[frozenset] = set()
    results: list[Matrix] = []
    rows = list(_candidate_rows(r, bound))
    for combo in itertools.combinations(rows, r - 1):
        key = frozenset(combo)
        if key in seen:
            continue
        seen.add(key)
        place = Matrix(combo)
        if place.rank != r - 1:
            continue
        try:
            null_p = null_space_vector(place)
        except Exception:
            continue
        if step.apply_point(null_p)[0] == 0:
            continue
        if require_neighbour_flows:
            ok = True
            for d, denominator in stream_data:
                if denominator == 0:  # Eq. 1 violated (see stream_flow)
                    ok = False
                    break
                flow = place.apply_point(d) / denominator
                if not is_stationary(flow):
                    try:
                        flow_denominator(flow)
                    except RequirementViolation:
                        ok = False
                        break
            if not ok:
                continue
        results.append(place)
    return tuple(results)


def candidate_tasks(
    program: SourceProgram, step: Matrix, *, bound: int = 1
) -> list[tuple[tuple[int, ...], ...]]:
    """The place design space as plain row tuples -- the picklable task
    unit :mod:`repro.parallel` ships to worker processes (the heavyweight
    ``(program, step, env)`` context travels once via the pool initializer;
    each task is just this compact tuple-of-rows)."""
    return [place.rows for place in synthesize_places(program, step, bound=bound)]


def synthesize_array(
    program: SourceProgram,
    *,
    step_bound: int = 2,
    place_bound: int = 1,
    default_loading_axis: int = 0,
) -> SystolicArray:
    """One fully checked array: best step, first compatible place.

    Stationary streams get a default loading & recovery vector: the unit
    vector along ``default_loading_axis``, falling back to the remaining
    axes when the check rejects it.  The result passes
    :func:`repro.systolic.check.check_systolic_array`.
    """
    step = synthesize_step(program, bound=step_bound)[0]
    dim = program.r - 1
    axes = [default_loading_axis] + [
        a for a in range(dim) if a != default_loading_axis
    ]
    for place in synthesize_places(program, step, bound=place_bound):
        candidate = SystolicArray(step=step, place=place)
        stationary = [
            s.name
            for s in program.streams
            if is_stationary(stream_flow(candidate, s))
        ]
        for axis in axes if stationary else axes[:1]:
            loading = {name: Point.unit(dim, axis) for name in stationary}
            array = SystolicArray(
                step=step, place=place, loading_vectors=loading, name="synthesized"
            )
            try:
                check_systolic_array(array, program)
            except Exception:
                continue
            return array
    raise SystolicSpecError("no compatible place found within the bound")
