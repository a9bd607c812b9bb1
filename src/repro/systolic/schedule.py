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
the default bounds already contain all four appendix designs.  The search
is not free: every fuzz instance is a new program, so its place search
misses ``PLACES_CACHE``.  Each candidate is decided in machine integers, by
one determinant and a few flow magnitudes, and a miss costs about 1 ms for
r = 3 (325 candidates; median over generated programs on a 2-core host).
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Mapping

from repro import profiling
from repro.geometry.linalg import Matrix
from repro.geometry.point import Point, dot
from repro.lang.dependence import check_step_function, dependence_vectors
from repro.lang.program import SourceProgram
from repro.symbolic.affine import Numeric
from repro.systolic.check import check_systolic_array
from repro.systolic.flow import is_stationary, stream_flow
from repro.systolic.spec import SystolicArray
from repro.util.cache import BoundedLRU
from repro.util.errors import SystolicSpecError


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


def _candidate_rows(r: int, bound: int) -> Iterator[tuple[int, ...]]:
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=r):
        if any(coeffs):
            yield coeffs


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

    The first two conditions together are ``det([step; place]) != 0``: the
    cofactors of ``step``'s row span ``null(place)`` when ``place`` has rank
    ``r-1`` and vanish otherwise.  Candidates are the combinations of
    distinct rows in ``itertools.combinations`` order, so each row set
    appears once, and the list's order is part of the contract (the fuzz
    generator samples from it).
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


def _det(rows: tuple[tuple[int, ...], ...]) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    head, tail = rows[0], rows[1:]
    return sum(
        (-1) ** j * a * _det(tuple(row[:j] + row[j + 1:] for row in tail))
        for j, a in enumerate(head)
        if a
    )


def _last_row_cofactors(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """``c`` with ``det(rows + (q,)) == c . q`` for every row ``q``: the
    cofactors of the missing last row of an ``r x r`` matrix."""
    r = len(rows) + 1
    return tuple(
        (-1) ** (r - 1 + j) * _det(tuple(row[:j] + row[j + 1:] for row in rows))
        for j in range(r)
    )


def _search_places(
    program: SourceProgram, step: Matrix, bound: int, require_neighbour_flows: bool
) -> tuple[Matrix, ...]:
    r = program.r
    tau = step.rows[0]
    rows = list(_candidate_rows(r, bound))
    # Flow data for a fixed step: with ``d`` spanning ``null(M)``,
    # ``flow = place.d / (step.d)`` (Theorem 10).  It meets the neighbour
    # requirement (A.1) iff it is zero (stationary) or every non-zero
    # ``|row . d|`` over the place rows is one value dividing ``|step.d|``
    # (then ``flow = y/n`` with ``nb.y``).  ``|row . d|`` is tabulated once
    # per candidate row and stream.
    nulls = [s.null_direction() for s in program.streams]
    dens = [abs(dot(tau, d)) for d in nulls]
    if require_neighbour_flows and 0 in dens:
        return ()  # Eq. 1 violated for every candidate (see stream_flow)
    mags = [tuple(abs(dot(row, d)) for d in nulls) for row in rows]
    divides = [
        all(den % m == 0 for m, den in zip(row_mags, dens) if m)
        for row_mags in mags
    ]
    results: list[Matrix] = []
    # Candidates in ``itertools.combinations(rows, r - 1)`` order: every
    # prefix of r-2 rows, then each later row as the last one.
    for prefix in itertools.combinations(range(len(rows)), r - 2):
        common: tuple[int, ...] | None = (0,) * len(nulls)
        if require_neighbour_flows:
            for i in prefix:
                common = _merge_magnitudes(common, mags[i]) if divides[i] else None
                if common is None:
                    break
            if common is None:
                continue
        # det([step; place]) != 0 is rank and Eq. 1 (see synthesize_places);
        # expanded along place's last row it is one dot product per candidate.
        cofactors = _last_row_cofactors((tau,) + tuple(rows[i] for i in prefix))
        for last in range(prefix[-1] + 1 if prefix else 0, len(rows)):
            if not sum(map(operator.mul, cofactors, rows[last])):
                continue
            if require_neighbour_flows and not (
                divides[last]
                and _merge_magnitudes(common, mags[last]) is not None
            ):
                continue
            results.append(Matrix(rows[i] for i in prefix + (last,)))
    return tuple(results)


def _merge_magnitudes(
    common: tuple[int, ...], row_mags: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Per stream, the one non-zero flow magnitude of ``common`` and
    ``row_mags`` (0 while both are 0), or ``None`` when they differ: a flow
    with mixed component magnitudes."""
    merged = []
    for c, m in zip(common, row_mags):
        if c and m and c != m:
            return None
        merged.append(c or m)
    return tuple(merged)


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
