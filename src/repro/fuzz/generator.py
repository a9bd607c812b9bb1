"""Seeded random generation of fuzz instances.

Programs are *valid by construction* (and re-checked through
:func:`repro.lang.validate.validate_program`): the generator only emits
shapes that satisfy Appendix A structurally --

* ``r`` in {2, 3} perfectly nested loops; every axis draws its step from
  {-1, +1} with *equal weight* (all-negative and mixed-sign nests
  included); bounds are affine in the size symbols -- or ``max``-form
  lower / ``min``-form upper extremum bounds when two size symbols are in
  scope -- with ``lb <= rb`` guaranteed at every size >= 2;
* per stream, an ``(r-1) x r`` index map whose rows have *disjoint,
  non-empty supports* with coefficients in {-1, +1}.  Disjoint supports
  force rank ``r-1``; per-row value sets are sumsets of stride-1 intervals
  (hence contiguous), and disjointness makes the joint image the full box,
  so the surjectivity restriction ("every element accessed") always holds
  once the variable bounds are derived from the loop bounds through the
  map (:func:`variable_bounds_for`) -- contiguity is independent of the
  symbolic form of the loop bounds, so extremum bounds preserve it;
* a basic statement that accesses every declared stream: one unconditional
  (usually accumulating) assignment to ``c`` built from random
  ``+ - * min max`` trees over the stream reads, optionally followed by
  guarded branches whose conditions are affine in the loop indices --
  including multi-assignment branches whose distinct assignments write
  *different* streams (any stream may be written, not just ``c``).

Designs are drawn from the *bounded synthesis space* the explorer already
searches: a random minimal-makespan ``step`` (coefficient bound 2), a
random compatible ``place`` (bound 1), and the first loading-axis
assignment that compiles -- reusing
:func:`repro.systolic.explore.loading_candidates`.  Instances the scheme
cannot schedule (no step respects the dependences, or no candidate
compiles) are skipped, not errors: the generator resamples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import profiling
from repro.core.scheme import compile_systolic
from repro.geometry.linalg import Matrix
from repro.lang.expr import (
    Assign,
    BinOp,
    Body,
    Branch,
    Condition,
    Const,
    Expr,
    StreamRead,
)
from repro.lang.program import Loop, SourceProgram
from repro.lang.stream import Stream
from repro.lang.validate import validate_program
from repro.lang.variables import IndexedVariable
from repro.symbolic.affine import Affine
from repro.symbolic.minmax import Bound, extremum
from repro.systolic.explore import loading_candidates
from repro.systolic.schedule import synthesize_places, synthesize_step
from repro.systolic.spec import SystolicArray
from repro.util.errors import ReproError

INDEX_NAMES = ("i", "j", "k")
SIZE_NAMES = ("n", "m")
STREAM_NAMES = ("a", "b", "d", "c")  # written stream is always named "c"

#: weighted operator palette for expression trees
_OPS = ("+", "+", "+", "-", "*", "*", "min", "max")
_RELATIONS = ("==", "!=", "<=", "<", ">=", ">")


@dataclass(frozen=True)
class FuzzInstance:
    """One generated (program, design, problem size) triple.

    ``seed`` records the generator seed that produced it (``-1`` for
    instances rebuilt by the shrinker or loaded from a corpus file).
    """

    program: SourceProgram
    array: SystolicArray
    env: dict
    seed: int = -1


# ----------------------------------------------------------------------
# helpers shared with the shrinker
# ----------------------------------------------------------------------
def variable_bounds_for(
    rows, loops: tuple[Loop, ...]
) -> tuple[tuple[Bound, Bound], ...]:
    """Exact per-dimension bounds of the image of the loop box under a map.

    For row coefficients ``c`` the image of ``c * [lb .. ub]`` is
    ``[c*lb .. c*ub]`` for ``c >= 0`` and ``[c*ub .. c*lb]`` otherwise;
    summing per support axis gives the bounding interval of the row.  With
    the generator's {-1, +1} coefficients the image *covers* this interval,
    so using it as the variable bounds satisfies the coverage restriction.
    Extremum loop bounds stay closed under this accumulation (a negative
    coefficient flips ``min`` and ``max``), so the derived variable bounds
    keep the max-form-lower / min-form-upper shape.
    """
    bounds: list[tuple[Bound, Bound]] = []
    for row in rows:
        lo: Bound = Affine.constant(0)
        hi: Bound = Affine.constant(0)
        for c, lp in zip(row, loops):
            if c == 0:
                continue
            if c > 0:
                lo = lo + lp.lower * c
                hi = hi + lp.upper * c
            else:
                lo = lo + lp.upper * c
                hi = hi + lp.lower * c
        bounds.append((lo, hi))
    return tuple(bounds)


# ----------------------------------------------------------------------
# program generation
# ----------------------------------------------------------------------
def _random_index_map(rng: random.Random, r: int) -> tuple[tuple[int, ...], ...]:
    """An (r-1) x r map with disjoint non-empty supports, coeffs +-1."""
    axes = list(range(r))
    rng.shuffle(axes)
    if r == 2:
        supports = [axes[: rng.choice((1, 1, 2))]]
    else:
        s1 = rng.choice((1, 1, 1, 2))
        s2 = rng.choice((1, 1, 2)) if s1 == 1 else 1
        supports = [axes[:s1], axes[s1 : s1 + s2]]
    rows = []
    for support in supports:
        row = [0] * r
        for axis in support:
            row[axis] = rng.choice((1, 1, 1, -1))
        rows.append(tuple(row))
    return tuple(rows)


def _random_condition(rng: random.Random, indices: tuple[str, ...]) -> Condition:
    picks = rng.sample(indices, rng.choice((1, 2)) if len(indices) > 1 else 1)
    affine = Affine.constant(rng.randint(-2, 2))
    for name in picks:
        affine = affine + Affine.var(name) * rng.choice((1, 1, -1, 2))
    return Condition(affine, rng.choice(_RELATIONS))


def _random_expr(
    rng: random.Random, written: str, reads: tuple[str, ...]
) -> Expr:
    """A tree reading every stream in ``reads``, usually accumulating."""
    term: Expr = StreamRead(reads[0])
    for name in reads[1:]:
        term = BinOp(rng.choice(_OPS), term, StreamRead(name))
    if rng.random() < 0.3:
        term = BinOp(rng.choice(("+", "*")), term, Const(rng.randint(1, 3)))
    if rng.random() < 0.8:
        # accumulator convention: the written stream folds into itself
        op = rng.choice(("+", "+", "+", "min", "max"))
        return BinOp(op, StreamRead(written), term)
    return term


def _random_lower_bound(rng: random.Random, size_syms: tuple[str, ...]) -> Bound:
    """A left bound: a small constant, or (with two sizes in scope) a
    ``max`` of a constant and a size difference.  Always <= 2 at sizes in
    [2, 4], so any generated right bound (always >= 2) dominates it."""
    if len(size_syms) >= 2 and rng.random() < 0.35:
        a, b = rng.sample(size_syms, 2)
        return extremum(
            "max",
            (
                Affine.constant(rng.choice((0, 0, 1, -1))),
                Affine.var(a) - Affine.var(b),
            ),
        )
    return Affine.constant(rng.choice((0, 0, 0, 0, 1, -1)))


def _random_upper_bound(rng: random.Random, size_syms: tuple[str, ...]) -> Bound:
    """A right bound: ``size + c`` with ``c >= 0``, or (with two sizes in
    scope) a ``min`` of two such terms.  Always >= 2 at sizes in [2, 4]."""
    if len(size_syms) >= 2 and rng.random() < 0.35:
        a, b = rng.sample(size_syms, 2)
        return extremum(
            "min",
            (
                Affine.var(a) + rng.choice((0, 0, 1)),
                Affine.var(b) + rng.choice((0, 0, 1, 2)),
            ),
        )
    return Affine.var(rng.choice(size_syms)) + rng.choice((0, 0, 0, 1, 2))


def generate_program(
    rng: random.Random, *, name: str = "fuzzed"
) -> SourceProgram:
    """One random valid source program (raises if generation has a bug)."""
    r = rng.choice((2, 2, 3, 3, 3))
    n_sizes = rng.choice((1, 1, 2))
    size_syms = SIZE_NAMES[:n_sizes]

    loops = []
    for t in range(r):
        lower = _random_lower_bound(rng, size_syms)
        upper = _random_upper_bound(rng, size_syms)
        step = rng.choice((1, -1))
        loops.append(Loop(INDEX_NAMES[t], lower, upper, step))
    loops = tuple(loops)

    n_streams = rng.choice((2, 3, 3))
    names = tuple(sorted(rng.sample(STREAM_NAMES[:3], n_streams - 1))) + ("c",)
    streams = []
    for stream_name in names:
        rows = _random_index_map(rng, r)
        var = IndexedVariable(stream_name, variable_bounds_for(rows, loops))
        streams.append(Stream(var, Matrix(rows)))
    streams = tuple(streams)

    written = "c"
    reads = tuple(n for n in names if n != written)
    branches = [Branch(None, (Assign(written, _random_expr(rng, written, reads)),))]
    indices = tuple(lp.index for lp in loops)
    if rng.random() < 0.3:
        extra_src = rng.choice((written,) + reads)
        extra = BinOp(
            rng.choice(("+", "max")), StreamRead(extra_src), Const(rng.randint(1, 2))
        )
        branches.append(
            Branch(
                _random_condition(rng, indices),
                (Assign(written, extra),),
            )
        )
    if reads and rng.random() < 0.3:
        # A multi-assignment guarded branch whose assignments write
        # *different* streams: a read stream updates itself and "c" gets
        # a second guarded write.  Body.execute runs assignments in
        # order, so splitting the branch per assignment -- as to_source
        # does -- is semantically identical.
        other = rng.choice(reads)
        assigns = (
            Assign(
                other,
                BinOp(
                    rng.choice(("+", "max")),
                    StreamRead(other),
                    Const(rng.randint(1, 2)),
                ),
            ),
            Assign(
                written,
                BinOp("+", StreamRead(written), StreamRead(other)),
            ),
        )
        branches.append(Branch(_random_condition(rng, indices), assigns))

    program = SourceProgram(
        loops=loops,
        streams=streams,
        body=Body(tuple(branches)),
        size_symbols=size_syms,
        name=name,
    )
    validate_program(program)  # valid by construction; treat failure as a bug
    return program


# ----------------------------------------------------------------------
# design generation
# ----------------------------------------------------------------------
def generate_design(
    rng: random.Random,
    program: SourceProgram,
    *,
    step_bound: int = 2,
    place_bound: int = 1,
    max_places: int = 8,
) -> SystolicArray | None:
    """A random consistent, *compiling* design -- or ``None`` if the
    bounded synthesis space holds no compilable candidate for this program."""
    with profiling.stage("generate.synthesize"):
        try:
            steps = synthesize_step(program, bound=step_bound)
        except ReproError:
            return None
        step = steps[rng.randrange(len(steps))]
        places = synthesize_places(program, step, bound=place_bound)
    if not places:
        return None
    with profiling.stage("generate.trial_compile"):
        order = rng.sample(range(len(places)), len(places))
        for pi in order[:max_places]:
            place = places[pi]
            loadings = list(loading_candidates(program, step, place))
            rng.shuffle(loadings)
            for loading in loadings:
                array = SystolicArray(
                    step=step, place=place, loading_vectors=loading, name="fuzzed"
                )
                try:
                    compile_systolic(program, array)
                except ReproError:
                    continue
                return array
    return None


#: strata a campaign can be restricted to (`generate_instance(feature=...)`)
FEATURES = ("negative_step", "all_negative", "minmax_bound", "multi_branch")


def program_features(program: SourceProgram) -> frozenset[str]:
    """The grammar-coverage tags of one program (see ``docs/fuzzing.md``)."""
    from repro.symbolic.minmax import Extremum

    tags = set()
    steps = [lp.step for lp in program.loops]
    if any(s < 0 for s in steps):
        tags.add("negative_step")
    if all(s < 0 for s in steps):
        tags.add("all_negative")
    if any(
        isinstance(b, Extremum)
        for lp in program.loops
        for b in (lp.lower, lp.upper)
    ):
        tags.add("minmax_bound")
    if len(program.body.streams_written()) > 1:
        tags.add("multi_branch")
    return frozenset(tags)


def generate_instance(
    seed: int, *, max_attempts: int = 40, feature: str | None = None
) -> FuzzInstance | None:
    """The deterministic instance for ``seed`` (``None`` when every attempt
    lands outside the schedulable space -- rare, and itself deterministic).

    ``feature`` restricts generation to one stratum of :data:`FEATURES`:
    attempts whose program lacks the tag are resampled, so a stratified
    campaign spends its whole budget on that part of the grammar.
    """
    if feature is not None and feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}; choose from {FEATURES}")
    rng = random.Random(seed)
    for attempt in range(max_attempts):
        program = generate_program(rng, name=f"fuzz_s{seed}")
        if feature is not None and feature not in program_features(program):
            continue
        array = generate_design(rng, program)
        if array is None:
            continue
        hi = 3 if program.r == 3 else 4
        env = {s: rng.randint(2, hi) for s in program.all_size_symbols}
        return FuzzInstance(program=program, array=array, env=env, seed=seed)
    return None
