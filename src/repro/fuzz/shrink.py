"""Greedy shrinking of failing fuzz instances.

Given an instance whose harness run failed, the shrinker repeatedly tries
simplifying transformations and keeps any candidate that still fails with
at least one of the *original* failed checks (so a shrink can never wander
onto an unrelated bug class).  Transformations, tried cheapest-payoff
first:

* shrink the problem size (every size symbol toward 2);
* drop a loop (r = 3 -> 2), projecting index maps onto the remaining
  columns, discarding rows that become zero and substituting 0 for the
  dropped index in guards;
* drop a guarded branch of the basic statement;
* drop a read-only stream (its reads are replaced by the constant 1);
* simplify the expression tree (replace a ``BinOp`` by either operand);
* simplify an index map (zero an entry, or pull a ``|c| > 1`` coefficient
  to its sign), re-deriving the variable's bounds;
* simplify loop bounds (an extremum bound collapses to each of its
  arguments, constants move toward 0, negative steps flip to +1).

Structural transformations invalidate the design, so each candidate is
rebuilt: the original array is kept when it still compiles, otherwise the
first compiling candidate of the deterministic bounded synthesis order is
used.  The result replays deterministically from its reproducer file --
there is no randomness anywhere in this module.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.scheme import compile_systolic
from repro.fuzz.generator import FuzzInstance, variable_bounds_for
from repro.fuzz.harness import HarnessConfig, InstanceReport, run_instance
from repro.geometry.linalg import Matrix
from repro.lang.expr import (
    Assign,
    BinOp,
    Body,
    Branch,
    Condition,
    Const,
    Expr,
    IndexExpr,
    StreamRead,
)
from repro.lang.program import Loop, SourceProgram
from repro.lang.stream import Stream
from repro.lang.validate import validate_program
from repro.lang.variables import IndexedVariable
from repro.symbolic.affine import Affine
from repro.symbolic.minmax import Extremum
from repro.systolic.explore import loading_candidates
from repro.systolic.schedule import synthesize_places, synthesize_step
from repro.systolic.spec import SystolicArray
from repro.util.errors import ReproError


# ----------------------------------------------------------------------
# expression/body rewriting helpers
# ----------------------------------------------------------------------
def _rewrite_expr(e: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """Bottom-up rewrite; ``fn`` returns a replacement or ``None``."""
    if isinstance(e, BinOp):
        e = BinOp(e.op, _rewrite_expr(e.left, fn), _rewrite_expr(e.right, fn))
    replacement = fn(e)
    return e if replacement is None else replacement


def _drop_index_in_body(body: Body, index: str) -> Body:
    """Substitute 0 for a dropped loop index in guards and index exprs."""

    def fix(e: Expr) -> Expr | None:
        if isinstance(e, IndexExpr) and index in e.affine.free_symbols:
            return IndexExpr(e.affine.subs({index: 0}))
        return None

    branches = []
    for br in body.branches:
        cond = br.condition
        if cond is not None and index in cond.affine.free_symbols:
            cond = Condition(cond.affine.subs({index: 0}), cond.relation)
        assigns = tuple(
            Assign(a.stream, _rewrite_expr(a.expr, fix)) for a in br.assigns
        )
        branches.append(Branch(cond, assigns))
    return Body(tuple(branches))


def _prune_unused_streams(program: SourceProgram) -> SourceProgram | None:
    """Drop declared streams the body no longer accesses."""
    accessed = program.body.streams_accessed()
    streams = tuple(s for s in program.streams if s.name in accessed)
    if not streams:
        return None
    if len(streams) == len(program.streams):
        return program
    return SourceProgram(
        loops=program.loops,
        streams=streams,
        body=program.body,
        size_symbols=program.size_symbols,
        name=program.name,
    )


def _expr_sites(e: Expr, path=()) -> Iterator[tuple[tuple, Expr]]:
    yield path, e
    if isinstance(e, BinOp):
        yield from _expr_sites(e.left, path + ("left",))
        yield from _expr_sites(e.right, path + ("right",))


def _replace_at(e: Expr, path: tuple, new: Expr) -> Expr:
    if not path:
        return new
    assert isinstance(e, BinOp)
    if path[0] == "left":
        return BinOp(e.op, _replace_at(e.left, path[1:], new), e.right)
    return BinOp(e.op, e.left, _replace_at(e.right, path[1:], new))


# ----------------------------------------------------------------------
# design re-derivation
# ----------------------------------------------------------------------
def first_design(program: SourceProgram) -> SystolicArray | None:
    """The first compiling design in deterministic synthesis order."""
    try:
        steps = synthesize_step(program, bound=2)
    except ReproError:
        return None
    for step in steps[:3]:
        try:
            places = synthesize_places(program, step, bound=1)
        except ReproError:
            continue
        for place in places:
            for loading in loading_candidates(program, step, place):
                array = SystolicArray(
                    step=step, place=place, loading_vectors=loading, name="shrunk"
                )
                try:
                    compile_systolic(program, array)
                except ReproError:
                    continue
                return array
    return None


def _rebuild(
    program: SourceProgram, env: dict, hint: SystolicArray | None
) -> FuzzInstance | None:
    """Validate + redesign a transformed program; None when not viable."""
    try:
        validate_program(program)
    except ReproError:
        return None
    array = None
    if hint is not None and hint.step.ncols == program.r:
        names = {s.name for s in program.streams}
        hinted = SystolicArray(
            step=hint.step,
            place=hint.place,
            loading_vectors={
                k: v for k, v in hint.loading_vectors.items() if k in names
            },
            name=hint.name,
        )
        try:
            compile_systolic(program, hinted)
            array = hinted
        except ReproError:
            array = None
    if array is None:
        array = first_design(program)
    if array is None:
        return None
    syms = program.all_size_symbols
    clamped = {s: int(env.get(s, 2)) for s in syms}
    return FuzzInstance(program=program, array=array, env=clamped, seed=-1)


def _with_loops(
    program: SourceProgram, loops: tuple[Loop, ...]
) -> SourceProgram | None:
    """Same program over different loop bounds; variable bounds re-derived."""
    try:
        streams = tuple(
            Stream(
                IndexedVariable(
                    s.name, variable_bounds_for(s.index_map.rows, loops)
                ),
                s.index_map,
            )
            for s in program.streams
        )
        return SourceProgram(
            loops=loops,
            streams=streams,
            body=program.body,
            size_symbols=program.size_symbols,
            name=program.name,
        )
    except ReproError:
        return None


# ----------------------------------------------------------------------
# candidate transformations
# ----------------------------------------------------------------------
def _env_candidates(inst: FuzzInstance) -> Iterator[FuzzInstance]:
    for sym in sorted(inst.env):
        value = int(inst.env[sym])
        targets = [2] if value > 3 else []
        if value > 2:
            targets.append(value - 1)
        for target in targets:
            if target == value:
                continue
            env = dict(inst.env)
            env[sym] = target
            yield FuzzInstance(
                program=inst.program, array=inst.array, env=env, seed=-1
            )


def _loop_drop_candidates(inst: FuzzInstance) -> Iterator[FuzzInstance]:
    program = inst.program
    if program.r <= 2:
        return
    for t in range(program.r):
        loops = program.loops[:t] + program.loops[t + 1 :]
        r2 = len(loops)
        streams = []
        viable = True
        for s in program.streams:
            rows = [r[:t] + r[t + 1 :] for r in s.index_map.rows]
            nonzero = [r for r in rows if any(r)]
            if len(nonzero) < r2 - 1:
                viable = False
                break
            rows = nonzero[: r2 - 1]
            try:
                var = IndexedVariable(
                    s.name, variable_bounds_for(rows, loops)
                )
                streams.append(Stream(var, Matrix(rows)))
            except ReproError:
                viable = False
                break
        if not viable:
            continue
        body = _drop_index_in_body(program.body, program.loops[t].index)
        try:
            candidate = SourceProgram(
                loops=loops,
                streams=tuple(streams),
                body=body,
                size_symbols=program.size_symbols,
                name=program.name,
            )
        except ReproError:
            continue
        rebuilt = _rebuild(candidate, inst.env, hint=None)
        if rebuilt is not None:
            yield rebuilt


def _branch_drop_candidates(inst: FuzzInstance) -> Iterator[FuzzInstance]:
    program = inst.program
    if len(program.body.branches) <= 1:
        return
    for t in range(len(program.body.branches) - 1, -1, -1):
        branches = (
            program.body.branches[:t] + program.body.branches[t + 1 :]
        )
        try:
            candidate = SourceProgram(
                loops=program.loops,
                streams=program.streams,
                body=Body(branches),
                size_symbols=program.size_symbols,
                name=program.name,
            )
        except ReproError:
            continue
        pruned = _prune_unused_streams(candidate)
        if pruned is None:
            continue
        rebuilt = _rebuild(pruned, inst.env, hint=inst.array)
        if rebuilt is not None:
            yield rebuilt


def _stream_drop_candidates(inst: FuzzInstance) -> Iterator[FuzzInstance]:
    program = inst.program
    written = program.body.streams_written()
    if len(program.streams) <= 1:
        return
    for victim in [s.name for s in program.streams if s.name not in written]:

        def fix(e: Expr, victim=victim) -> Expr | None:
            if isinstance(e, StreamRead) and e.name == victim:
                return Const(1)
            return None

        branches = tuple(
            Branch(
                br.condition,
                tuple(
                    Assign(a.stream, _rewrite_expr(a.expr, fix))
                    for a in br.assigns
                ),
            )
            for br in program.body.branches
        )
        streams = tuple(s for s in program.streams if s.name != victim)
        try:
            candidate = SourceProgram(
                loops=program.loops,
                streams=streams,
                body=Body(branches),
                size_symbols=program.size_symbols,
                name=program.name,
            )
        except ReproError:
            continue
        rebuilt = _rebuild(candidate, inst.env, hint=inst.array)
        if rebuilt is not None:
            yield rebuilt


def _expr_candidates(inst: FuzzInstance) -> Iterator[FuzzInstance]:
    program = inst.program
    for bi, br in enumerate(program.body.branches):
        for ai, assign in enumerate(br.assigns):
            for path, node in _expr_sites(assign.expr):
                if not isinstance(node, BinOp):
                    continue
                for child in (node.left, node.right):
                    new_expr = _replace_at(assign.expr, path, child)
                    assigns = (
                        br.assigns[:ai]
                        + (Assign(assign.stream, new_expr),)
                        + br.assigns[ai + 1 :]
                    )
                    branches = (
                        program.body.branches[:bi]
                        + (Branch(br.condition, assigns),)
                        + program.body.branches[bi + 1 :]
                    )
                    try:
                        candidate = SourceProgram(
                            loops=program.loops,
                            streams=program.streams,
                            body=Body(branches),
                            size_symbols=program.size_symbols,
                            name=program.name,
                        )
                    except ReproError:
                        continue
                    pruned = _prune_unused_streams(candidate)
                    if pruned is None:
                        continue
                    rebuilt = _rebuild(pruned, inst.env, hint=inst.array)
                    if rebuilt is not None:
                        yield rebuilt


def _index_map_candidates(inst: FuzzInstance) -> Iterator[FuzzInstance]:
    """Simplify one index-map entry at a time.

    Zeroing an entry (or pulling a ``|c| > 1`` coefficient back to its
    sign) keeps the map integral; candidates that lose rank ``r - 1`` are
    rejected by ``validate_program`` inside ``_rebuild``.  The variable's
    bounds are re-derived from the new rows.
    """
    program = inst.program
    for si, s in enumerate(program.streams):
        rows = [list(r) for r in s.index_map.rows]
        for i in range(len(rows)):
            for j, c in enumerate(rows[i]):
                if c == 0:
                    continue
                targets = [0] if abs(c) == 1 else [c // abs(c), 0]
                for target in targets:
                    new_rows = [tuple(r) for r in rows]
                    row = list(new_rows[i])
                    row[j] = target
                    if not any(row):
                        continue  # a zero row can never keep full rank
                    new_rows[i] = tuple(row)
                    try:
                        var = IndexedVariable(
                            s.name, variable_bounds_for(new_rows, program.loops)
                        )
                        new_stream = Stream(var, Matrix(new_rows))
                    except ReproError:
                        continue
                    streams = (
                        program.streams[:si]
                        + (new_stream,)
                        + program.streams[si + 1 :]
                    )
                    try:
                        candidate = SourceProgram(
                            loops=program.loops,
                            streams=streams,
                            body=program.body,
                            size_symbols=program.size_symbols,
                            name=program.name,
                        )
                    except ReproError:
                        continue
                    rebuilt = _rebuild(candidate, inst.env, hint=inst.array)
                    if rebuilt is not None:
                        yield rebuilt


def _bound_variants(lp: Loop) -> Iterator[Loop]:
    """Shrink moves for one loop: flip a negative step, collapse an
    extremum bound to each of its arguments, nudge constants toward 0."""
    if lp.step == -1:
        yield Loop(lp.index, lp.lower, lp.upper, 1)
    if isinstance(lp.upper, Extremum):
        for arg in lp.upper.args:
            yield Loop(lp.index, lp.lower, arg, lp.step)
    elif lp.upper.const > 0:
        yield Loop(lp.index, lp.lower, lp.upper - 1, lp.step)
    if isinstance(lp.lower, Extremum):
        for arg in lp.lower.args:
            yield Loop(lp.index, arg, lp.upper, lp.step)
    elif lp.lower.const != 0:
        toward = -1 if lp.lower.const > 0 else 1
        yield Loop(lp.index, lp.lower + toward, lp.upper, lp.step)


def _bound_candidates(inst: FuzzInstance) -> Iterator[FuzzInstance]:
    program = inst.program
    for t, lp in enumerate(program.loops):
        for variant in _bound_variants(lp):
            loops = program.loops[:t] + (variant,) + program.loops[t + 1 :]
            candidate = _with_loops(program, loops)
            if candidate is None:
                continue
            rebuilt = _rebuild(candidate, inst.env, hint=inst.array)
            if rebuilt is not None:
                yield rebuilt


def _candidates(inst: FuzzInstance) -> Iterator[FuzzInstance]:
    yield from _env_candidates(inst)
    yield from _loop_drop_candidates(inst)
    yield from _branch_drop_candidates(inst)
    yield from _stream_drop_candidates(inst)
    yield from _expr_candidates(inst)
    yield from _index_map_candidates(inst)
    yield from _bound_candidates(inst)


# ----------------------------------------------------------------------
# the greedy loop
# ----------------------------------------------------------------------
def shrink_instance(
    instance: FuzzInstance,
    config: HarnessConfig | None = None,
    *,
    max_steps: int = 96,
    runner: Callable[..., InstanceReport] = run_instance,
) -> tuple[FuzzInstance, InstanceReport]:
    """Minimize a failing instance; returns ``(shrunk, its report)``.

    The input must fail under ``config``; if it does not, it is returned
    unchanged.  ``max_steps`` bounds the number of *harness runs* spent.
    """
    config = config or HarnessConfig()
    base = runner(instance, config)
    if base.ok:
        return instance, base
    target = base.failed_checks
    current, current_report = instance, base
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _candidates(current):
            if steps >= max_steps:
                break
            steps += 1
            report = runner(candidate, config)
            if not report.ok and (report.failed_checks & target):
                current, current_report = candidate, report
                improved = True
                break
    return current, current_report
