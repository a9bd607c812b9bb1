"""Parallel, batched design-space exploration.

"Once [step] has been derived, many different place functions are
possible" (Section 3.2) -- and costing all of them is embarrassingly
parallel: each candidate is a pure function of ``(program, step, place,
loading)``, so workers need no shared state.  This module fans
:func:`repro.systolic.explore.sweep_candidate` over the bounded place
design space with a :mod:`multiprocessing` pool and batches *multi-size*
sweeps so each design is compiled exactly once and its symbolic closed
forms are evaluated at every requested size (compilation dominates the
per-candidate cost, so the batching alone is a win even on one core;
``tests/test_parallel.py`` pins the one-compile-per-candidate count).

The heavyweight context ``(program, step, envs)`` travels to each worker
once via the pool initializer -- together with a snapshot of the driver's
cross-design derivation memo (:data:`repro.core.memo.MEMO`), so workers
start warm instead of re-deriving shared forms -- and individual tasks are
just place row tuples (:func:`repro.systolic.schedule.candidate_tasks`).
Results come back in candidate order and are ranked with the same
deterministic key as the serial path, so ``jobs=N`` produces
byte-identical tables for every N.

Degenerate-parallelism guard: a pool cannot beat the serial path on a
single-CPU machine (jobs=2 measured 0.93x serial there), and workers
beyond the candidate count are pure overhead.
``sweep_designs`` therefore clamps the worker count to the task count and
falls back to the serial path (with a :class:`RuntimeWarning`) when only
one CPU is available.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro import profiling
from repro.core.memo import MEMO
from repro.geometry.linalg import Matrix
from repro.lang.program import SourceProgram
from repro.symbolic.affine import Numeric
from repro.systolic.explore import DesignCost, rank_costs, sweep_candidate
from repro.systolic.schedule import candidate_tasks
from repro.util.errors import InvalidArgumentError

__all__ = [
    "SweepTimings",
    "SweepResult",
    "fan_out",
    "resolve_jobs",
    "sweep_designs",
]


@dataclass(frozen=True)
class SweepTimings:
    """Wall-clock stage breakdown of one sweep."""

    synthesis_s: float  # place-candidate enumeration
    cost_s: float  # compile + cost over all candidates and sizes
    total_s: float
    jobs: int  # effective worker count (after the serial fallback)
    candidates: int  # enumerated place candidates
    compiled: int  # candidates some loading axis compiled

    def row(self) -> dict:
        return {
            "synthesis_s": round(self.synthesis_s, 6),
            "cost_s": round(self.cost_s, 6),
            "total_s": round(self.total_s, 6),
            "jobs": self.jobs,
            "candidates": self.candidates,
            "compiled": self.compiled,
        }


@dataclass(frozen=True)
class SweepResult:
    """Ranked :class:`DesignCost` tables, one per requested size."""

    by_size: tuple[tuple[dict, tuple[DesignCost, ...]], ...]
    timings: SweepTimings

    def costs_at(self, env: Mapping[str, Numeric]) -> list[DesignCost]:
        target = dict(env)
        for size_env, costs in self.by_size:
            if size_env == target:
                return list(costs)
        raise KeyError(f"size {target!r} was not part of this sweep")


# -- worker side -----------------------------------------------------------
# The pool initializer stores the shared context in module globals of the
# *worker* process; tasks then only carry the place rows.
_WORKER: dict = {}


def _init_worker(program: SourceProgram, step_rows, envs, memo_state=None) -> None:
    _WORKER["program"] = program
    _WORKER["step"] = Matrix(step_rows)
    _WORKER["envs"] = envs
    if memo_state:
        # Pickling rebuilds every symbolic object through its constructor,
        # re-interning it in this process, so the imported entries are
        # canonical here too.
        MEMO.import_state(memo_state)


def _sweep_task(place_rows):
    return sweep_candidate(
        _WORKER["program"], _WORKER["step"], Matrix(place_rows), _WORKER["envs"]
    )


# -- driver side -----------------------------------------------------------
def resolve_jobs(jobs: int | None) -> int:
    """``None``/1 -> serial; 0 -> one worker per CPU; N -> N workers."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise InvalidArgumentError(f"jobs must be >= 0, got {jobs}")
    return jobs


def fan_out(
    task_fn, tasks: Sequence, *, jobs: int | None, initializer, initargs: tuple
) -> tuple[int, Iterator]:
    """Map picklable tasks over worker processes; the one fan-out behind
    :func:`sweep_designs` and ``repro fuzz``.

    Returns ``(effective worker count, results)``: the results are yielded
    lazily and in task order.  The worker count is clamped to the task
    count, and falls back to 1 -- emitting a :class:`RuntimeWarning` --
    when only one CPU is available.  One worker runs ``initializer`` and
    the tasks in-process, so results are identical for every ``jobs``
    value.  Otherwise one pool serves the whole call, and it is terminated
    as soon as the consumer stops: close the iterator (or exhaust it) to
    leave no worker running.
    """
    n_jobs = resolve_jobs(jobs)
    workers = max(1, min(n_jobs, len(tasks)))
    if workers > 1 and (os.cpu_count() or 1) == 1:
        warnings.warn(
            f"requested jobs={n_jobs} but only 1 CPU is available; using "
            "the serial path",
            RuntimeWarning,
            stacklevel=3,
        )
        workers = 1
    return workers, _results(task_fn, tasks, workers, initializer, initargs)


def _results(task_fn, tasks, workers, initializer, initargs) -> Iterator:
    if workers == 1:
        initializer(*initargs)
        yield from map(task_fn, tasks)
        return
    with multiprocessing.get_context().Pool(workers, initializer, initargs) as pool:
        yield from pool.imap(task_fn, tasks, chunksize=1)


def sweep_designs(
    program: SourceProgram,
    step: Matrix,
    envs: Sequence[Mapping[str, Numeric]],
    *,
    bound: int = 1,
    limit: int | None = None,
    jobs: int | None = None,
) -> SweepResult:
    """Cost the whole bounded place design space at every requested size.

    Each compilable candidate is compiled once and costed at each entry of
    ``envs``; ``jobs`` > 1 distributes candidates over a process pool.  The
    per-size tables are ranked exactly like serial
    :func:`repro.systolic.explore.explore_designs` output.

    The effective worker count is clamped to the candidate count, and the
    sweep falls back to the serial path -- emitting a
    :class:`RuntimeWarning` -- when ``os.cpu_count()`` is 1 (process
    parallelism can only add overhead there); ``timings.jobs`` records the
    effective count.
    """
    if not envs:
        raise ValueError("sweep_designs needs at least one size environment")
    t_start = time.perf_counter()
    size_envs = [dict(e) for e in envs]
    tasks = candidate_tasks(program, step, bound=bound)
    t_synth = time.perf_counter()

    pool_jobs, results = fan_out(
        _sweep_task,
        tasks,
        jobs=jobs,
        initializer=_init_worker,
        initargs=(program, step.rows, size_envs, MEMO.export_state()),
    )
    results = list(results)
    t_cost = time.perf_counter()

    compiled = 0
    per_size: list[list[DesignCost]] = [[] for _ in size_envs]
    for result in results:
        if result is None:
            continue
        compiled += 1
        for i, cost in enumerate(result):
            if cost is not None:
                per_size[i].append(cost)
    by_size = tuple(
        (env, tuple(rank_costs(costs, limit)))
        for env, costs in zip(size_envs, per_size)
    )
    t_end = time.perf_counter()
    profiling.add_stage("sweep.synthesis", t_synth - t_start)
    profiling.add_stage("sweep.cost", t_cost - t_synth)
    profiling.add_stage("sweep.rank", t_end - t_cost)
    timings = SweepTimings(
        synthesis_s=t_synth - t_start,
        cost_s=t_cost - t_synth,
        total_s=t_end - t_start,
        jobs=pool_jobs,
        candidates=len(tasks),
        compiled=compiled,
    )
    return SweepResult(by_size=by_size, timings=timings)

