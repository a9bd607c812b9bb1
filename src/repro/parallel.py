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
one CPU is available; ``force_pool=True`` overrides the CPU check for
tests and measurements.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import profiling
from repro.core.memo import MEMO
from repro.geometry.linalg import Matrix
from repro.lang.program import SourceProgram
from repro.symbolic.affine import Numeric
from repro.systolic.explore import DesignCost, rank_costs, sweep_candidate
from repro.systolic.schedule import candidate_tasks

__all__ = [
    "SweepTimings",
    "SweepResult",
    "pool_map",
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
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def pool_map(
    task_fn,
    tasks: Sequence,
    *,
    jobs: int | None = 1,
    force_pool: bool = False,
    initializer=None,
    initargs: tuple = (),
) -> tuple[list, int]:
    """Map picklable tasks over a clamped process pool; the shared engine
    behind :func:`sweep_designs` and ``repro fuzz``.

    Returns ``(results in task order, effective worker count)``.  The
    worker count is clamped to the task count, and the call falls back to
    the serial path -- emitting a :class:`RuntimeWarning` -- when only one
    CPU is available (``force_pool=True`` overrides, for measurements and
    cross-process tests).  The serial path runs ``initializer`` in-process
    and then applies ``task_fn`` directly, so results are identical for
    every ``jobs`` value.
    """
    n_jobs = resolve_jobs(jobs)
    pool_jobs = min(n_jobs, len(tasks)) if tasks else 1
    if pool_jobs > 1 and not force_pool and (os.cpu_count() or 1) == 1:
        warnings.warn(
            f"requested jobs={n_jobs} but only 1 CPU is available; using "
            "the serial path (pass force_pool=True to override)",
            RuntimeWarning,
            stacklevel=3,
        )
        pool_jobs = 1
    if pool_jobs > 1:
        ctx = multiprocessing.get_context()
        chunksize = max(1, len(tasks) // (pool_jobs * 4))
        with ctx.Pool(
            processes=pool_jobs,
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            return pool.map(task_fn, tasks, chunksize=chunksize), pool_jobs
    if initializer is not None:
        initializer(*initargs)
    return [task_fn(t) for t in tasks], pool_jobs


def sweep_designs(
    program: SourceProgram,
    step: Matrix,
    envs: Sequence[Mapping[str, Numeric]],
    *,
    bound: int = 1,
    limit: int | None = None,
    max_candidates: int | None = None,
    jobs: int | None = None,
    force_pool: bool = False,
) -> SweepResult:
    """Cost the whole bounded place design space at every requested size.

    Each compilable candidate is compiled once and costed at each entry of
    ``envs``; ``jobs`` > 1 distributes candidates over a process pool.  The
    per-size tables are ranked exactly like serial
    :func:`repro.systolic.explore.explore_designs` output.

    ``max_candidates`` truncates the candidate space to its deterministic
    enumeration prefix -- a cost cap for callers (like the fuzz harness's
    pool-vs-serial comparison) that need a representative sweep, not an
    exhaustive one.  ``timings.candidates`` reports the truncated count.

    The effective worker count is clamped to the candidate count, and the
    sweep falls back to the serial path -- emitting a
    :class:`RuntimeWarning` -- when ``os.cpu_count()`` is 1 (process
    parallelism can only add overhead there); ``timings.jobs`` records the
    effective count.  Pass ``force_pool=True`` to keep the pool regardless
    (measurements, cross-process tests).
    """
    if not envs:
        raise ValueError("sweep_designs needs at least one size environment")
    t_start = time.perf_counter()
    size_envs = [dict(e) for e in envs]
    tasks = candidate_tasks(program, step, bound=bound)
    if max_candidates is not None:
        if max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {max_candidates}"
            )
        tasks = tasks[:max_candidates]
    t_synth = time.perf_counter()

    results, pool_jobs = pool_map(
        _sweep_task,
        tasks,
        jobs=jobs,
        force_pool=force_pool,
        initializer=_init_worker,
        initargs=(program, step.rows, size_envs, MEMO.export_state()),
    )
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

