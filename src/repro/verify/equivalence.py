"""Sequential-vs-systolic equivalence checking.

The paper validated its scheme by hand-translating the generated programs
to occam and C and running them on real machines ("In all cases, the only
errors were mistakes made in the hand translation").  Here the whole loop
is mechanical: compile, lower, execute on an engine (:func:`run_backend`),
and compare every element of every variable against the sequential
reference interpreter (:func:`oracle_mismatches`).  The CLI, the compile
service and :func:`verify_design` run that sequence through one
:meth:`repro.compilation.Compilation.run`; the fuzz harness compares each
of its engines through :func:`oracle_mismatches`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.program import SystolicProgram
from repro.geometry.point import Point
from repro.lang.expr import RuntimeValue
from repro.lang.program import SourceProgram
from repro.runtime.network import execute
from repro.runtime.scheduler import SchedulerStats
from repro.symbolic.affine import Numeric
from repro.systolic.spec import SystolicArray
from repro.util.errors import ReproError, VerificationError


def random_inputs(
    program: SourceProgram,
    env: Mapping[str, Numeric],
    *,
    seed: int = 0,
    low: int = -9,
    high: int = 9,
    zero_for_written: bool = True,
) -> dict[str, dict[Point, RuntimeValue]]:
    """Deterministic pseudo-random integer contents for every variable.

    Streams that the basic statement writes are zero-initialised by default
    (the usual accumulator convention of the paper's examples).
    """
    rng = random.Random(seed)
    written = program.body.streams_written()
    inputs: dict[str, dict[Point, RuntimeValue]] = {}
    for var in program.variables:
        space = var.space(env)
        if zero_for_written and var.name in written:
            inputs[var.name] = {p: 0 for p in space}
        else:
            inputs[var.name] = {p: rng.randint(low, high) for p in space}
    return inputs


#: Execution engines :func:`run_backend` can drive (simulator is the default).
BACKENDS = ("sim", "pygen", "npgen")


@dataclass
class VerificationReport:
    """Outcome of one verified execution."""

    env: dict
    matched: bool
    stats: SchedulerStats | None
    mismatches: list[str] = field(default_factory=list)
    backend: str = "sim"
    #: elements of every variable the run produced
    elements: int = 0

    def __str__(self) -> str:
        status = "OK" if self.matched else f"MISMATCH ({len(self.mismatches)})"
        if self.stats is None:
            return f"verify[{self.backend}] {self.env}: {status}"
        return (
            f"verify {self.env}: {status}, makespan {self.stats.makespan}, "
            f"{self.stats.total_messages} messages, "
            f"{self.stats.process_count} processes"
        )


def checked_backend(backend) -> str:
    """``backend`` if it names an engine of :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def run_backend(
    sp: SystolicProgram,
    env: Mapping[str, Numeric],
    batch: Sequence[Mapping | None],
    *,
    backend: str = "sim",
    shape: tuple[int, ...] | None = None,
    channel_capacity: int = 1,
    rendered: str | None = None,
) -> list[tuple[dict, SchedulerStats | None]]:
    """Run every input set of ``batch`` on one engine.

    Returns one ``(final contents, scheduler stats or None)`` pair per
    input set; only the simulator reports stats.  npgen runs the whole
    batch in one vectorized pass.  ``shape`` (an array shape ``(p,)`` or
    ``(p, q)``) folds the run onto a fixed physical array: the simulator
    uses the partitioned process network
    (:func:`repro.extensions.partition.partitioned_execute`), npgen the
    banded executor.  pygen has no partitioned mode; it runs
    ``rendered``, the module :func:`~repro.target.pygen.render_python`
    made of ``sp``, when the caller holds it, and renders once otherwise.
    """
    checked_backend(backend)
    if backend == "npgen":
        from repro.target.npgen import execute_numpy_batch

        return [
            (final, None)
            for final in execute_numpy_batch(sp, env, batch, shape=shape)
        ]
    if backend == "pygen":
        if shape is not None:
            raise VerificationError(
                "the pygen backend has no partitioned execution mode; "
                "use backend='sim' or backend='npgen'"
            )
        from repro.target.pygen import render_python, run_rendered

        if rendered is None:
            rendered = render_python(sp)
        return [(run_rendered(rendered, sp, env, inputs), None) for inputs in batch]
    if shape is None:
        return [
            execute(sp, env, inputs, channel_capacity=channel_capacity)
            for inputs in batch
        ]
    from repro.extensions.partition import partitioned_execute

    return [
        partitioned_execute(
            sp, env, inputs, shape=shape, channel_capacity=channel_capacity
        )
        for inputs in batch
    ]


def oracle_mismatches(
    oracle: Mapping[str, Mapping[Point, RuntimeValue]],
    final: Mapping[str, Mapping[tuple, RuntimeValue]],
    limit: int | None = None,
) -> list[str]:
    """Every disagreement of an engine's ``final`` contents with the oracle.

    Elements are looked up by key, so the simulator's ``Point`` keys and
    the tuple keys of pygen and npgen compare alike.  A variable missing
    from ``final``, and variables the oracle does not know, are reported
    by name.  At most ``limit`` messages are returned (all when ``None``).
    """
    mismatches: list[str] = []
    for var, expected in oracle.items():
        got = final.get(var)
        if got is None:
            mismatches.append(f"{var}: variable missing from result")
            continue
        for element, value in expected.items():
            actual = got.get(element)
            if actual != value:
                mismatches.append(f"{var}{element}: got {actual}, oracle {value}")
    extra = sorted(set(final) - set(oracle))
    if extra:
        mismatches.append(f"unexpected variables {extra}")
    return mismatches[:limit]


def verify_design(
    program: SourceProgram,
    array: SystolicArray,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
    *,
    compiled: SystolicProgram | None = None,
    channel_capacity: int = 1,
    seed: int = 0,
    raise_on_mismatch: bool = True,
    backend: str = "sim",
    partition: tuple[int, ...] | None = None,
) -> VerificationReport:
    """Compile (unless given), execute on ``backend`` and compare vs oracle.

    ``backend`` selects the execution engine: ``"sim"`` (the coroutine
    process-network simulator, with scheduler stats), ``"pygen"`` (the
    rendered standalone Python module) or ``"npgen"`` (the vectorized
    NumPy wavefront backend; requires the optional NumPy extra).

    ``partition`` folds the execution onto a fixed physical array of that
    shape (``(p,)`` bands or ``(p, q)`` tiles) via the symbolically
    compiled LSGP partition; supported on ``sim`` and ``npgen``.
    """
    from repro.compilation import Compilation

    if compiled is None:
        handle = Compilation.compile(program, array)
    else:
        handle = Compilation(program, array, compiled)
    done = handle.run(
        env,
        backend=backend,
        seed=seed,
        inputs=None if inputs is None else [inputs],
        shape=partition,
        channel_capacity=channel_capacity,
    )
    [(_final, stats)], [mismatches] = done.runs, done.mismatches
    report = VerificationReport(
        env=dict(env),
        matched=not mismatches,
        stats=stats,
        mismatches=mismatches,
        backend=backend,
        elements=done.elements,
    )
    if mismatches and raise_on_mismatch:
        preview = "; ".join(mismatches[:5])
        raise VerificationError(
            f"systolic program disagrees with the oracle at {dict(env)}: {preview}"
        )
    return report

