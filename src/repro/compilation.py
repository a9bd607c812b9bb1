"""One compiled design: the handle every front end holds.

The scheme is a single compilation -- a source loop nest plus a
``step``/``place`` design yields one systolic program -- and every
execution is checked against the sequential program.  A
:class:`Compilation` holds that one result: the source program, the array
and the derived :class:`~repro.core.program.SystolicProgram`.  The CLI,
the compile service's design store,
:func:`~repro.verify.equivalence.verify_design` and the fuzz harness all
hold one.

The fingerprint and the rendered pygen module are built lazily, at most
once per handle.  :meth:`Compilation.run` is the one verified-execution
path: seeded inputs, one :func:`~repro.verify.equivalence.run_backend`
call for the whole batch, and one oracle comparison per input set.
Per-size artifacts (network plans, wavefront and partitioned schedules)
stay in their own content-keyed caches, not on the handle: a planted
mutant shares its parent's fingerprint, so nothing is keyed on it here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from repro.core.program import SystolicProgram
from repro.core.scheme import compile_systolic
from repro.lang.interpreter import run_sequential
from repro.lang.program import SourceProgram
from repro.runtime.scheduler import SchedulerStats
from repro.symbolic.affine import Numeric
from repro.systolic.spec import SystolicArray
from repro.target import pygen
from repro.target.build import build_target_program
from repro.target.cgen import render_c
from repro.target.occam import render_occam
from repro.target.pretty import render_paper
from repro.util.errors import InvalidArgumentError, ReproError
from repro.verify.equivalence import oracle_mismatches, random_inputs, run_backend

__all__ = ["EMITTERS", "Compilation", "Execution"]

#: target notation -> renderer of the lowered target program
EMITTERS = {"paper": render_paper, "occam": render_occam, "c": render_c}


class Execution(NamedTuple):
    """What one :meth:`Compilation.run` produced."""

    #: ``(final contents, scheduler stats or None)`` per input set
    runs: list[tuple[dict, SchedulerStats | None]]
    #: oracle disagreements per input set; ``None`` when unchecked
    mismatches: list[list[str]] | None
    #: wall-clock seconds of the engine run alone
    seconds: float

    @property
    def elements(self) -> int:
        """Elements of every variable in one run's final contents."""
        return sum(map(len, self.runs[0][0].values()))

    @property
    def mismatched(self) -> int:
        """Disagreeing elements over the whole batch."""
        return sum(map(len, self.mismatches))


@dataclass(frozen=True, eq=False)
class Compilation:
    """A source program and array, compiled once into ``sp``."""

    program: SourceProgram
    array: SystolicArray
    sp: SystolicProgram

    @classmethod
    def compile(cls, program: SourceProgram, array: SystolicArray) -> "Compilation":
        return cls(program, array, compile_systolic(program, array))

    @cached_property
    def fingerprint(self) -> str:
        """The design's content hash (sha256 over source and array)."""
        return pygen.fingerprint_of(self.program, self.array)

    @cached_property
    def rendered(self) -> str:
        """The generated standalone Python module."""
        return pygen.render_python(self.sp)

    def emit(self, kind: str) -> str:
        """The program in one target notation (a key of :data:`EMITTERS`)."""
        if kind not in EMITTERS:
            raise ReproError(f"emit must be one of {tuple(EMITTERS)}, got {kind!r}")
        return EMITTERS[kind](build_target_program(self.sp))

    def run(
        self,
        env: Mapping[str, Numeric],
        *,
        backend: str = "sim",
        seed: int = 0,
        batch: int = 1,
        inputs: Sequence[Mapping] | None = None,
        shape: tuple[int, ...] | None = None,
        channel_capacity: int = 1,
        check: bool = True,
    ) -> Execution:
        """Execute on ``backend`` and compare every run with the oracle.

        The input sets are ``inputs`` when given, else ``batch`` random
        ones seeded ``seed .. seed + batch - 1``.  ``shape`` folds the run
        onto a fixed physical array (see
        :func:`~repro.verify.equivalence.run_backend`).  ``check=False``
        skips the sequential oracle.
        """
        if batch < 1:
            raise InvalidArgumentError(f"batch must be >= 1, got {batch}")
        if inputs is None:
            inputs = [
                random_inputs(self.program, env, seed=seed + b) for b in range(batch)
            ]
        if backend == "npgen":  # NumPy loads before the engine's timer starts
            import repro.target.npgen  # noqa: F401
        start = time.perf_counter()
        runs = run_backend(
            self.sp,
            env,
            inputs,
            backend=backend,
            shape=shape,
            channel_capacity=channel_capacity,
            rendered=self.rendered if backend == "pygen" else None,
        )
        seconds = time.perf_counter() - start
        mismatches = None
        if check:
            mismatches = [
                oracle_mismatches(run_sequential(self.program, env, given), final)
                for given, (final, _stats) in zip(inputs, runs)
            ]
        return Execution(runs, mismatches, seconds)
