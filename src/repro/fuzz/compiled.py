"""The compile-once pipeline shared by every differential check.

Historically each harness check re-derived what it needed from the source
program: the render checks re-rendered, the metamorphic checks recompiled,
every engine regenerated its own inputs and re-ran the oracle.  A
:class:`CompiledInstance` runs the pipeline stages once per fuzz instance --

    parse/validate/synthesize (``compile_systolic``, with the planted
    mutation applied)  ->  rendered Python module  ->  network plan  ->
    per-seed inputs and oracle states

-- and memoizes each artifact, so the checks all consume one shared object
instead of rebuilding the chain.  The class-level :data:`STATS` counters
make the reuse observable (and testable): a full harness run over one
instance performs exactly one compile and one render no matter how many
checks consume them.

Everything here is also what the shrinker replays: a shrunk candidate is
re-wrapped in a fresh ``CompiledInstance``, so minimized reproducers travel
through the identical build path as the original failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import profiling
from repro.core.program import SystolicProgram
from repro.core.scheme import compile_systolic
from repro.lang.interpreter import run_sequential
from repro.runtime.network import NetworkPlan, network_plan
from repro.target.pygen import render_python
from repro.verify.equivalence import random_inputs

#: monotonic pipeline counters; read by tests via :func:`stats`
STATS = {
    "builds": 0,
    "render_builds": 0,
    "render_reuses": 0,
    "input_builds": 0,
    "input_reuses": 0,
    "oracle_builds": 0,
    "oracle_reuses": 0,
}


def stats() -> dict:
    """A snapshot of the pipeline reuse counters."""
    return dict(STATS)


profiling.register("fuzz_pipeline", stats)


@dataclass
class CompiledInstance:
    """One fuzz instance, compiled once, consumed by every check.

    Artifacts are built lazily and cached: the compiled (and possibly
    mutated) program eagerly at construction, the rendered module / inputs /
    oracle states on first use.  ``mutate`` records the planted bug the
    program carries so a harness run can tell whether a prebuilt pipeline
    matches its configuration.
    """

    instance: object
    sp: SystolicProgram
    mutate: str | None = None
    _rendered: str | None = None
    _inputs: dict = field(default_factory=dict)
    _oracle: dict = field(default_factory=dict)

    @classmethod
    def build(cls, instance, *, mutate: str | None = None) -> "CompiledInstance":
        """Compile ``instance`` (applying the planted mutation, if any)."""
        from repro.fuzz.harness import apply_mutation

        sp = apply_mutation(
            compile_systolic(instance.program, instance.array), mutate
        )
        STATS["builds"] += 1
        return cls(instance=instance, sp=sp, mutate=mutate)

    # ------------------------------------------------------------------
    @property
    def rendered(self) -> str:
        """The generated Python module source (rendered exactly once)."""
        if self._rendered is None:
            STATS["render_builds"] += 1
            self._rendered = render_python(self.sp)
        else:
            STATS["render_reuses"] += 1
        return self._rendered

    def inputs(self, seed: int):
        """The random input mapping for one input-set seed."""
        cached = self._inputs.get(seed)
        if cached is None:
            STATS["input_builds"] += 1
            cached = self._inputs[seed] = random_inputs(
                self.instance.program, self.instance.env, seed=seed
            )
        else:
            STATS["input_reuses"] += 1
        return cached

    def oracle(self, seed: int):
        """The sequential-interpreter ground truth for one input-set seed."""
        cached = self._oracle.get(seed)
        if cached is None:
            STATS["oracle_builds"] += 1
            cached = self._oracle[seed] = run_sequential(
                self.instance.program, self.instance.env, self.inputs(seed)
            )
        else:
            STATS["oracle_reuses"] += 1
        return cached

    def plan(self) -> NetworkPlan:
        """The pre-bound network plan (shared via the global plan cache, so
        the simulator, capacity and partition checks all wire from it)."""
        return network_plan(self.sp, self.instance.env)
