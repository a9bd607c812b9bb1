"""The differential harness: one instance, every engine, every invariant.

For a :class:`~repro.fuzz.generator.FuzzInstance` the harness

1. compiles the instance once into a :class:`~repro.compilation.Compilation`
   (with the planted mutation, if any) and runs the **sequential
   interpreter** (the ground truth the paper verifies against) once on
   every input set (``input_sets`` seeds per instance);
2. runs every engine of :data:`ENGINE_RUNS` -- the **coroutine
   simulator**, the **compiled Python backend** (the handle's one rendered
   module, on capacity-1 channels) and, sampled by the driver, the
   vectorized NumPy backend, channel capacity 3 and the banded npgen
   fold onto 2 bands -- through :meth:`Compilation.run`, and compares
   every element of every variable with the oracle;
3. runs the **enumerative cross-check**
   (:func:`repro.verify.enumerative.cross_check`) of every symbolic closed
   form against its brute-force definition;
4. checks that a **pickle round-trip** (what ``parallel.sweep_designs``
   does to ship work) re-interns to the identical rendering and identical
   :class:`~repro.systolic.explore.DesignCost`.

Which checks exist is decided by a kill matrix
(``tests/fuzz/test_kill_matrix.py``): every planted fault x every check,
with exact catch counts.  A check that is not the only check of its own
engine stays only while it is the sole catcher of some planted fault.

Failures are *recorded*, not raised: the shrinker needs to re-run the
harness on mutated instances and compare failure kinds.

Planted mutations (:data:`MUTATIONS`) corrupt one derived quantity of the
compiled program -- e.g. every stream's drain count off by one -- to prove
the harness actually catches the class of bug it exists for.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.compilation import Compilation
from repro.core.program import SystolicProgram
from repro.core.scheme import compile_systolic
from repro.lang.interpreter import run_sequential
from repro.symbolic.piecewise import Piecewise
from repro.systolic.explore import cost_of_compiled
from repro.target import pygen
from repro.target.npgen import HAVE_NUMPY
from repro.util.errors import BackendUnsupportedError
from repro.verify.enumerative import cross_check
from repro.verify.equivalence import oracle_mismatches, random_inputs


# ----------------------------------------------------------------------
# planted mutations
# ----------------------------------------------------------------------
def _bump(pw: Piecewise) -> Piecewise:
    """Add one to every non-null scalar leaf of a piecewise quantity."""
    return pw.map_values(lambda v: v if v is None else v + 1)


def _mutate_plans(sp: SystolicProgram, fn) -> SystolicProgram:
    return replace(sp, streams=tuple(fn(plan) for plan in sp.streams))


def _drain_plus_one(sp: SystolicProgram) -> SystolicProgram:
    return _mutate_plans(sp, lambda p: replace(p, drain=_bump(p.drain)))


def _soak_plus_one(sp: SystolicProgram) -> SystolicProgram:
    return _mutate_plans(sp, lambda p: replace(p, soak=_bump(p.soak)))


def _count_plus_one(sp: SystolicProgram) -> SystolicProgram:
    return replace(sp, count=_bump(sp.count))


def _pass_plus_one(sp: SystolicProgram) -> SystolicProgram:
    return _mutate_plans(sp, lambda p: replace(p, pass_amount=_bump(p.pass_amount)))


def _map_shear(sp: SystolicProgram) -> SystolicProgram:
    """Corrupt one index-map coefficient and recompile.

    Unlike the derived-quantity bumps above, this plants a *frontend*
    bug: the engines follow the sheared map while the oracle still
    interprets the original source.  Coefficients are tried in a fixed
    order and the first shear that still validates and compiles wins, so
    the mutation is deterministic; a program where no shear compiles is
    returned unchanged (a miss, as with the other mutations on
    degenerate designs).
    """
    from repro.fuzz.generator import variable_bounds_for
    from repro.geometry.linalg import Matrix
    from repro.lang.program import SourceProgram
    from repro.lang.stream import Stream
    from repro.lang.variables import IndexedVariable
    from repro.util.errors import ReproError

    src = sp.source
    for si, s in enumerate(src.streams):
        rows = tuple(tuple(r) for r in s.index_map.rows)
        for i in range(len(rows)):
            for j in range(len(rows[i])):
                for delta in (1, -1):
                    row = list(rows[i])
                    row[j] += delta
                    if not any(row):
                        continue
                    new_rows = rows[:i] + (tuple(row),) + rows[i + 1 :]
                    try:
                        var = IndexedVariable(
                            s.name, variable_bounds_for(new_rows, src.loops)
                        )
                        streams = (
                            src.streams[:si]
                            + (Stream(var, Matrix(new_rows)),)
                            + src.streams[si + 1 :]
                        )
                        sheared = SourceProgram(
                            loops=src.loops,
                            streams=streams,
                            body=src.body,
                            size_symbols=src.size_symbols,
                            name=src.name,
                        )
                        return compile_systolic(sheared, sp.array)
                    except ReproError:
                        continue
    return sp


#: name -> SystolicProgram transformer planting one specific bug
MUTATIONS = {
    "drain_plus_one": _drain_plus_one,
    "soak_plus_one": _soak_plus_one,
    "count_plus_one": _count_plus_one,
    "pass_plus_one": _pass_plus_one,
    "map_shear": _map_shear,
}


def apply_mutation(sp: SystolicProgram, name: str | None) -> SystolicProgram:
    """Plant the named bug into a compiled program (no-op for ``None``)."""
    if name is None:
        return sp
    try:
        fn = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; choose from {sorted(MUTATIONS)}"
        ) from None
    return fn(sp)


# ----------------------------------------------------------------------
# configuration and reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HarnessConfig:
    """Per-run harness knobs (picklable: travels to fuzz pool workers)."""

    #: seed for the random input values
    seed: int = 0
    #: planted mutation name, or None for the honest tree
    mutate: str | None = None
    #: number of independent input sets (seeds ``seed .. seed+n-1``) run
    #: through the batched engines per instance: the oracle and pygen run
    #: every set (amortizing one compiled module), npgen runs them all in
    #: a single vectorized batch, the coroutine simulator runs set 0
    input_sets: int = 1
    #: run the vectorized NumPy wavefront backend too (skipped silently
    #: when NumPy is missing; designs outside its integer value domain
    #: are a pass, not a failure)
    check_npgen: bool = False
    #: re-run the simulator with channel capacity 3 (capacity invariance)
    check_capacity: bool = False
    #: fold the run onto a fixed 2-band array (LSGP partition)
    #: through the banded npgen executor (skipped without NumPy)
    check_partition: bool = False
    #: mismatches quoted per failure
    max_mismatches: int = 5


class EngineCheck(NamedTuple):
    """One engine check: a :meth:`Compilation.run` compared with the oracle."""

    name: str
    backend: str
    #: fixed physical array shape the run folds onto, or None
    shape: tuple[int, ...] | None
    channel_capacity: int
    #: every input set, or set 0 only
    every_set: bool
    #: the :class:`HarnessConfig` flag that enables the check, or None
    flag: str | None


#: the engine checks, in run order.  The simulator runs input set 0 only:
#: it is the slowest engine and has no compiled artifact to amortize.
ENGINE_RUNS = (
    EngineCheck("simulator", "sim", None, 1, False, None),
    EngineCheck("pygen", "pygen", None, 1, True, None),
    EngineCheck("npgen", "npgen", None, 1, True, "check_npgen"),
    EngineCheck("capacity", "sim", None, 3, False, "check_capacity"),
    EngineCheck("partition_npgen", "npgen", (2,), 1, False, "check_partition"),
)


@dataclass(frozen=True)
class CheckFailure:
    """One failed check: which detector fired and a bounded message."""

    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.message}"


@dataclass
class InstanceReport:
    """Everything one harness run observed."""

    instance: object
    failures: list[CheckFailure] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    #: per-check wall-clock seconds (campaign check_seconds; bench/spans.py)
    timings: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_checks(self) -> frozenset[str]:
        return frozenset(f.check for f in self.failures)

    def __str__(self) -> str:
        status = "OK" if self.ok else "; ".join(str(f) for f in self.failures[:3])
        return f"harness[{len(self.checks_run)} checks]: {status}"


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
def run_instance(instance, config: HarnessConfig | None = None) -> InstanceReport:
    """Run every engine and invariant; never raises on a detected bug.

    The ``compile`` check builds the one :class:`Compilation` every later
    check consumes; the ``oracle`` check builds the per-seed inputs and
    oracle states, once each.
    """
    config = config or HarnessConfig()
    report = InstanceReport(instance=instance)
    program, env = instance.program, instance.env

    def checked(name: str, fn) -> object:
        """Run one check, recording failures and wall-clock."""
        report.checks_run.append(name)
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception as exc:  # detectors raise freely; record, don't die
            report.failures.append(
                CheckFailure(name, f"{type(exc).__name__}: {exc}")
            )
            return None
        finally:
            report.timings[name] = (
                report.timings.get(name, 0.0) + time.perf_counter() - t0
            )

    def build():
        sp = compile_systolic(program, instance.array)
        return Compilation(program, instance.array, apply_mutation(sp, config.mutate))

    handle = checked("compile", build)
    if handle is None:
        return report
    sp = handle.sp

    seeds = [config.seed + k for k in range(max(1, config.input_sets))]

    def run_oracle():
        input_sets = [random_inputs(program, env, seed=s) for s in seeds]
        return input_sets, [run_sequential(program, env, i) for i in input_sets]

    built = checked("oracle", run_oracle)
    if built is None:
        return report
    input_sets, oracles = built

    limit = config.max_mismatches

    # -- engines: every run goes through the handle ----------------------
    def run_engine(check: EngineCheck):
        given = input_sets if check.every_set else input_sets[:1]
        try:
            execution = handle.run(
                env,
                backend=check.backend,
                inputs=given,
                shape=check.shape,
                channel_capacity=check.channel_capacity,
                check=False,
            )
        except BackendUnsupportedError:
            return  # outside the integer value domain: a pass, not a bug
        for seed, (final, _stats), expected in zip(seeds, execution.runs, oracles):
            mism = oracle_mismatches(expected, final, limit)
            if mism:
                raise AssertionError(f"inputs seed {seed}: " + "; ".join(mism))

    for check in ENGINE_RUNS:
        if check.flag is not None and not getattr(config, check.flag):
            continue
        if check.backend == "npgen" and not HAVE_NUMPY:
            continue  # NumPy is optional: no npgen checks without it
        checked(check.name, lambda: run_engine(check))

    def check_enumerative():
        rep = cross_check(sp, env)
        if not rep.ok:
            raise AssertionError("; ".join(rep.errors[:limit]))

    checked("cross_check", check_enumerative)

    def check_round_trip():
        """A pickle round-trip keeps the rendering and the design cost.

        The only check that sees a corrupted ``__reduce__``.  Skipping the
        re-interning itself is invisible here and to every other check:
        interning decides identity and speed, never values.
        """
        sp2 = pickle.loads(pickle.dumps(sp))
        if pygen.render_python(sp2) != handle.rendered:
            raise AssertionError("pickle round-trip changes the rendering")
        if cost_of_compiled(sp2, env) != cost_of_compiled(sp, env):
            raise AssertionError("pickle round-trip changes the design cost")

    checked("pickle_reintern", check_round_trip)

    return report
