"""The differential harness: one instance, every engine, every invariant.

For a :class:`~repro.fuzz.generator.FuzzInstance` the harness

1. compiles the instance once into a :class:`~repro.compilation.Compilation`
   (with the planted mutation, if any) and runs the **sequential
   interpreter** (the ground truth the paper verifies against) once on
   every input set (``input_sets`` seeds per instance; each engine below
   is compared on them against that one compiled artifact);
2. runs the **coroutine simulator** (:func:`repro.runtime.network.execute`)
   and compares every element of every variable;
3. runs the **compiled Python backend** (the handle's one rendered
   module, on capacity-1 channels) and compares likewise;
4. runs the **enumerative cross-check**
   (:func:`repro.verify.enumerative.cross_check`) of every symbolic closed
   form against its brute-force definition;
5. checks that a **pickle round-trip** (what ``parallel.sweep_designs``
   does to ship work) re-interns to the identical rendering and identical
   :class:`~repro.systolic.explore.DesignCost`;
6. optionally: the vectorized NumPy backend, larger channel capacities,
   the partitioned executors, and a real pool-vs-serial ``sweep_designs``
   comparison (sampled by the driver -- they dominate runtime).

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

from repro.compilation import Compilation
from repro.core.program import SystolicProgram
from repro.core.scheme import compile_systolic
from repro.lang.interpreter import run_sequential
from repro.runtime.network import execute
from repro.symbolic.piecewise import Piecewise
from repro.systolic.explore import cost_of_compiled
from repro.target import pygen
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
    #: fold the run onto a fixed 2-band array (symbolic LSGP partition)
    #: through both the partitioned simulator and, when NumPy is present,
    #: the banded npgen executor -- results must stay bit-identical
    check_partition: bool = False
    #: full pool-vs-serial ``sweep_designs`` comparison (expensive)
    check_pool: bool = False
    #: mismatches quoted per failure
    max_mismatches: int = 5


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
    inputs, oracle = input_sets[0], oracles[0]

    limit = config.max_mismatches

    # -- engines ---------------------------------------------------------
    def check_simulator():
        # input set 0 only: the coroutine simulator is the slowest engine
        # and gains nothing from batching (no compiled artifact to reuse
        # beyond the network plan, which the capacity/partition checks
        # already share).  Timing off: only the values are compared.
        final, _stats = execute(sp, env, inputs, timing=False)
        mism = oracle_mismatches(oracle, final, limit)
        if mism:
            raise AssertionError("; ".join(mism))

    checked("simulator", check_simulator)

    def check_pygen():
        # every input set runs the handle's one rendered module
        for seed, given, expected in zip(seeds, input_sets, oracles):
            got = pygen.run_rendered(handle.rendered, sp, env, given)
            mism = oracle_mismatches(expected, got, limit)
            if mism:
                raise AssertionError(f"inputs seed {seed}: " + "; ".join(mism))

    checked("pygen", check_pygen)

    def check_enumerative():
        rep = cross_check(sp, env)
        if not rep.ok:
            raise AssertionError("; ".join(rep.errors[:limit]))

    checked("cross_check", check_enumerative)

    if config.check_npgen:
        from repro.target.npgen import HAVE_NUMPY, execute_numpy_batch
        from repro.util.errors import BackendUnsupportedError

        def check_npgen():
            try:
                # one vectorized pass over the whole input batch: the
                # wavefront schedule is computed once for all sets
                got_batch = execute_numpy_batch(
                    sp, env, input_sets, use_cache=False
                )
            except BackendUnsupportedError:
                return  # outside the integer value domain: a pass, not a bug
            for seed, got, expected in zip(seeds, got_batch, oracles):
                mism = oracle_mismatches(expected, got, limit)
                if mism:
                    raise AssertionError(
                        f"inputs seed {seed}: " + "; ".join(mism)
                    )

        if HAVE_NUMPY:
            checked("npgen", check_npgen)

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

    if config.check_capacity:

        def check_capacity():
            # instantiates from the same cached NetworkPlan as the main
            # simulator run -- only the channel capacities differ
            final, _stats = execute(
                sp, env, inputs, channel_capacity=3, timing=False
            )
            mism = oracle_mismatches(oracle, final, limit)
            if mism:
                raise AssertionError("; ".join(mism))

        checked("capacity", check_capacity)

    if config.check_partition:

        def check_partition():
            from repro.extensions.partition import partitioned_execute

            final, _stats = partitioned_execute(sp, env, inputs, shape=(2,))
            mism = oracle_mismatches(oracle, final, limit)
            if mism:
                raise AssertionError("; ".join(mism))

        checked("partition", check_partition)

        from repro.target.npgen import HAVE_NUMPY as _have_np

        if _have_np:

            def check_partition_npgen():
                from repro.target.npgen import execute_numpy_batch
                from repro.util.errors import BackendUnsupportedError

                try:
                    got = execute_numpy_batch(
                        sp, env, [inputs], shape=(2,), use_cache=False
                    )[0]
                except BackendUnsupportedError:
                    return  # outside the integer value domain: a pass
                mism = oracle_mismatches(oracle, got, limit)
                if mism:
                    raise AssertionError("; ".join(mism))

            checked("partition_npgen", check_partition_npgen)

    if config.check_pool:

        def check_pool():
            from repro.parallel import sweep_designs

            # A capped sweep: the invariant under test is serial/pool
            # agreement (task order, memo shipping, rank merging), which a
            # deterministic prefix of the candidate space exercises just as
            # well as the full space at a fraction of the cost.
            cap = 4
            serial = sweep_designs(
                program,
                instance.array.step,
                [env],
                bound=1,
                max_candidates=cap,
                jobs=1,
            )
            pooled = sweep_designs(
                program,
                instance.array.step,
                [env],
                bound=1,
                max_candidates=cap,
                jobs=2,
                force_pool=True,
            )
            a = [c.row() for c in serial.by_size[0][1]]
            b = [c.row() for c in pooled.by_size[0][1]]
            if a != b:
                raise AssertionError(
                    f"pool sweep diverges from serial: {len(a)} vs {len(b)} "
                    "rows or differing contents"
                )

        checked("pool_sweep", check_pool)

    return report
