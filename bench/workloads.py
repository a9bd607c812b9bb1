"""The five benchmark workloads.

Each workload has two halves:

* ``prepare(seed, quick)`` runs once per invocation in the parent, before
  any timed repetition.  It draws the job plan and the input values from
  the benchmark's own seeded RNG and computes every sequential-oracle
  reference (``run_sequential``) the checks will need.
* ``run_rep(payload, rep, cycles, tracer, t_spawn)`` runs in a fresh
  interpreter per repetition.  It sets up (imports, inputs, warm-up),
  then drives a closed loop: one caller issues the next job when the
  previous one returns.  Each job's output is checked against its
  reference after the job's timer stops.

Inputs that must not drift with the library live under ``bench/data``
(regenerate them with ``bench/make_data.py``).
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import resource
import statistics
import time
from pathlib import Path

from spans import NoTracer, add_delta, layer_metrics, read_counters

DATA = Path(__file__).resolve().parent / "data"

#: repetitions per run of a per-job workload, each in its own interpreter
REPS = 3
#: fewest sweeps / campaigns in one run of a unit workload
MIN_UNITS = 3
#: failure messages kept per repetition
MAX_MESSAGES = 5
#: input sets per (program, size)
INPUT_SETS = 2
#: reported times are scaled to a host on which ``calibrate()`` takes this
REF_CAL_S = 0.010
#: timed work between two readings of ``calibrate()``
CAL_EVERY_S = 0.25


def load_data(name: str):
    return json.loads((DATA / name).read_text())


def rng_for(*parts) -> random.Random:
    """A RNG determined by its parts (string seeds ignore the hash seed)."""
    return random.Random(":".join(str(p) for p in parts))


def random_inputs(program, env, rng) -> dict:
    """Dense inputs: a small integer for every element of every variable."""
    return {
        var.name: {
            tuple(int(c) for c in p): rng.randint(-9, 9) for p in var.space(env)
        }
        for var in program.variables
    }


def reference(program, env, inputs) -> dict:
    """The sequential oracle's final state, tuple-keyed."""
    from repro import run_sequential

    state = run_sequential(program, env, inputs)
    return {v: {tuple(k): x for k, x in m.items()} for v, m in state.items()}


def mismatches(got: dict, want: dict) -> int:
    """Elements of ``want`` that ``got`` misses or disagrees on."""
    bad = 0
    for var, expected in want.items():
        values = got.get(var, {})
        bad += sum(1 for k, x in expected.items() if values.get(k) != x)
    return bad


def array_from_json(design: dict):
    from repro import SystolicArray
    from repro.geometry.linalg import Matrix
    from repro.geometry.point import Point

    return SystolicArray(
        step=Matrix([tuple(r) for r in design["step"]]),
        place=Matrix([tuple(r) for r in design["place"]]),
        loading_vectors={k: Point(v) for k, v in design.get("loading", {}).items()},
        name=design.get("name", "design"),
    )


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    Linux carries ``ru_maxrss`` over from the parent across fork and exec,
    so a small child would report its parent's peak; ``VmHWM`` belongs to
    the process's own address space.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work (tuple-keyed dict
    updates and integer arithmetic, like the library's own work).

    The collector is paused: the loop makes no cycles, and a collection
    here would time the workload's heap instead of the host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(40000):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, 0) + i * 3 // 7
        sorted(acc.items())
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Scales timed work to a host on which ``calibrate()`` takes
    ``REF_CAL_S``.

    Host speed on a shared machine drifts by up to 2x, at times within
    seconds, and CPU time tracks wall time.  So a reading is taken after
    set-up and after every ``CAL_EVERY_S`` of timed work, always outside
    the job timers, and each stretch of work is scaled by the mean of the
    readings just before and after it.
    """

    def __init__(self) -> None:
        self.readings = [statistics.mean(calibrate() for _ in range(3))]
        self.pending: list[float] = []
        self.scaled: list[float] = []

    def at_start(self, seconds: float) -> float:
        return seconds * REF_CAL_S / self.readings[0]

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        if sum(self.pending) >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            self.readings.append(calibrate())
            factor = 2 * REF_CAL_S / (self.readings[-2] + self.readings[-1])
            self.scaled += [t * factor for t in self.pending]
            self.pending = []


def new_rep(setup_s: float) -> tuple[dict, HostSpeed]:
    speed = HostSpeed()
    rep = {
        "setup_s": setup_s,
        "setup_ref_s": speed.at_start(setup_s),
        "job_s": [],
        "attempted": 0,
        "failed": 0,
        "messages": [],
    }
    return rep, speed


def finish_rep(rep: dict, speed: HostSpeed) -> None:
    """Reference-speed times beside the raw ones, and peak memory."""
    speed.flush()
    rep["job_ref_s"] = speed.scaled
    rep["timed_s"] = sum(rep["job_s"])
    rep["timed_ref_s"] = sum(speed.scaled)
    rep["host_scale"] = rep["timed_ref_s"] / rep["timed_s"]
    rep["rss_mb"] = peak_rss_mb()


def record_failure(rep: dict, message: str) -> None:
    rep["failed"] += 1
    if len(rep["messages"]) < MAX_MESSAGES:
        rep["messages"].append(message)


def _parse_and_derive(ctx: dict, source: str, array, tracer):
    with tracer.span("lang.parse"):
        program = ctx["parse_program"](source)
    with tracer.span("core.derive"):
        return ctx["compile_systolic"](program, array)


class Workload:
    """A run is fixed work: ``plan`` turns ``--seconds`` into repetitions
    and cycles per repetition using ``ref_s``, the timed seconds of one
    cycle (or call) at the reference host speed, measured when the
    workload was defined.  A faster library then finishes sooner instead
    of doing more work, so memory and cache effects stay comparable."""

    ref_s: float

    def cross_check(self, reps: list) -> list[str]:
        """Problems only visible across repetitions; marks them failed."""
        return []


# ----------------------------------------------------------------------
# per-job workloads: many short jobs per repetition
# ----------------------------------------------------------------------
class JobWorkload(Workload):
    """Repetitions of a closed job loop over whole cycles; each cycle is a
    seed-shuffled list of jobs with a fixed mix.  Subclasses provide
    ``prepare``, ``cycles``, ``setup``, ``run_job`` and ``check``."""

    unit_based = False

    def plan(self, seconds: float, quick: bool) -> tuple[int, int]:
        """(repetitions, cycles per repetition)"""
        if quick:
            return 1, 1
        return REPS, max(1, round(seconds / REPS / self.ref_s))

    def run_rep(self, payload, rep_index, cycles, tracer, t_spawn) -> dict:
        ctx = self.setup(payload)
        rep, speed = new_rep(time.monotonic() - t_spawn)
        counts: dict = {}
        engine: dict = {}
        for cycle in itertools.islice(self.cycles(payload, rep_index), cycles):
            for key in cycle:
                index = rep["attempted"]
                rep["attempted"] += 1
                tracer.start_job()
                before = read_counters() if tracer.enabled else None
                t0 = time.perf_counter()
                try:
                    with tracer.span("job"):
                        output, facts = self.run_job(ctx, key, tracer)
                except Exception as exc:  # a failed job is reported, not fatal
                    rep["job_s"].append(time.perf_counter() - t0)
                    speed.add(rep["job_s"][-1])
                    record_failure(rep, f"{key}: {type(exc).__name__}: {exc}")
                    continue
                rep["job_s"].append(time.perf_counter() - t0)
                speed.add(rep["job_s"][-1])
                if before is not None:
                    add_delta(counts, before, read_counters())
                    for name, value in facts.items():
                        engine[name] = engine.get(name, 0) + value
                problem = self.check(ctx, payload, key, output, index)
                if problem:
                    record_failure(rep, f"{key}: {problem}")
        finish_rep(rep, speed)
        if tracer.enabled:
            rep["spans"] = tracer.export()
            rep["layers"] = layer_metrics(
                rep["spans"], len(rep["job_s"]), 0, counts, engine
            )
        return rep


class CompileNovel(JobWorkload):
    """Cold symbolic compiles of programs the process has never seen.

    The frozen pool is sorted by compile cost and cut into strata; each
    cycle takes one unseen program from every stratum, so every cycle has
    the same cost mix while the seed decides which programs are drawn.
    A repetition never compiles a program twice, so it runs at most
    pool size / programs per cycle = 12 cycles.
    """

    name = "compile-novel"
    ref_s = 0.87
    check_every = 10

    def prepare(self, seed: int, quick: bool) -> dict:
        from repro import parse_program

        pool = load_data("novel_pool.json")["programs"]
        payload = {
            "seed": seed,
            "per_cycle": 10 if quick else 50,
            "pool": [(p["source"], p["design"], p["env"]) for p in pool],
            "designs": load_data("designs.json"),
            "checks": {},
        }
        for rep in range(REPS + 1):  # the untraced repetitions and the traced one
            jobs = itertools.chain.from_iterable(self.cycles(payload, rep))
            for index, key in enumerate(jobs):
                if index % self.check_every or key in payload["checks"]:
                    continue
                source, _design, env = payload["pool"][key]
                program = parse_program(source)
                inputs = random_inputs(program, env, rng_for(self.name, seed, key))
                payload["checks"][key] = (inputs, reference(program, env, inputs))
        return payload

    def cycles(self, payload: dict, rep: int) -> list[list[int]]:
        per_cycle = payload["per_cycle"]
        size = len(payload["pool"]) // per_cycle
        rng = rng_for(self.name, payload["seed"], rep)
        strata = [
            rng.sample(range(s * size, (s + 1) * size), size) for s in range(per_cycle)
        ]
        cycles = []
        for c in range(size):
            cycle = [stratum[c] for stratum in strata]
            rng.shuffle(cycle)
            cycles.append(cycle)
        return cycles

    def setup(self, payload: dict) -> dict:
        from repro import (
            build_target_program,
            compile_systolic,
            parse_program,
            render_paper,
            render_python,
            validate_program,
        )
        from repro.target.pygen import execute_python

        # Warm-up on the paper designs, which the pool does not contain:
        # lazy imports and first calls are paid, pool derivations stay cold.
        for spec in payload["designs"].values():
            program = parse_program(spec["source"])
            sp = compile_systolic(program, array_from_json(spec["design"]))
            render_python(sp)
            render_paper(build_target_program(sp))
        execute_python(sp, {"n": 2}, random_inputs(program, {"n": 2}, rng_for(0)))
        return {
            "parse_program": parse_program,
            "validate_program": validate_program,
            "compile_systolic": compile_systolic,
            "render_python": render_python,
            "render_paper": render_paper,
            "build_target_program": build_target_program,
            "execute_python": execute_python,
            "pool": payload["pool"],
            "arrays": {},
        }

    def run_job(self, ctx: dict, key: int, tracer):
        source, design, _env = ctx["pool"][key]
        array = ctx["arrays"].get(key)
        if array is None:
            array = ctx["arrays"][key] = array_from_json(design)
        with tracer.span("lang.parse"):
            program = ctx["parse_program"](source)
        with tracer.span("lang.validate"):
            ctx["validate_program"](program)
        with tracer.span("core.derive"):
            sp = ctx["compile_systolic"](program, array)
        with tracer.span("target.render"):
            ctx["render_python"](sp)
            ctx["render_paper"](ctx["build_target_program"](sp))
        return sp, {}

    def check(self, ctx, payload, key, sp, index):
        if index % self.check_every:
            return None
        inputs, want = payload["checks"][key]
        got = ctx["execute_python"](sp, ctx["pool"][key][2], inputs)
        bad = mismatches(got, want)
        return f"pygen disagrees with the oracle on {bad} element(s)" if bad else None


class _PaperDesigns(JobWorkload):
    """Shared shape of the two workloads that run the four paper designs.

    The designs on one program (D.1/D.2 on polyprod, E.1/E.2 on matmul)
    share their input sets and therefore their oracle references.
    """

    sizes: dict[str, tuple[int, ...]]

    def prepare(self, seed: int, quick: bool) -> dict:
        from repro import parse_program

        designs = load_data("designs.json")
        sizes = {d: s[:1] if quick else s for d, s in self.sizes.items()}
        inputs, refs = {}, {}
        for design, ns in sizes.items():
            program = parse_program(designs[design]["source"])
            for n in ns:
                for k in range(INPUT_SETS):
                    key = (program.name, n, k)
                    if key not in inputs:
                        env = {"n": n}
                        values = random_inputs(program, env, rng_for(self.name, seed, *key))
                        inputs[key] = values
                        refs[key] = reference(program, env, values)
        return {
            "seed": seed,
            "designs": designs,
            "sizes": sizes,
            "inputs": inputs,
            "refs": refs,
        }

    def setup(self, payload: dict) -> dict:
        from repro import compile_systolic, parse_program

        ctx = {
            "parse_program": parse_program,
            "compile_systolic": compile_systolic,
            "arrays": {
                d: array_from_json(spec["design"])
                for d, spec in payload["designs"].items()
            },
            "programs": {
                d: parse_program(spec["source"]).name
                for d, spec in payload["designs"].items()
            },
            "payload": payload,
        }
        self.import_engine(ctx)
        # warm-up: one job per (design, size), so every cache the job uses
        # (derivation memo, wavefront schedules) is filled before timing
        warmed = set()
        for key in self.combos(payload):
            if key[:2] not in warmed:
                warmed.add(key[:2])
                self.run_job(ctx, key, NoTracer())
        return ctx

    def cycles(self, payload: dict, rep: int):
        combos = self.combos(payload)
        for c in itertools.count():
            order = list(combos)
            rng_for(self.name, payload["seed"], rep, c).shuffle(order)
            yield order


class VerifySim(_PaperDesigns):
    """The coroutine simulator on the paper designs at moderate sizes."""

    name = "verify-sim"
    ref_s = 0.66
    sizes = {
        "D1": (8, 16, 24, 32),
        "D2": (8, 16, 24, 32),
        "E1": (3, 4, 6, 8),
        "E2": (3, 4, 6, 8),
    }

    def combos(self, payload: dict) -> list[tuple]:
        """Every (design, size, input set): one cycle's jobs."""
        return [
            (d, n, k)
            for d, ns in payload["sizes"].items()
            for n in ns
            for k in range(INPUT_SETS)
        ]

    def import_engine(self, ctx: dict) -> None:
        from repro.runtime.network import execute, network_plan

        ctx["execute"] = execute
        ctx["network_plan"] = network_plan

    def run_job(self, ctx: dict, key, tracer):
        design, n, k = key
        payload = ctx["payload"]
        env = {"n": n}
        inputs = payload["inputs"][(ctx["programs"][design], n, k)]
        sp = _parse_and_derive(ctx, payload["designs"][design]["source"], ctx["arrays"][design], tracer)
        if not tracer.enabled:
            final, stats = ctx["execute"](sp, env, inputs)
        else:
            # the calls execute() makes, in its order, each in its own span
            with tracer.span("runtime.plan"):
                plan = ctx["network_plan"](sp, env)
                plan.validate()
            with tracer.span("runtime.instantiate"):
                network = plan.instantiate(inputs)
            with tracer.span("runtime.run"):
                stats = network.run()
            with tracer.span("runtime.recovery"):
                for stream in sp.streams:
                    network.host.check_full_recovery(stream.name)
            final = network.host.final
        facts = {
            "resumes": stats.scheduler_rounds,
            "messages": stats.total_messages,
            "makespan": stats.makespan,
        }
        return final, facts

    def check(self, ctx, payload, key, final, index):
        design, n, k = key
        bad = mismatches(final, payload["refs"][(ctx["programs"][design], n, k)])
        return f"simulator disagrees with the oracle on {bad} element(s)" if bad else None


class ExecuteNpgen(_PaperDesigns):
    """The vectorized NumPy wavefront backend on larger paper-design sizes."""

    name = "execute-npgen"
    ref_s = 0.17
    sizes = {
        "D1": (64, 96, 128, 160),
        "D2": (64, 96, 128, 160),
        "E1": (12, 16, 24, 32),
        "E2": (12, 16, 24, 32),
    }

    def combos(self, payload: dict) -> list[tuple]:
        """Every (design, size): one cycle's jobs, each over all input sets."""
        return [(d, n) for d, ns in payload["sizes"].items() for n in ns]

    def import_engine(self, ctx: dict) -> None:
        from repro.analysis.wavefront import wavefront_schedule
        from repro.target.npgen import execute_numpy_batch

        ctx["execute_numpy_batch"] = execute_numpy_batch
        ctx["wavefront_schedule"] = wavefront_schedule

    def run_job(self, ctx: dict, key, tracer):
        design, n = key
        env = {"n": n}
        program = ctx["programs"][design]
        batch = [ctx["payload"]["inputs"][(program, n, k)] for k in range(INPUT_SETS)]
        sp = _parse_and_derive(
            ctx, ctx["payload"]["designs"][design]["source"], ctx["arrays"][design], tracer
        )
        facts = {}
        if tracer.enabled:
            with tracer.span("analysis.schedule"):
                schedule = ctx["wavefront_schedule"](sp, env)
            facts["npgen_stmts"] = schedule.total_points * len(batch)
        with tracer.span("target.npgen"):
            outputs = ctx["execute_numpy_batch"](sp, env, batch)
        return outputs, facts

    def check(self, ctx, payload, key, outputs, index):
        design, n = key
        program = ctx["programs"][design]
        bad = sum(
            mismatches(got, payload["refs"][(program, n, k)])
            for k, got in enumerate(outputs)
        )
        return f"npgen disagrees with the oracle on {bad} element(s)" if bad else None


# ----------------------------------------------------------------------
# unit workloads: one library call runs many jobs; one call per repetition
# ----------------------------------------------------------------------
class UnitWorkload(Workload):
    """Each repetition is one library call (a sweep, a campaign) in a
    fresh interpreter."""

    unit_based = True
    #: end-to-end name for the whole call's time, where it has one
    call_metric: str | None = None

    def plan(self, seconds: float, quick: bool) -> tuple[int, int]:
        """(repetitions, calls per repetition)"""
        if quick:
            return 1, 1
        return max(MIN_UNITS, round(seconds / self.ref_s)), 1

    def run_rep(self, payload, rep_index, calls, tracer, t_spawn) -> dict:
        ctx = self.setup(payload)
        rep, speed = new_rep(time.monotonic() - t_spawn)
        tracer.start_job()
        before = read_counters() if tracer.enabled else None
        t0 = time.perf_counter()
        with tracer.span("job"):
            result = self.call(ctx, payload, rep_index)
        dt = time.perf_counter() - t0
        counts: dict = {}
        if before is not None:
            add_delta(counts, before, read_counters())
        jobs, failed, messages, engine, extra = self.outcome(payload, result)
        rep.update(extra)
        rep["attempted"] = jobs
        rep["job_s"] = [dt]  # the call is timed as one; per-job times divide it
        speed.add(dt)
        rep["failed"] = failed
        rep["messages"] = messages[:MAX_MESSAGES]
        finish_rep(rep, speed)
        if tracer.enabled:
            rep["spans"] = tracer.export()
            rep["layers"] = layer_metrics(rep["spans"], jobs, 1, counts, engine)
        return rep


def _table_digest(costs) -> str:
    rows = json.dumps([c.row() for c in costs], sort_keys=True)
    return hashlib.sha256(rows.encode()).hexdigest()


class ExploreSweep(UnitWorkload):
    """A cold design-space sweep in a fresh interpreter.

    E.1 and E.2 share the matmul program and ``step = (1,1,1)``, so their
    sweeps are the same space: the 228 place candidates with bound 1,
    costed at n = 3, 4 and 5.  A job is one costed (candidate, size) pair.
    The sweep has no input values, so its jobs do not depend on the seed.
    """

    name = "explore-sweep"
    ref_s = 1.64
    call_metric = "sweep_s_p50"
    envs = ({"n": 3}, {"n": 4}, {"n": 5})

    def prepare(self, seed: int, quick: bool) -> dict:
        designs = load_data("designs.json")
        spec = designs["D1" if quick else "E2"]
        golden = None if quick else load_data("golden_explore_e2_n4.json")
        return {"source": spec["source"], "step": spec["design"]["step"], "golden": golden}

    def setup(self, payload: dict) -> dict:
        from repro import parse_program, sweep_designs
        from repro.geometry.linalg import Matrix

        return {
            "sweep_designs": sweep_designs,
            "program": parse_program(payload["source"]),
            "step": Matrix([tuple(r) for r in payload["step"]]),
        }

    def call(self, ctx, payload, rep_index):
        return ctx["sweep_designs"](
            ctx["program"], ctx["step"], list(self.envs), bound=1, jobs=1
        )

    def outcome(self, payload, result):
        jobs = sum(len(costs) for _env, costs in result.by_size)
        digests = [_table_digest(costs) for _env, costs in result.by_size]
        messages = []
        golden = payload["golden"]
        if golden is not None:
            rows = [c.row() for c in result.costs_at({"n": golden["n"]})]
            if rows != golden["table"]:
                messages.append(f"n={golden['n']} table differs from the golden table")
        timings = result.timings
        engine = {"synthesis_s": timings.synthesis_s, "cost_s": timings.cost_s}
        extra = {"digests": digests}
        return jobs, jobs if messages else 0, messages, engine, extra

    def cross_check(self, reps: list) -> list[str]:
        """Every repetition must produce the identical ranked tables."""
        bad = [i for i, r in enumerate(reps) if r.get("digests") != reps[0].get("digests")]
        for i in bad:
            reps[i]["failed"] = reps[i]["attempted"]
        return [f"repetition {i}: ranked tables differ from repetition 0" for i in bad]


class FuzzCampaign(UnitWorkload):
    """A differential fuzz campaign in a fresh interpreter.

    Campaign seeds come from a frozen list that ``make_data.py`` ran clean
    and kept near the median cost; the benchmark seed orders them.
    A job is one generated instance.
    """

    name = "fuzz-campaign"
    ref_s = 2.5

    def prepare(self, seed: int, quick: bool) -> dict:
        data = load_data("fuzz_campaigns.json")
        order = list(data["seeds"])
        rng_for(self.name, seed).shuffle(order)
        return {"campaigns": order, "iterations": 4 if quick else data["iterations"]}

    def setup(self, payload: dict) -> dict:
        from repro import fuzz_run

        return {"fuzz_run": fuzz_run}

    def call(self, ctx, payload, rep_index):
        campaigns = payload["campaigns"]
        return ctx["fuzz_run"](
            seed=campaigns[rep_index % len(campaigns)],
            iterations=payload["iterations"],
            shrink=False,
            jobs=1,
        )

    def outcome(self, payload, summary):
        messages = [
            f"instance seed {f.instance_seed}: {f.checks} {f.messages[:1]}"
            for f in summary.failures
        ]
        engine = {
            "phase_seconds": dict(summary.phase_seconds),
            "check_seconds": dict(summary.check_seconds),
        }
        return summary.generated, len(summary.failures), messages, engine, {}


WORKLOADS = {
    w.name: w
    for w in (CompileNovel(), VerifySim(), ExecuteNpgen(), ExploreSweep(), FuzzCampaign())
}
