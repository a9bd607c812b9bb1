"""The fuzz campaign driver behind ``repro fuzz``.

Iterations are independent (iteration ``i`` of base seed ``S`` always
fuzzes instance seed ``S * 1_000_003 + i``), so a campaign is one ordered
fan-out (:func:`repro.parallel.fan_out`), exactly like a design sweep:
workers generate + run the harness, and the driver consumes the records
in iteration order, checking the time budget and the failure cap after
each one, then shrinks any failures serially (shrinking re-runs the
harness many times and wants the warm caches of one process).  Results are
byte-identical for every ``--jobs`` value.

Expensive checks are *sampled* on a deterministic schedule so a default
campaign stays fast but still covers them: the NumPy wavefront backend
every 3rd iteration, the banded npgen fold every 4th and capacity
invariance every 5th.  The simulator, pygen, the enumerative cross-check
and the pickle round-trip run on every instance.  A failure is shrunk with
the sampled checks that caught it still on, and its reproducer records
every ``HarnessConfig`` field, so the minimized file replays the same
failure.
"""

from __future__ import annotations

import gc
import time
from contextlib import closing
from dataclasses import dataclass, field, replace

from repro import profiling
from repro.fuzz.corpus import instance_to_json, write_reproducer
from repro.fuzz.generator import generate_instance, program_features
from repro.fuzz.harness import HarnessConfig, run_instance
from repro.fuzz.shrink import shrink_instance
from repro.util.errors import ReproError

#: spreads base seeds far apart so campaigns never share instance seeds
SEED_STRIDE = 1_000_003

CAPACITY_EVERY = 5
#: npgen is cheap (one vectorized pass) but needs the optional NumPy extra
NPGEN_EVERY = 3
#: the banded npgen fold onto 2 bands (also needs NumPy)
PARTITION_EVERY = 4

#: sampled ``HarnessConfig`` flag -> the checks it switches on
_SAMPLED_CHECKS = {
    "check_capacity": {"capacity"},
    "check_partition": {"partition_npgen"},
    "check_npgen": {"npgen"},
}

#: profiling stage -> phase_seconds key in the campaign summary: the
#: generator's sub-phases (repro.fuzz.generator) and the network's
#: (repro.runtime.network)
_STAGE_PHASE = {
    "generate.synthesize": "synthesize",
    "generate.trial_compile": "trial_compile",
    "network.build": "build_network",
    "network.execute": "execute",
}


@dataclass
class FailureRecord:
    """One failing iteration, before and after shrinking."""

    iteration: int
    instance_seed: int
    checks: list[str]
    messages: list[str]
    original_json: dict
    shrunk_json: dict | None = None
    reproducer: str | None = None


@dataclass
class FuzzSummary:
    """Campaign outcome: counts, failures, aggregated check timings."""

    seed: int
    iterations: int = 0
    generated: int = 0
    skipped: int = 0  # seeds outside the schedulable space
    elapsed_s: float = 0.0
    jobs: int = 1
    stopped_early: bool = False  # time budget exhausted
    feature: str | None = None  # stratum restriction, if any
    check_counts: dict = field(default_factory=dict)
    check_seconds: dict = field(default_factory=dict)
    #: wall-clock per pipeline phase: ``generate`` (instance synthesis),
    #: ``compile`` (scheme derivation), ``check`` (all detectors), plus
    #: sub-phases broken out so regressions are attributable: the step and
    #: place search ``synthesize`` and the design's ``trial_compile``
    #: (accounted *inside* ``generate``), and the network's
    #: ``build_network``/``execute`` (accounted *inside* ``check``)
    phase_seconds: dict = field(default_factory=dict)
    feature_counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def row(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "generated": self.generated,
            "skipped": self.skipped,
            "failures": len(self.failures),
            "elapsed_s": round(self.elapsed_s, 3),
            "jobs": self.jobs,
            "stopped_early": self.stopped_early,
            "feature": self.feature,
            "feature_counts": dict(sorted(self.feature_counts.items())),
            "phase_seconds": {
                name: round(seconds, 4)
                for name, seconds in sorted(self.phase_seconds.items())
            },
        }

    def __str__(self) -> str:
        status = "clean" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"fuzz seed {self.seed}: {status} over {self.generated} instances "
            f"({self.iterations} iterations, {self.skipped} unschedulable, "
            f"jobs {self.jobs}, {self.elapsed_s:.1f}s)"
        )


def iteration_config(base: HarnessConfig, iteration: int) -> HarnessConfig:
    """The sampled per-iteration harness configuration: each expensive
    extra is *enabled* on its cadence (a flag set in ``base`` stays on)."""
    return replace(
        base,
        check_capacity=base.check_capacity
        or iteration % CAPACITY_EVERY == CAPACITY_EVERY - 1,
        check_npgen=base.check_npgen
        or iteration % NPGEN_EVERY == NPGEN_EVERY - 1,
        check_partition=base.check_partition
        or iteration % PARTITION_EVERY == PARTITION_EVERY - 1,
    )


# -- worker side -----------------------------------------------------------
_WORKER: dict = {}


def _init_fuzz_worker(
    base_seed: int, config: HarnessConfig, feature: str | None = None
) -> None:
    _WORKER["base_seed"] = base_seed
    _WORKER["config"] = config
    _WORKER["feature"] = feature


def _fuzz_task(iteration: int) -> dict:
    """Generate + run one iteration; returns a picklable record."""
    base_seed = _WORKER["base_seed"]
    config = iteration_config(_WORKER["config"], iteration)
    instance_seed = base_seed * SEED_STRIDE + iteration
    stages_before = profiling.snapshot()["stages"]
    t0 = time.perf_counter()
    instance = generate_instance(instance_seed, feature=_WORKER.get("feature"))
    generate_s = time.perf_counter() - t0
    if instance is None:
        return {
            "iteration": iteration,
            "status": "skipped",
            "generate_s": generate_s,
            "stages": _stages_since(stages_before),
        }
    report = run_instance(instance, config)
    record = {
        "iteration": iteration,
        "status": "ok" if report.ok else "failed",
        "instance_seed": instance_seed,
        "checks_run": list(report.checks_run),
        "timings": dict(report.timings),
        "generate_s": generate_s,
        "stages": _stages_since(stages_before),
        "features": sorted(program_features(instance.program)),
    }
    if not report.ok:
        record["checks"] = sorted(report.failed_checks)
        record["messages"] = [str(f) for f in report.failures[:6]]
        record["instance_json"] = instance_to_json(instance)
    return record


def _stages_since(before: dict) -> dict:
    """Seconds each stage of :data:`_STAGE_PHASE` gained since ``before``."""
    after = profiling.snapshot()["stages"]
    return {
        name: after.get(name, 0.0) - before.get(name, 0.0) for name in _STAGE_PHASE
    }


# -- driver side -----------------------------------------------------------
def fuzz_run(
    *,
    seed: int = 0,
    iterations: int = 100,
    time_budget: float | None = None,
    jobs: int | None = 1,
    config: HarnessConfig | None = None,
    shrink: bool = True,
    max_shrink_steps: int = 96,
    corpus_dir: str | None = None,
    max_failures: int = 5,
    feature: str | None = None,
    log=None,
) -> FuzzSummary:
    """Run a fuzz campaign; returns the summary (never raises on findings).

    ``time_budget`` (seconds) and ``max_failures`` are checked after every
    instance: the campaign stops early once the budget is exceeded or that
    many failing iterations have been collected, so at most
    ``max_failures`` are shrunk and written to ``corpus_dir`` (when given),
    whatever ``jobs`` is.  ``feature`` restricts the campaign to one
    generator stratum (see ``generator.FEATURES``): each iteration
    resamples until its program carries that feature tag.

    The automatic garbage collector is paused for the duration of the
    campaign (the caches at work here are all bounded) and restored
    afterwards.
    """
    from repro.parallel import fan_out

    if iterations < 1:
        raise ReproError(
            f"fuzz iterations must be >= 1, got {iterations} "
            "(--iterations / fuzz_run(iterations=...))"
        )
    base_config = config or HarnessConfig()
    if base_config.input_sets < 1:
        raise ReproError(
            f"fuzz input sets must be >= 1, got {base_config.input_sets} "
            "(--input-sets / HarnessConfig(input_sets=...))"
        )
    summary = FuzzSummary(seed=seed, feature=feature)
    t0 = time.perf_counter()

    summary.jobs, records = fan_out(
        _fuzz_task,
        range(iterations),
        jobs=jobs,
        initializer=_init_fuzz_worker,
        initargs=(seed, base_config, feature),
    )
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        with closing(records):
            for record in records:
                _tally(summary, record, log)
                if len(summary.failures) >= max_failures or (
                    time_budget is not None
                    and time.perf_counter() - t0 > time_budget
                ):
                    summary.stopped_early = summary.iterations < iterations
                    break
    finally:
        if gc_was_enabled:
            gc.enable()

    if shrink and summary.failures:
        from repro.fuzz.corpus import instance_from_json

        for failure in summary.failures:
            # Shrinking re-runs the harness many times: of the sampled
            # extras, only those that caught the failure stay on (without
            # them the reproducer would replay green).
            failure_config = replace(
                iteration_config(base_config, failure.iteration),
                **{
                    flag: bool(checks & set(failure.checks))
                    for flag, checks in _SAMPLED_CHECKS.items()
                },
            )
            instance = instance_from_json(failure.original_json)
            shrunk, report = shrink_instance(
                instance, failure_config, max_steps=max_shrink_steps
            )
            failure.shrunk_json = instance_to_json(shrunk)
            if corpus_dir is not None:
                path = write_reproducer(
                    shrunk, report, corpus_dir, config=failure_config
                )
                failure.reproducer = str(path)
                if log:
                    log(f"iteration {failure.iteration}: minimized to {path}")

    summary.elapsed_s = time.perf_counter() - t0
    return summary


def _tally(summary: FuzzSummary, record: dict, log) -> None:
    """Fold one iteration's record into the campaign summary."""
    summary.iterations += 1
    summary.phase_seconds["generate"] = summary.phase_seconds.get(
        "generate", 0.0
    ) + record.get("generate_s", 0.0)
    for stage, dt in record.get("stages", {}).items():
        name = _STAGE_PHASE[stage]
        summary.phase_seconds[name] = summary.phase_seconds.get(name, 0.0) + dt
    if record["status"] == "skipped":
        summary.skipped += 1
        return
    summary.generated += 1
    for name in record["checks_run"]:
        summary.check_counts[name] = summary.check_counts.get(name, 0) + 1
    check_total = 0.0
    for name, dt in record["timings"].items():
        summary.check_seconds[name] = summary.check_seconds.get(name, 0.0) + dt
        if name == "compile":
            summary.phase_seconds["compile"] = (
                summary.phase_seconds.get("compile", 0.0) + dt
            )
        else:
            check_total += dt
    summary.phase_seconds["check"] = (
        summary.phase_seconds.get("check", 0.0) + check_total
    )
    for tag in record.get("features", ()):
        summary.feature_counts[tag] = summary.feature_counts.get(tag, 0) + 1
    if record["status"] == "failed":
        summary.failures.append(
            FailureRecord(
                iteration=record["iteration"],
                instance_seed=record["instance_seed"],
                checks=record["checks"],
                messages=record["messages"],
                original_json=record["instance_json"],
            )
        )
        if log:
            log(f"iteration {record['iteration']}: FAILED {record['checks']}")
