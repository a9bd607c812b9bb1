"""The fuzz campaign driver behind ``repro fuzz``.

Iterations are independent (iteration ``i`` of base seed ``S`` always
fuzzes instance seed ``S * 1_000_003 + i``), so a campaign fans out over
the shared process-pool helper (:func:`repro.parallel.pool_map`) exactly
like a design sweep: workers generate + run the harness, the driver
collects results in iteration order, then shrinks any failures serially
(shrinking re-runs the harness many times and wants the warm caches of one
process).  Results are byte-identical for every ``--jobs`` value.

Expensive metamorphic checks are *sampled* on a deterministic schedule so
a default campaign stays fast but still covers them: the NumPy wavefront
backend every 3rd iteration, partitioned execution every 4th, capacity
invariance every 5th, the threaded engine every 7th, the pool-vs-serial
sweep comparison every 25th, and each of the four cache-stack invariants
every 4th (staggered, so an iteration carries about one of them).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace

from repro import profiling
from repro.fuzz.corpus import instance_to_json, write_reproducer
from repro.fuzz.generator import generate_instance, program_features
from repro.fuzz.harness import HarnessConfig, run_instance
from repro.fuzz.shrink import shrink_instance
from repro.util.errors import ReproError

#: spreads base seeds far apart so campaigns never share instance seeds
SEED_STRIDE = 1_000_003

THREADED_EVERY = 7
CAPACITY_EVERY = 5
POOL_EVERY = 25
#: npgen is cheap (one vectorized pass) but needs the optional NumPy extra
NPGEN_EVERY = 3
#: partitioned execution re-runs the whole folded simulation (plus the
#: banded npgen pass) -- comparable cost to the plain simulator check
PARTITION_EVERY = 4
#: the metamorphic cache-stack invariants (memo A/B, pickle round-trip,
#: render cache, repeated execution) re-render or recompile the whole
#: module; each runs on every 4th instance, staggered so each iteration
#: carries about one of them
METAMORPHIC_EVERY = 4

#: adaptive batching aims for roughly this much work per pool fan-out --
#: long enough to amortize dispatch, short enough that the time budget and
#: the failure cap are honoured promptly
BATCH_TARGET_SECONDS = 2.0

#: per-instance network phase stages recorded by repro.runtime.network
_NETWORK_STAGES = ("network.build", "network.execute")

#: profiling stage -> phase_seconds key in the campaign summary
_STAGE_PHASE = {
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
    #: ``compile`` (scheme derivation), ``check`` (all detectors), plus the
    #: network sub-phases ``build_network``/``execute`` (accounted *inside*
    #: ``check``, broken out so regressions are attributable)
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
    """The sampled per-iteration harness configuration.

    The expensive extras (threaded engine, capacity, partition, pool) are
    *enabled* on their cadence; the metamorphic cache-stack invariants --
    on by default for direct harness use -- are *thinned* to a staggered
    every-4th-iteration schedule, so a campaign still covers each one
    constantly without paying all four on every instance.
    """
    m = iteration % METAMORPHIC_EVERY
    return replace(
        base,
        check_threaded=base.check_threaded
        or iteration % THREADED_EVERY == THREADED_EVERY - 1,
        check_capacity=base.check_capacity
        or iteration % CAPACITY_EVERY == CAPACITY_EVERY - 1,
        check_pool=base.check_pool or iteration % POOL_EVERY == POOL_EVERY - 1,
        check_npgen=base.check_npgen
        or iteration % NPGEN_EVERY == NPGEN_EVERY - 1,
        check_partition=base.check_partition
        or iteration % PARTITION_EVERY == PARTITION_EVERY - 1,
        check_memo_ab=base.check_memo_ab and m == 0,
        check_pickle=base.check_pickle and m == 1,
        check_render_cache=base.check_render_cache and m == 2,
        check_repeat=base.check_repeat and m == 3,
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
    t0 = time.perf_counter()
    instance = generate_instance(instance_seed, feature=_WORKER.get("feature"))
    generate_s = time.perf_counter() - t0
    if instance is None:
        return {
            "iteration": iteration,
            "status": "skipped",
            "generate_s": generate_s,
        }
    stages_before = profiling.snapshot()["stages"]
    report = run_instance(instance, config)
    stages_after = profiling.snapshot()["stages"]
    record = {
        "iteration": iteration,
        "status": "ok" if report.ok else "failed",
        "instance_seed": instance_seed,
        "checks_run": list(report.checks_run),
        "timings": dict(report.timings),
        "generate_s": generate_s,
        "stages": {
            name: stages_after.get(name, 0.0) - stages_before.get(name, 0.0)
            for name in _NETWORK_STAGES
        },
        "features": sorted(program_features(instance.program)),
    }
    if not report.ok:
        record["checks"] = sorted(report.failed_checks)
        record["messages"] = [str(f) for f in report.failures[:6]]
        record["instance_json"] = instance_to_json(instance)
    return record


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
    batch_size: int | None = None,
    log=None,
) -> FuzzSummary:
    """Run a fuzz campaign; returns the summary (never raises on findings).

    ``time_budget`` (seconds) stops the campaign between batches once
    exceeded.  At most ``max_failures`` failing iterations are shrunk and
    written to ``corpus_dir`` (when given); the campaign also stops early
    once that many failures have been collected.  ``feature`` restricts the
    campaign to one generator stratum (see ``generator.FEATURES``): each
    iteration resamples until its program carries that feature tag.

    ``batch_size`` pins the pool fan-out size; by default it adapts --
    starting from :func:`resolve_batch`'s jobs-scaled floor, then resized
    from the measured per-instance cost so each fan-out covers roughly
    :data:`BATCH_TARGET_SECONDS` of work.  The automatic garbage collector
    is paused for the duration of the campaign (the caches at work here are
    all bounded) and restored afterwards.
    """
    from repro.parallel import pool_map

    if batch_size is not None and batch_size < 1:
        raise ReproError(
            f"fuzz batch size must be >= 1, got {batch_size} "
            "(--batch-size / fuzz_run(batch_size=...))"
        )
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

    # Batches keep the pool busy while letting the driver honour the time
    # budget and the failure cap between fan-outs.
    current_batch = batch_size or resolve_batch(jobs)
    next_iteration = 0
    effective_jobs = 1
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        while next_iteration < iterations:
            if (
                time_budget is not None
                and time.perf_counter() - t0 > time_budget
            ):
                summary.stopped_early = True
                break
            if len(summary.failures) >= max_failures:
                summary.stopped_early = True
                break
            batch = list(
                range(
                    next_iteration, min(iterations, next_iteration + current_batch)
                )
            )
            next_iteration = batch[-1] + 1
            records, effective_jobs = pool_map(
                _fuzz_task,
                batch,
                jobs=jobs,
                initializer=_init_fuzz_worker,
                initargs=(seed, base_config, feature),
            )
            for record in records:
                summary.iterations += 1
                summary.phase_seconds["generate"] = summary.phase_seconds.get(
                    "generate", 0.0
                ) + record.get("generate_s", 0.0)
                if record["status"] == "skipped":
                    summary.skipped += 1
                    continue
                summary.generated += 1
                for name in record["checks_run"]:
                    summary.check_counts[name] = (
                        summary.check_counts.get(name, 0) + 1
                    )
                check_total = 0.0
                for name, dt in record["timings"].items():
                    summary.check_seconds[name] = (
                        summary.check_seconds.get(name, 0.0) + dt
                    )
                    if name == "compile":
                        summary.phase_seconds["compile"] = (
                            summary.phase_seconds.get("compile", 0.0) + dt
                        )
                    else:
                        check_total += dt
                summary.phase_seconds["check"] = (
                    summary.phase_seconds.get("check", 0.0) + check_total
                )
                for stage, dt in record.get("stages", {}).items():
                    name = _STAGE_PHASE[stage]
                    summary.phase_seconds[name] = (
                        summary.phase_seconds.get(name, 0.0) + dt
                    )
                for tag in record.get("features", ()):
                    summary.feature_counts[tag] = (
                        summary.feature_counts.get(tag, 0) + 1
                    )
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
                        log(
                            f"iteration {record['iteration']}: FAILED "
                            f"{record['checks']}"
                        )
            if batch_size is None and summary.generated:
                per_instance = (time.perf_counter() - t0) / max(
                    1, summary.iterations
                )
                current_batch = resolve_batch(jobs, per_instance)
    finally:
        if gc_was_enabled:
            gc.enable()
    summary.jobs = effective_jobs

    if shrink and summary.failures:
        from repro.fuzz.corpus import instance_from_json

        for failure in summary.failures:
            iter_config = iteration_config(base_config, failure.iteration)
            # Shrinking re-runs the cheap checks only: sampled extras are
            # disabled so the minimized reproducer replays them cheaply.
            shrink_config = replace(
                iter_config,
                check_threaded=False,
                check_capacity=False,
                check_partition=False,
                check_pool=False,
            )
            instance = instance_from_json(failure.original_json)
            shrunk, report = shrink_instance(
                instance, shrink_config, max_steps=max_shrink_steps
            )
            failure.shrunk_json = instance_to_json(shrunk)
            if corpus_dir is not None:
                path = write_reproducer(
                    shrunk, report, corpus_dir, config=shrink_config
                )
                failure.reproducer = str(path)
                if log:
                    log(f"iteration {failure.iteration}: minimized to {path}")

    summary.elapsed_s = time.perf_counter() - t0
    return summary


def resolve_batch(jobs: int | None, per_instance_s: float | None = None) -> int:
    """Pick a pool fan-out size from the worker count *and* instance cost.

    With no cost measurement yet (campaign start), fall back to four batches
    of work per worker.  Once ``per_instance_s`` is known, size the batch so
    one fan-out covers roughly :data:`BATCH_TARGET_SECONDS` of wall-clock --
    cheap instances get large batches (amortizing pool dispatch), expensive
    ones get small batches (so the time budget and failure cap stay
    responsive) -- clamped to ``[workers, 64 * workers]``.
    """
    from repro.parallel import resolve_jobs

    workers = resolve_jobs(jobs)
    if per_instance_s is None or per_instance_s <= 0:
        return 4 * workers
    target = int(BATCH_TARGET_SECONDS / per_instance_s)
    return max(workers, min(target, 64 * workers))
