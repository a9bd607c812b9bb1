"""In-memory spans and the per-layer metrics computed from them.

A traced repetition wraps each public library call a job makes in a span
(name, start, end, parent); every span of one job carries that job's id.
Spans stay in memory until the repetition ends.  A layer's self time is
its spans' duration minus the part covered by their child spans.

Counts come from before/after deltas of what the library already exposes:
``profiling.snapshot()``, ``plan_stats()`` (registered there as
``network_plans``) and ``schedule_cache_stats()``.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

#: layers timed by spans; each yields the per-layer metric ``<name>_ms``
SPAN_LAYERS = (
    "lang.parse",
    "lang.validate",
    "core.derive",
    "target.render",
    "analysis.schedule",
    "target.npgen",
    "runtime.plan",
    "runtime.instantiate",
    "runtime.run",
)

#: fuzz campaign phases and checks, as ``FuzzSummary`` names them
FUZZ_PHASES = ("generate", "compile", "check", "build_network", "execute")
FUZZ_CHECKS = (
    "oracle",
    "simulator",
    "pygen",
    "cross_check",
    "npgen",
    "partition",
    "sched_ab",
    "memo_ab",
)


class Tracer:
    """Records spans for one traced repetition."""

    enabled = True

    def __init__(self) -> None:
        #: ``[job, span id, parent id or None, name, start, end]`` records
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    def start_job(self) -> None:
        self.job += 1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [self.job, len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[1])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def export(self) -> list[dict]:
        origin = self.spans[0][4] if self.spans else 0.0
        return [
            {
                "job": job,
                "id": sid,
                "parent": parent,
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
            }
            for job, sid, parent, name, start, end in self.spans
        ]


class NoTracer:
    """The untraced stand-in: every span is the same no-op context."""

    enabled = False
    _null = contextlib.nullcontext()

    def start_job(self) -> None:
        pass

    def span(self, name: str):
        return self._null


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time in seconds per span name."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end_s"] - s["start_s"]
    totals: dict[str, float] = {}
    for s, child in zip(spans, covered):
        own = s["end_s"] - s["start_s"] - child
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


def read_counters() -> dict[str, int]:
    """Cache counters of every layer, flattened; subtract two readings."""
    from repro import profiling
    from repro.target.npgen import schedule_cache_stats

    counters = profiling.snapshot()["counters"]
    memo = counters.get("derivation_memo", {})
    sym = counters.get("symbolic", {})
    plans = counters.get("network_plans", {})
    schedules = schedule_cache_stats()

    def total(suffix: str) -> int:
        return sum(v for k, v in sym.items() if k.endswith(suffix))

    return {
        "memo_hits": memo.get("hits", 0),
        "memo_misses": memo.get("misses", 0),
        "feasible_hits": sym.get("guard_feasible_memo_hits", 0),
        "feasible_misses": sym.get("guard_feasible_memo_misses", 0),
        "intern_hits": total("_intern_hits"),
        "intern_misses": total("_intern_misses"),
        "pw_compiled_hits": sym.get("piecewise_compiled_cache_hits", 0),
        "pw_compiled_misses": sym.get("piecewise_compiled_cache_misses", 0),
        "plan_reuses": plans.get("reuses", 0),
        "plan_builds": plans.get("builds", 0),
        "schedule_hits": schedules["hits"],
        "schedule_misses": schedules["misses"],
    }


def add_delta(acc: dict, before: dict, after: dict) -> None:
    for key, value in after.items():
        acc[key] = acc.get(key, 0) + value - before[key]


def _frac(hits: float, misses: float) -> float:
    """Hit fraction; 0 when the layer made no lookups."""
    return hits / (hits + misses) if hits + misses else 0.0


def _rate(count: float, seconds: float, per: float) -> float:
    return count / (seconds * per) if seconds > 0 else 0.0


def layer_metrics(
    spans: list[dict], jobs: int, units: int, counts: dict, engine: dict
) -> dict[str, float]:
    """Every per-layer metric of one traced repetition.

    ``jobs`` normalises per-job values; ``units`` counts library calls that
    ran many jobs at once (sweeps), for the per-sweep ``systolic`` stages.
    ``engine`` holds facts the workload collected: scheduler totals, npgen
    statement count, ``SweepTimings`` stages, fuzz phase/check seconds.
    A layer the workload never enters reads 0.
    """
    per_job = 1.0 / max(jobs, 1)
    own = self_times(spans)
    out = {f"{name}_ms": 1000.0 * own.get(name, 0.0) * per_job for name in SPAN_LAYERS}
    c = Counter(counts).__getitem__  # missing counters read 0
    out["core.memo_hit_frac"] = _frac(c("memo_hits"), c("memo_misses"))
    out["core.memo_misses_per_job"] = c("memo_misses") * per_job
    out["symbolic.feasible_memo_hit_frac"] = _frac(
        c("feasible_hits"), c("feasible_misses")
    )
    out["symbolic.intern_hit_frac"] = _frac(c("intern_hits"), c("intern_misses"))
    out["symbolic.piecewise_compiled_hit_frac"] = _frac(
        c("pw_compiled_hits"), c("pw_compiled_misses")
    )
    out["analysis.schedule_hit_frac"] = _frac(c("schedule_hits"), c("schedule_misses"))
    out["target.npgen_stmts_per_us"] = _rate(
        engine.get("npgen_stmts", 0), own.get("target.npgen", 0.0), 1e6
    )
    out["runtime.plan_reuse_frac"] = _frac(c("plan_reuses"), c("plan_builds"))
    resumes = engine.get("resumes", 0)
    out["runtime.resumes_per_ms"] = _rate(resumes, own.get("runtime.run", 0.0), 1e3)
    out["runtime.resumes_per_job"] = resumes * per_job
    out["runtime.messages_per_job"] = engine.get("messages", 0) * per_job
    out["runtime.makespan"] = engine.get("makespan", 0) * per_job
    per_unit = 1.0 / max(units, 1)
    out["systolic.synthesis_s"] = engine.get("synthesis_s", 0.0) * per_unit
    out["systolic.cost_s"] = engine.get("cost_s", 0.0) * per_unit
    phases = engine.get("phase_seconds", {})
    for name in FUZZ_PHASES:
        out[f"fuzz.{name}_ms"] = 1000.0 * phases.get(name, 0.0) * per_job
    checks = engine.get("check_seconds", {})
    for name in FUZZ_CHECKS:
        out[f"fuzz.check.{name}_ms"] = 1000.0 * checks.get(name, 0.0) * per_job
    return out
