"""Opt-in profiling: every cache counter and stage timing in one registry.

Set ``REPRO_PROFILE=1`` and every run prints a per-stage timing / counter
table to stderr at interpreter exit.  The hooks are plain integer
increments, cheap enough to stay enabled unconditionally; only the report
itself is gated on the environment variable.

Two kinds of counters feed the report:

* hit/miss pairs from :func:`counter` -- the symbolic intern tables, the
  compiled-form and guard/piecewise memos, the cross-design derivation
  memo's total, the Fourier-Motzkin feasibility memo (``fm_feasible``) and
  the linear-algebra elimination memos (``linalg_rank``, ``linalg_null``,
  ``linalg_inverse``) -- all reported under the ``symbolic`` section;
* named providers (a zero-argument callable returning a flat
  ``{counter: value}`` dict) passed to :func:`register`: each
  :class:`~repro.util.cache.BoundedLRU` registers its ``stats`` --
  ``pygen_modules``, ``wavefront_schedules``, ``partition_schedules``,
  ``network_plans`` -- next to ``derivation_memo`` (per-table counters and
  sizes), ``fuzz_pipeline`` (compile-once reuse of fuzz instances) and,
  once a compile service exists, ``design_store``.

Providers are read at report time, so the report reflects live state, and
importing this module never drags in the rest of the package.  The
compile service's ``/stats`` is :func:`snapshot` plus its HTTP metrics.
"""

from __future__ import annotations

import atexit
import os
import sys
from typing import Callable, Mapping

__all__ = [
    "Counter",
    "counter",
    "enabled",
    "register",
    "add_stage",
    "reset_stages",
    "snapshot",
    "format_report",
]

_providers: dict[str, Callable[[], Mapping[str, object]]] = {}
_stages: dict[str, float] = {}


def enabled() -> bool:
    """True iff ``REPRO_PROFILE`` asks for the exit report."""
    return os.environ.get("REPRO_PROFILE", "") not in ("", "0")


def register(name: str, provider: Callable[[], Mapping[str, object]]) -> None:
    """Register a named counter provider (later registrations replace)."""
    _providers[name] = provider


class Counter:
    """A hit/miss pair cheap enough for the construction hot path."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


_counters: dict[str, Counter] = {}


def counter(name: str) -> Counter:
    """The named hit/miss counter, created on first use (one per memo)."""
    try:
        return _counters[name]
    except KeyError:
        c = _counters[name] = Counter()
        return c


def _counter_snapshot() -> dict[str, int]:
    out: dict[str, int] = {}
    for name, c in sorted(_counters.items()):
        out[f"{name}_hits"] = c.hits
        out[f"{name}_misses"] = c.misses
    return out


register("symbolic", _counter_snapshot)


def add_stage(name: str, seconds: float) -> None:
    """Accumulate wall-clock time into a named stage."""
    _stages[name] = _stages.get(name, 0.0) + seconds


def reset_stages() -> None:
    _stages.clear()


def snapshot() -> dict:
    """All counters and stage timings as one JSON-friendly dict."""
    counters = {name: dict(provider()) for name, provider in sorted(_providers.items())}
    return {
        "counters": counters,
        "stages": {name: round(s, 6) for name, s in sorted(_stages.items())},
    }


def format_report() -> str:
    """A human-readable table of every registered counter and stage."""
    snap = snapshot()
    lines = ["-- REPRO_PROFILE report " + "-" * 40]
    for name, counters in snap["counters"].items():
        parts = "  ".join(f"{k}={v}" for k, v in counters.items())
        lines.append(f"{name:<20} {parts}")
    if snap["stages"]:
        lines.append("stages:")
        for name, seconds in snap["stages"].items():
            lines.append(f"  {name:<25} {seconds:.3f}s")
    return "\n".join(lines)


def _report_at_exit() -> None:
    if enabled():
        print(format_report(), file=sys.stderr)


atexit.register(_report_at_exit)
