"""Cross-design derivation memoization for the explorer.

The design-space sweep compiles hundreds of candidate arrays that differ
only in their ``place`` matrix while sharing the ``step`` vector, the source
program, and therefore most of the intermediate derivations: stream flow
directions, i/o endpoints, soak/drain closed forms, repeater increments.
:data:`MEMO` keys each sub-derivation by a structural fingerprint --
``(program-fingerprint, step rows, place rows, stream name, ...)`` -- so a
candidate re-deriving a form another candidate already produced gets the
interned result back instead of re-running the derivation (and, crucially,
re-running the Fourier-Motzkin simplification behind it).

Only *successful* derivations are cached: exceptions such as
``RestrictionViolation`` are part of candidate filtering and always
propagate uncached.  Tables are bounded (cleared wholesale on overflow --
the working set of one sweep fits comfortably) and the whole state is
picklable via :meth:`DerivationMemo.export_state` /
:meth:`DerivationMemo.import_state`, which is how
``parallel.sweep_designs`` ships the warm driver-side memo to its worker
processes once per batch.

Set ``REPRO_DISABLE_MEMO=1`` to bypass every table (the correctness gate in
``tools/bench_explore.py`` compares cached vs uncached ranked tables).

This module must stay import-light: it is imported from both ``core`` and
``systolic`` and may not import either.
"""

from __future__ import annotations

import hashlib
import os
import threading
import weakref
from typing import Any, Callable, Hashable

from repro import profiling

__all__ = ["DerivationMemo", "MEMO", "program_fingerprint", "stable_key"]

_MISSING = object()

#: Per-table entry bound; one sweep's working set is a few hundred entries.
_TABLE_LIMIT = 4096


def _disabled() -> bool:
    return os.environ.get("REPRO_DISABLE_MEMO", "") not in ("", "0")


_skey_cache: dict[int, str] = {}


def stable_key(form) -> str:
    """Order-sensitive, picklable key component for a symbolic form.

    ``Guard`` and ``Piecewise`` equality deliberately ignores constraint and
    alternative order, but their rendering does not, so keying a memo table
    on the objects themselves could hand an order-variant caller a result
    that *prints* differently (while remaining semantically equal).  Their
    ``str`` form spells out the exact ordered structure and pickles to the
    same key in worker processes.  Cached per (interned, shared) instance.
    """
    ident = id(form)
    sk = _skey_cache.get(ident)
    if sk is None:
        sk = str(form)
        _skey_cache[ident] = sk
        weakref.finalize(form, _skey_cache.pop, ident, None)
    return sk


class DerivationMemo:
    """Named memo tables for derivation steps, keyed structurally.

    Task/thread safety: the compile service runs derivations on executor
    threads, so every table mutation happens under one re-entrant lock.
    ``compute()`` itself runs *outside* the lock -- two threads missing the
    same key may both derive the value, but derivations are pure and their
    results interned, so the second insert is the same (or an equal) object
    and last-write-wins is benign.  Holding the lock through ``compute()``
    would instead serialize every distinct compile behind the slowest one.
    A cancelled service request simply abandons the executor thread; the
    derivation still runs to completion there and only a *successful*
    result is inserted, so cancellation can never leave a partial entry.
    """

    def __init__(self, limit: int = _TABLE_LIMIT) -> None:
        self.tables: dict[str, dict[Hashable, Any]] = {}
        self.limit = limit
        self._stats = profiling.counter("derivation_memo")
        #: per-table (hits, misses) -- lets callers prove a specific
        #: derivation (e.g. the symbolic partition compilation) was reused
        #: rather than re-run, independent of unrelated memo traffic
        self._table_stats: dict[str, list[int]] = {}
        self._lock = threading.RLock()

    def table_counters(self, table: str) -> tuple[int, int]:
        """``(hits, misses)`` recorded for one memo table."""
        with self._lock:
            hits, misses = self._table_stats.get(table, (0, 0))
        return (hits, misses)

    def get(self, table: str, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The memoized value of ``compute()`` under ``(table, key)``."""
        if _disabled():
            return compute()
        with self._lock:
            entries = self.tables.get(table)
            if entries is None:
                entries = self.tables[table] = {}
            stats = self._table_stats.setdefault(table, [0, 0])
            found = entries.get(key, _MISSING)
            if found is not _MISSING:
                self._stats.hits += 1
                stats[0] += 1
                return found
            self._stats.misses += 1
            stats[1] += 1
        value = compute()  # outside the lock: pure, may run concurrently
        with self._lock:
            if len(entries) >= self.limit:
                entries.clear()
            entries[key] = value
        return value

    def clear(self) -> None:
        with self._lock:
            self.tables.clear()
            self._table_stats.clear()

    def export_state(self) -> dict[str, dict[Hashable, Any]]:
        """A picklable snapshot (values are interned symbolic objects)."""
        with self._lock:
            return {name: dict(entries) for name, entries in self.tables.items()}

    def import_state(self, state: dict[str, dict[Hashable, Any]]) -> None:
        """Merge a snapshot (e.g. shipped from the sweep driver)."""
        with self._lock:
            for name, entries in state.items():
                self.tables.setdefault(name, {}).update(entries)

    def counters_snapshot(self) -> dict[str, tuple[int, int]]:
        """All per-table ``(hits, misses)`` pairs."""
        with self._lock:
            return {name: (s[0], s[1]) for name, s in self._table_stats.items()}

    def stats_snapshot(self) -> dict[str, int]:
        with self._lock:
            out = {
                "hits": self._stats.hits,
                "misses": self._stats.misses,
            }
            for name, entries in sorted(self.tables.items()):
                out[f"table_{name}"] = len(entries)
            for name, (hits, misses) in sorted(self._table_stats.items()):
                out[f"table_{name}_hits"] = hits
                out[f"table_{name}_misses"] = misses
        return out


#: The process-wide memo used by the compilation driver and the explorer.
MEMO = DerivationMemo()

profiling.register("derivation_memo", MEMO.stats_snapshot)


_fp_cache: dict[int, str] = {}


def program_fingerprint(program) -> str:
    """A stable, cross-process fingerprint of a source program.

    Derived from the canonical ``to_source()`` text so equal programs in
    different worker processes produce the same memo keys; cached per
    instance (evicted when the program is garbage-collected).
    """
    ident = id(program)
    fp = _fp_cache.get(ident)
    if fp is None:
        fp = hashlib.sha1(program.to_source().encode()).hexdigest()[:16]
        _fp_cache[ident] = fp
        weakref.finalize(program, _fp_cache.pop, ident, None)
    return fp
