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
propagate uncached.  Each table is a bounded LRU (the working set of one
sweep fits comfortably) and the whole state is picklable via
:meth:`DerivationMemo.export_state` / :meth:`DerivationMemo.import_state`,
which is how ``parallel.sweep_designs`` ships the warm driver-side memo to
its worker processes once per pool.

``validate_program`` keeps its own ``validate`` table here, keyed by the
program fingerprint alone, so the coverage check runs once per program
however many callers validate it.  ``compile_systolic`` keeps its whole
result in the ``design`` table, so a repeated compile is one lookup.

This module must stay import-light: it is imported from ``core``,
``systolic`` and ``lang`` and may not import any of them.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Any, Callable, Hashable

from repro import profiling
from repro.util.cache import BoundedLRU

__all__ = ["DerivationMemo", "MEMO", "program_fingerprint", "stable_key"]


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

    Each table is one :class:`~repro.util.cache.BoundedLRU` of 4096
    entries, created on first use; one sweep's working set is a few
    hundred.  Task/thread safety is the LRU's: ``compute()`` runs *outside*
    its lock, so two threads missing the same key may both derive the
    value, but derivations are pure and their results interned, and the
    first insert wins.  Holding a lock through ``compute()`` would instead
    serialize every distinct compile behind the slowest one.  A cancelled
    service request simply abandons the executor thread; the derivation
    still runs to completion there and only a *successful* result is
    inserted, so cancellation can never leave a partial entry.
    """

    def __init__(self) -> None:
        self.tables: dict[str, BoundedLRU] = {}

    def _table(self, name: str) -> BoundedLRU:
        table = self.tables.get(name)
        if table is None:  # setdefault is atomic: racing creators share one
            table = self.tables.setdefault(name, BoundedLRU(4096))
        return table

    def get(self, table: str, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The memoized value of ``compute()`` under ``(table, key)``."""
        return self._table(table).get_or_build(key, compute)

    def table_counters(self, table: str) -> tuple[int, int]:
        """``(hits, misses)`` recorded for one memo table."""
        entries = self.tables.get(table)
        return (0, 0) if entries is None else (entries.hits, entries.misses)

    def clear(self) -> None:
        """Drop every table, with its entries and counters."""
        self.tables.clear()

    def export_state(self) -> dict[str, dict[Hashable, Any]]:
        """A picklable snapshot (values are interned symbolic objects)."""
        return {name: dict(t.items()) for name, t in list(self.tables.items())}

    def import_state(self, state: dict[str, dict[Hashable, Any]]) -> None:
        """Merge a snapshot (e.g. shipped from the sweep driver)."""
        for name, entries in state.items():
            table = self._table(name)
            for key, value in entries.items():
                table.put(key, value)

    def counters_snapshot(self) -> dict[str, tuple[int, int]]:
        """All per-table ``(hits, misses)`` pairs."""
        return {name: (t.hits, t.misses) for name, t in list(self.tables.items())}

    def stats_snapshot(self) -> dict[str, int]:
        """Hit/miss totals over the tables, then each table's size and
        counters."""
        tables = sorted((name, t.stats()) for name, t in list(self.tables.items()))
        out = {
            "hits": sum(s["hits"] for _, s in tables),
            "misses": sum(s["misses"] for _, s in tables),
        }
        for name, s in tables:
            out[f"table_{name}"] = s["size"]
        for name, s in tables:
            out[f"table_{name}_hits"] = s["hits"]
            out[f"table_{name}_misses"] = s["misses"]
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
