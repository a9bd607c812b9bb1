"""One bounded LRU for every compile-once, specialise-per-size cache.

The scheme derives a design's closed forms once and then specialises them
to any problem size, so each engine keeps its size-specific artefacts --
compiled pygen modules, wavefront schedules, partitioned schedules,
network plans, the service's compiled designs -- in a cache keyed by a
design fingerprint plus the sizes.  :class:`BoundedLRU` is that cache:
bounded, least recently used first out, safe to share across the compile
service's executor threads, with one ``stats()`` shape every caller
registers with :mod:`repro.profiling`.

:func:`size_key` is the size part of those keys.
"""

from __future__ import annotations

import numbers
import threading
from collections import OrderedDict
from typing import Callable, Hashable, Mapping

from repro.util.errors import ReproError

__all__ = ["BoundedLRU", "size_key"]

_MISSING = object()


class BoundedLRU:
    """At most ``capacity`` entries; the least recently used goes first.

    ``hits``/``misses`` count :meth:`get` and :meth:`get_or_build` lookups,
    ``evictions`` the entries dropped for space; :meth:`clear` zeroes them.
    The entry map is mutated only under one lock.  :meth:`get_or_build`
    runs ``build`` outside it, so builds of distinct keys proceed in
    parallel; when two callers race on one key the first insert wins and
    both return that one object.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default=None):
        """The entry under ``key``, now the most recent; ``default`` if absent."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self.hits += 1
            self._entries.move_to_end(key)
            return value

    def peek(self, key: Hashable, default=None):
        """Like :meth:`get` without touching recency or counters."""
        return self._entries.get(key, default)

    def put(self, key: Hashable, value) -> None:
        """Insert or replace the entry under ``key`` as the most recent."""
        with self._lock:
            self._entries[key] = value
            self._settle(key)

    def get_or_build(self, key: Hashable, build: Callable[[], object]):
        """The entry under ``key``, built by ``build()`` on a miss."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            built = build()
            with self._lock:
                value = self._entries.setdefault(key, built)
                self._settle(key)
        return value

    def discard(self, key: Hashable) -> None:
        """Drop one entry if present (forces the next lookup to rebuild)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def _settle(self, key: Hashable) -> None:
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1


def size_key(env: Mapping[str, object]) -> tuple[tuple[str, int], ...]:
    """The sorted ``(name, int)`` pairs of a problem-size binding.

    A boolean or non-integral size raises :class:`ReproError` naming it,
    where ``int()`` would silently key ``n=4.5`` (or ``n=True``) onto the
    entry of ``n=4`` (or ``n=1``).
    """
    return tuple(sorted((name, _integral(name, value)) for name, value in env.items()))


def _integral(name: str, value: object) -> int:
    if type(value) is int:
        return value
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            if int(value) == value:
                return int(value)
        except (OverflowError, ValueError):  # inf, nan
            pass
    raise ReproError(f"problem size {name}={value!r} must be an integer")
