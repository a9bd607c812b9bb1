"""Content-addressed design store with in-flight request coalescing.

The store is the service's unit of memoization *above* the symbolic core:
each entry is one :class:`~repro.compilation.Compilation` -- source
program, array spec and the derived ``SystolicProgram`` -- keyed by
``design_fingerprint`` (the
same sha256 the schedule and partition caches key on, computable from
the request before compilation).  Clients may submit ``{source, design}``
pairs or refer back to an earlier compile by bare ``{fingerprint}``.

Coalescing: when K concurrent requests name the same fingerprint and the
design is not cached yet, exactly one compilation runs (on the executor);
the other K-1 await the same future.  The per-table counters of
``repro.core.memo.MEMO`` prove the derivations underneath ran once.

Cancellation safety: callers await the in-flight future through
``asyncio.shield``, so a request timeout abandons the *wait*, never the
compilation -- the executor thread runs to completion and publishes (or
discards, on failure) its result exactly as if no timeout had happened.
Failures are never cached: the next request for the same fingerprint
retries from scratch, mirroring the memo's only-cache-success rule.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from typing import Any, Mapping

from repro.compilation import Compilation
from repro.core.scheme import compile_systolic
from repro.lang.parser import parse_program
from repro.lang.program import SourceProgram
from repro.systolic.spec import SystolicArray, array_from_spec
from repro.target.pygen import fingerprint_of
from repro.util.cache import BoundedLRU
from repro.util.errors import ReproError

__all__ = ["DesignStore"]

DEFAULT_MAX_DESIGNS = 512


class DesignStore:
    """Bounded LRU of compiled designs + coalesced in-flight compiles.

    ``hits`` are store lookups answered by a cached design; ``misses``
    count compilations started (coalesced waiters and unknown-fingerprint
    lookups are not misses).
    """

    def __init__(
        self,
        *,
        executor: Executor | None = None,
        max_designs: int = DEFAULT_MAX_DESIGNS,
    ) -> None:
        self._designs = BoundedLRU(max_designs)
        self._inflight: dict[str, asyncio.Future] = {}
        self._executor = executor
        self.misses = 0
        self.coalesced = 0
        self.failures = 0

    def __len__(self) -> int:
        return len(self._designs)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    # -- synchronous lookups ------------------------------------------------

    def parse_request(
        self, source_text: str, design_spec: Mapping[str, Any]
    ) -> tuple[SourceProgram, SystolicArray, str]:
        """Parse a ``{source, design}`` request and fingerprint it.

        Raises :class:`ReproError` subclasses (the parser's diagnostics
        pass through untouched) -- the daemon maps those to 4xx.
        """
        if not isinstance(source_text, str) or not source_text.strip():
            raise ReproError("request field 'source' must be a non-empty string")
        program = parse_program(source_text)
        array = array_from_spec(design_spec)
        return program, array, fingerprint_of(program, array)

    def get(self, fingerprint: str) -> Compilation | None:
        """The cached design (a hit, bumping LRU recency); None when absent."""
        return self._designs.get(fingerprint)

    def lookup(self, fingerprint: str) -> Compilation:
        """Like :meth:`get` but raising the daemon-facing 4xx error."""
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ReproError("request field 'fingerprint' must be a non-empty string")
        entry = self.get(fingerprint)
        if entry is None:
            raise ReproError(
                f"unknown design fingerprint {fingerprint[:16]!r}...; "
                "compile it first via /compile with source + design"
            )
        return entry

    # -- the coalescing compile path ---------------------------------------

    async def get_or_compile(
        self, source_text: str, design_spec: Mapping[str, Any]
    ) -> tuple[Compilation, bool]:
        """The compiled design for a request, compiling at most once, and
        whether the store already held it (a coalesced waiter did not).

        Concurrent callers with the same fingerprint share one in-flight
        compilation; the awaited future is shielded by the caller's
        ``asyncio.wait_for``-based timeout, so cancellation abandons only
        the wait (see module docstring).
        """
        program, array, fingerprint = self.parse_request(source_text, design_spec)
        entry = self.get(fingerprint)
        if entry is not None:
            return entry, True
        future = self._inflight.get(fingerprint)
        if future is None:
            self.misses += 1
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            # swallow "exception was never retrieved" when every awaiting
            # request timed out before the compile failed
            future.add_done_callback(
                lambda f: None if f.cancelled() else f.exception()
            )
            self._inflight[fingerprint] = future
            asyncio.ensure_future(
                self._compile_into(fingerprint, program, array, future)
            )
        else:
            self.coalesced += 1
        return await asyncio.shield(future), False

    async def _compile_into(
        self,
        fingerprint: str,
        program: SourceProgram,
        array: SystolicArray,
        future: asyncio.Future,
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            sp = await loop.run_in_executor(
                self._executor, compile_systolic, program, array
            )
        except BaseException as exc:
            self.failures += 1
            self._inflight.pop(fingerprint, None)
            if not future.cancelled():
                future.set_exception(exc)
            return
        entry = Compilation(program, array, sp)
        # the request is hashed already: seed the lazy ``fingerprint``
        vars(entry)["fingerprint"] = fingerprint
        self._designs.put(fingerprint, entry)
        self._inflight.pop(fingerprint, None)
        if not future.cancelled():
            future.set_result(entry)

    def clear(self) -> None:
        """Drop cached designs (in-flight compiles finish undisturbed)."""
        self._designs.clear()
        self.misses = self.coalesced = self.failures = 0

    def snapshot(self) -> dict:
        lru = self._designs.stats()
        return {
            "designs": lru["size"],
            "capacity": lru["capacity"],
            "inflight": len(self._inflight),
            "hits": lru["hits"],
            "misses": self.misses,
            "coalesced": self.coalesced,
            "failures": self.failures,
            "evictions": lru["evictions"],
        }
