"""The compile service daemon: HTTP/JSON over stdlib asyncio streams.

One event loop owns the sockets; CPU-bound pipeline stages (compilation,
execution, exploration, fuzz replay) run on a small thread pool so the
loop keeps accepting connections while the symbolic core works.  All
shared caches underneath (``MEMO``, the pygen module cache, wavefront and
partition schedule LRUs) took a thread-safety pass for exactly this
topology; the design store additionally coalesces concurrent identical
compiles into one derivation.

Endpoints (all JSON; ``POST`` unless noted)::

    GET  /healthz      liveness + store occupancy
    GET  /stats        per-endpoint latency histograms + every cache counter
    POST /compile      {source, design[, emit]} | {fingerprint[, emit]}
    POST /execute      {source+design | fingerprint, sizes[, backend, seed,
                        batch, array, check]}
    POST /verify       {source+design | fingerprint, sizes[, backend, seed,
                        capacity]}
    POST /explore      {source[, bound, sizes, limit]}
    POST /fuzz-replay  {ref}

Error contract: library errors map through
:func:`repro.util.errors.http_status` (malformed programs/designs are 4xx
with the parser's diagnostic text; scheme limits are 422; runtime faults
5xx); unexpected exceptions are a structured 500 body -- the daemon itself
keeps serving.  Request timeouts return 504 and *never* cancel the
underlying derivation, so shared caches cannot be corrupted mid-write.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Awaitable, Callable, Mapping

# every engine a request dispatches to loads with the daemon, so no request
# pays an import and /stats lists every cache from the first request: npgen
# brings NumPy and the wavefront and partitioned schedules
import repro.target.npgen  # noqa: F401
from repro import profiling
from repro.compilation import EMITTERS, Compilation
from repro.extensions.partition import array_extents
from repro.fuzz.corpus import find_reproducer, load_reproducer
from repro.fuzz.harness import run_instance
from repro.lang.parser import parse_program
from repro.parallel import sweep_designs
from repro.service.metrics import ServiceMetrics
from repro.service.store import DesignStore
from repro.systolic.schedule import synthesize_step
from repro.util.cache import size_key
from repro.util.errors import ReproError, http_status
from repro.verify.equivalence import checked_backend

__all__ = ["CompileService", "ServiceConfig", "state_to_json"]

PROTOCOL_VERSION = 1

#: request headers are bounded to keep a hostile client from ballooning
#: the parser; bodies are bounded separately via ``max_body_bytes``
_MAX_HEADER_LINE = 8192
_MAX_HEADERS = 64

_EMITTERS = (*EMITTERS, "none")


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port is ``service.port``)
    timeout_s: float = 30.0  # per-request wall clock
    workers: int = 1  # executor threads for pipeline stages
    max_body_bytes: int = 4 * 1024 * 1024
    max_designs: int = 512
    corpus_dir: str = "tests/fuzz_corpus"

    def __post_init__(self) -> None:
        if not self.timeout_s > 0:  # NaN compares false both ways
            raise ReproError(
                f"request timeout must be positive, got {self.timeout_s}"
            )
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {self.workers}")
        if self.max_body_bytes < 1024:
            raise ReproError(
                f"max body size must be >= 1024 bytes, got {self.max_body_bytes}"
            )


class _HttpError(Exception):
    """An error with a fixed HTTP status, raised by the request plumbing."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.extra = extra


def _size_env(sizes: Mapping[str, Any]) -> dict[str, int]:
    """A request's problem sizes; a non-integer one is a 400 naming them."""
    try:
        return dict(size_key(sizes))
    except ReproError as exc:
        raise _HttpError(400, f"request field 'sizes': {exc}") from None


def _json_value(value: Any) -> Any:
    """A JSON-safe scalar: ints pass through, Fractions become 'p/q'."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value
    return str(value)


def state_to_json(final: Mapping[str, Mapping[tuple, Any]]) -> dict:
    """Serialize executor output {var: {index-tuple: value}} for JSON.

    Index tuples become sorted ``[i, j, ..., value]`` rows, so equal
    states serialize identically regardless of dict insertion order --
    the property the bit-identity gates in the benchmark rely on.
    """
    out: dict[str, list] = {}
    for var, elements in sorted(final.items()):
        rows = sorted(
            (list(index), _json_value(value)) for index, value in elements.items()
        )
        out[var] = [[*index, value] for index, value in rows]
    return out


class CompileService:
    """One daemon instance: a design store and the routes."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )
        self.store = DesignStore(
            executor=self.executor, max_designs=self.config.max_designs
        )
        profiling.register("design_store", self.store.snapshot)
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started = time.monotonic()
        self.requests_served = 0
        self._routes: dict[tuple[str, str], Callable[..., Awaitable[dict]]] = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/stats"): self._handle_stats,
            ("POST", "/compile"): self._handle_compile,
            ("POST", "/execute"): self._handle_execute,
            ("POST", "/verify"): self._handle_verify,
            ("POST", "/explore"): self._handle_explore,
            ("POST", "/fuzz-replay"): self._handle_fuzz_replay,
        }

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise ReproError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._started = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        """Stop accepting, drain open connections, release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self.executor.shutdown(wait=True)

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` main loop)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    self.metrics.malformed += 1
                    await self._respond(
                        writer,
                        exc.status,
                        {"error": str(exc), **exc.extra},
                        close=True,
                    )
                    return
                if request is None:  # clean EOF between requests
                    return
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload = await self._dispatch(method, path, body)
                try:
                    await self._respond(
                        writer, status, payload, close=not keep_alive
                    )
                except (ConnectionError, BrokenPipeError):
                    return
                if not keep_alive:
                    return
        except asyncio.CancelledError:
            # service shutdown cancels connection handlers; finishing the
            # task normally keeps asyncio.streams' connection_made callback
            # from re-raising the cancellation as a logged error
            return
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            # close without awaiting wait_closed(): the response is already
            # drained, and awaiting here races loop teardown cancellation
            try:
                writer.close()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One HTTP/1.1 request: ``(method, path, headers, body)`` or None."""
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not line:
            return None
        if len(line) > _MAX_HEADER_LINE:
            raise _HttpError(431, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, f"malformed request line: {line[:64]!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            if len(header) > _MAX_HEADER_LINE:
                raise _HttpError(431, "header line too long")
            if len(headers) >= _MAX_HEADERS:
                raise _HttpError(431, "too many headers")
            name, sep, value = header.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header: {header[:64]!r}")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise _HttpError(400, "negative Content-Length")
        if length > self.config.max_body_bytes:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        close: bool,
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            413: "Payload Too Large",
            422: "Unprocessable Entity",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error",
            501: "Not Implemented",
            504: "Gateway Timeout",
        }.get(status, "OK" if status < 400 else "Error")
        body = json.dumps(payload, sort_keys=True).encode()
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        writer.write("\r\n".join(headers).encode() + b"\r\n\r\n" + body)
        await writer.drain()

    # -- dispatch -----------------------------------------------------------

    def _endpoint_name(self, path: str) -> str:
        return path.split("?", 1)[0].strip("/") or "root"

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        name = self._endpoint_name(path)
        started = time.perf_counter()
        status, payload = await self._dispatch_inner(method, path, body)
        elapsed = time.perf_counter() - started
        self.metrics.record(name, status, elapsed)
        self.requests_served += 1
        return status, payload

    async def _dispatch_inner(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        route = path.split("?", 1)[0]
        handler = self._routes.get((method, route))
        if handler is None:
            if any(route == known for m, known in self._routes):
                return 405, {
                    "error": f"method {method} not allowed on {route}",
                    "allowed": sorted(
                        m for m, known in self._routes if known == route
                    ),
                }
            return 404, {"error": f"unknown endpoint {route!r}",
                         "endpoints": sorted({r for _, r in self._routes})}
        if method == "POST":
            try:
                request = json.loads(body.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self.metrics.malformed += 1
                return 400, {"error": f"malformed JSON body: {exc}"}
            if not isinstance(request, dict):
                self.metrics.malformed += 1
                return 400, {
                    "error": "request body must be a JSON object, got "
                    + type(request).__name__
                }
        else:
            request = {}
        try:
            payload = await asyncio.wait_for(
                handler(request), timeout=self.config.timeout_s
            )
            return 200, payload
        except asyncio.TimeoutError:
            self.metrics.timeouts += 1
            return 504, {
                "error": (
                    f"request timed out after {self.config.timeout_s:g}s; "
                    "the derivation continues in the background -- retry "
                    "to pick up the cached result"
                ),
                "timeout_s": self.config.timeout_s,
            }
        except _HttpError as exc:
            return exc.status, {"error": str(exc), **exc.extra}
        except ReproError as exc:
            status = http_status(exc)
            return status, {
                "error": str(exc),
                "type": type(exc).__name__,
            }
        except Exception as exc:  # noqa: BLE001 -- the daemon must survive
            return 500, {
                "error": f"internal error: {exc}",
                "type": type(exc).__name__,
            }

    # -- shared request plumbing -------------------------------------------

    async def _run_blocking(self, fn: Callable, *args: Any) -> Any:
        """Run a CPU-bound stage on the executor (cancellable wait only)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.executor, fn, *args)

    async def _design_for(
        self, request: Mapping[str, Any]
    ) -> tuple[Compilation, bool]:
        """Resolve a request's design: by fingerprint or source+design.
        The flag tells whether the store already held it."""
        if "fingerprint" in request and "source" not in request:
            return self.store.lookup(request["fingerprint"]), True
        if "source" not in request or "design" not in request:
            raise _HttpError(
                400,
                "request must carry either 'fingerprint' or both "
                "'source' and 'design'",
            )
        return await self.store.get_or_compile(
            request["source"], request["design"]
        )

    @staticmethod
    def _sizes_of(request: Mapping[str, Any]) -> dict:
        sizes = request.get("sizes")
        if not isinstance(sizes, Mapping) or not sizes:
            raise _HttpError(
                400,
                "request field 'sizes' must be a non-empty object "
                'of problem sizes, e.g. {"n": 8}',
            )
        return _size_env(sizes)

    @staticmethod
    def _int_of(
        request: Mapping[str, Any], key: str, default: int, minimum: int | None = None
    ) -> int:
        """An optional integer request field; anything but a JSON integer
        (a float, a boolean, a numeric string) or an out-of-range value is
        a 400 naming the field, not a silently truncated run."""
        value = request.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise _HttpError(
                400, f"request field {key!r} must be an integer, got {value!r}"
            )
        if minimum is not None and value < minimum:
            raise _HttpError(400, f"{key} must be >= {minimum}, got {value}")
        return value

    # -- endpoint handlers --------------------------------------------------

    async def _handle_healthz(self, request: Mapping[str, Any]) -> dict:
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "designs": len(self.store),
            "inflight": self.store.inflight,
            "requests_served": self.requests_served,
        }

    async def _handle_stats(self, request: Mapping[str, Any]) -> dict:
        return {
            "service": self.metrics.snapshot(),
            "store": self.store.snapshot(),
            **profiling.snapshot(),
        }

    async def _handle_compile(self, request: Mapping[str, Any]) -> dict:
        emit = request.get("emit", "none")
        if emit not in _EMITTERS:
            raise _HttpError(
                400, f"emit must be one of {_EMITTERS}, got {emit!r}"
            )
        entry, cached = await self._design_for(request)
        payload = {
            "fingerprint": entry.fingerprint,
            "name": entry.array.name,
            "summary": await self._run_blocking(entry.sp.summary),
            "cached": cached,
        }
        if emit != "none":
            payload["emitted"] = await self._run_blocking(entry.emit, emit)
            payload["emit"] = emit
        return payload

    async def _handle_execute(self, request: Mapping[str, Any]) -> dict:
        # every field is checked before the design is compiled and stored
        env = self._sizes_of(request)
        shape = request.get("array")
        if shape is not None:
            shape = array_extents(shape)
        backend = checked_backend(request.get("backend", "sim"), shape)
        seed = self._int_of(request, "seed", 0)
        batch = self._int_of(request, "batch", 1, minimum=1)
        check = request.get("check", True)
        if not isinstance(check, bool):
            raise _HttpError(
                400, f"request field 'check' must be a boolean, got {check!r}"
            )
        entry, _cached = await self._design_for(request)
        return await self._run_blocking(
            self._execute_design, entry, env, backend, seed, batch, shape, check
        )

    @staticmethod
    def _execute_design(
        entry: Compilation,
        env: dict,
        backend: str,
        seed: int,
        batch: int,
        shape: Any,
        check: bool,
    ) -> dict:
        done = entry.run(
            env, backend=backend, seed=seed, batch=batch, shape=shape, check=check
        )
        payload = {
            "fingerprint": entry.fingerprint,
            "backend": backend,
            "sizes": dict(env),
            "batch": batch,
            "elements": done.elements,
            "elapsed_s": round(done.seconds, 6),
            "results": [state_to_json(final) for final, _stats in done.runs],
            "checked": check,
        }
        if shape is not None:
            payload["array"] = list(shape)
        if check:
            payload["matched"] = done.mismatched == 0
            payload["mismatched_elements"] = done.mismatched
        return payload

    async def _handle_verify(self, request: Mapping[str, Any]) -> dict:
        env = self._sizes_of(request)
        backend = checked_backend(request.get("backend", "sim"))
        seed = self._int_of(request, "seed", 0)
        capacity = self._int_of(request, "capacity", 1, minimum=0)
        entry, _cached = await self._design_for(request)
        return await self._run_blocking(
            self._verify_design, entry, env, backend, seed, capacity
        )

    @staticmethod
    def _verify_design(
        entry: Compilation, env: dict, backend: str, seed: int, capacity: int
    ) -> dict:
        done = entry.run(env, backend=backend, seed=seed, channel_capacity=capacity)
        [(_final, stats)], [mismatches] = done.runs, done.mismatches
        payload = {
            "fingerprint": entry.fingerprint,
            "backend": backend,
            "sizes": dict(env),
            "matched": not mismatches,
            "mismatches": mismatches[:10],
            "mismatch_count": len(mismatches),
        }
        if stats is not None:
            payload["makespan"] = stats.makespan
            payload["messages"] = stats.total_messages
            payload["processes"] = stats.process_count
        return payload

    async def _handle_explore(self, request: Mapping[str, Any]) -> dict:
        source = request.get("source")
        if not isinstance(source, str) or not source.strip():
            raise _HttpError(
                400, "request field 'source' must be a non-empty string"
            )
        bound = self._int_of(request, "bound", 2)
        limit = self._int_of(request, "limit", 12)
        sizes = request.get("sizes")
        return await self._run_blocking(
            self._explore, source, bound, limit, sizes
        )

    @staticmethod
    def _explore(
        source: str, bound: int, limit: int, sizes: Any
    ) -> dict:
        program = parse_program(source)
        steps = synthesize_step(program, bound=bound)
        if not steps:
            raise ReproError(
                f"no minimal-makespan step candidate at bound {bound}; "
                "raise 'bound'"
            )
        step = steps[0]
        if sizes is None:
            envs = [{s: 4 for s in program.all_size_symbols}]
        elif isinstance(sizes, Mapping):
            envs = [_size_env(sizes)]
        elif isinstance(sizes, list) and all(isinstance(e, Mapping) for e in sizes):
            envs = [_size_env(e) for e in sizes]
        else:
            raise _HttpError(
                400, "'sizes' must be an object or a list of objects"
            )
        result = sweep_designs(
            program, step, envs, bound=1, limit=limit, jobs=1
        )
        t = result.timings
        return {
            "step": [list(r) for r in step.rows],
            "tables": [
                {"sizes": dict(env), "rows": [c.row() for c in costs]}
                for env, costs in result.by_size
            ],
            "timings": {
                "synthesis_s": round(t.synthesis_s, 6),
                "cost_s": round(t.cost_s, 6),
                "total_s": round(t.total_s, 6),
                "candidates": t.candidates,
                "compiled": t.compiled,
            },
        }

    async def _handle_fuzz_replay(self, request: Mapping[str, Any]) -> dict:
        ref = request.get("ref")
        if not isinstance(ref, str) or not ref.strip():
            raise _HttpError(
                400,
                "request field 'ref' must name a corpus reproducer "
                "(digest or file name)",
            )
        return await self._run_blocking(
            self._fuzz_replay, ref, self.config.corpus_dir
        )

    @staticmethod
    def _fuzz_replay(ref: str, corpus_dir: str) -> dict:
        path = find_reproducer(ref, corpus_dir)
        instance, config, data = load_reproducer(path)
        report = run_instance(instance, config)
        return {
            "file": path.name,
            "expect": data.get("expect", "fail"),
            "ok": report.ok,
            "checks_run": list(report.checks_run),
            "failures": [
                {"check": f.check, "message": f.message}
                for f in report.failures
            ],
        }
