"""A minimal asyncio JSON client for the compile service.

Used by the in-process test fixture and by any script that wants to talk
to a running ``repro serve`` daemon without pulling in an HTTP library.
One client holds one keep-alive connection (reconnecting transparently
when the server closed it); independent concurrency is achieved by
creating several clients.

Every call returns ``(status, payload)`` -- the client never raises on
HTTP-level errors, because the tests exist precisely to assert on them.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Mapping

__all__ = ["ServiceClient"]


class ServiceClient:
    """One keep-alive connection to a compile service daemon."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        *,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict]:
        """One round-trip; reconnects once if the kept-alive peer vanished."""
        for attempt in (0, 1):
            if self._writer is None:
                await self._connect()
            try:
                return await self._roundtrip(method, path, payload, headers)
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                BrokenPipeError,
            ):
                await self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    async def _roundtrip(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None,
        headers: Mapping[str, str] | None,
    ) -> tuple[int, dict]:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode()
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(body)}",
            "Content-Type: application/json",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self._writer.write("\r\n".join(lines).encode() + b"\r\n\r\n" + body)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        response_headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        return status, (json.loads(raw) if raw else {})

    # -- convenience wrappers ----------------------------------------------

    async def healthz(self) -> tuple[int, dict]:
        return await self.request("GET", "/healthz")

    async def stats(self) -> tuple[int, dict]:
        return await self.request("GET", "/stats")

    async def compile(
        self, source: str | None = None, design: dict | None = None, **extra
    ) -> tuple[int, dict]:
        payload = dict(extra)
        if source is not None:
            payload["source"] = source
        if design is not None:
            payload["design"] = design
        return await self.request("POST", "/compile", payload)

    async def execute(self, **payload) -> tuple[int, dict]:
        return await self.request("POST", "/execute", payload)

    async def verify(self, **payload) -> tuple[int, dict]:
        return await self.request("POST", "/verify", payload)

    async def explore(self, **payload) -> tuple[int, dict]:
        return await self.request("POST", "/explore", payload)

    async def fuzz_replay(self, ref: str, **extra) -> tuple[int, dict]:
        return await self.request(
            "POST", "/fuzz-replay", {"ref": ref, **extra}
        )
