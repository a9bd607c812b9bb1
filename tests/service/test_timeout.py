"""Timeout-cancellation recovery: a 504 never cancels the derivation."""

from __future__ import annotations

import asyncio
import time

import pytest

import repro.service.store as store_mod
from repro.service import ServiceConfig
from repro.util.errors import ReproError
from tests.service.conftest import paper_requests

REAL_COMPILE = store_mod.compile_systolic


class TestTimeoutConfig:
    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout_s):
        with pytest.raises(ReproError, match="timeout must be positive"):
            ServiceConfig(timeout_s=timeout_s)


class TestTimeoutRecovery:
    def test_timeout_never_cancels_the_derivation(
        self, service_run, monkeypatch
    ):
        _, source, design = paper_requests()[3]

        def slow(program, array):
            time.sleep(0.3)
            return REAL_COMPILE(program, array)

        monkeypatch.setattr(store_mod, "compile_systolic", slow)

        async def scenario(client, service):
            status, payload = await client.compile(source, design)
            assert status == 504
            assert "retry to pick up the cached result" in payload["error"]
            assert payload["timeout_s"] == pytest.approx(0.05)
            assert service.metrics.timeouts == 1
            # the derivation is still running in the background; wait for
            # it to publish, then the very same request is a cache hit
            for _ in range(200):
                if service.store.inflight == 0:
                    break
                await asyncio.sleep(0.01)
            assert service.store.inflight == 0
            assert len(service.store) == 1
            status, payload = await client.compile(source, design)
            assert status == 200
            assert payload["cached"] is True
            snap = service.store.snapshot()
            assert snap["misses"] == 1  # compiled exactly once
            assert snap["hits"] == 1

        service_run(scenario, timeout_s=0.05)

    def test_coalesced_waiters_share_one_timeout_story(
        self, service_run, monkeypatch
    ):
        _, source, design = paper_requests()[3]

        def slow(program, array):
            time.sleep(0.3)
            return REAL_COMPILE(program, array)

        monkeypatch.setattr(store_mod, "compile_systolic", slow)

        async def scenario(clients, service):
            results = await asyncio.gather(
                *(c.compile(source, design) for c in clients)
            )
            assert [status for status, _ in results] == [504] * len(clients)
            snap = service.store.snapshot()
            assert snap["misses"] == 1
            assert snap["coalesced"] == len(clients) - 1
            for _ in range(200):
                if service.store.inflight == 0:
                    break
                await asyncio.sleep(0.01)
            status, payload = await clients[0].compile(source, design)
            assert status == 200
            assert payload["cached"] is True
            assert service.store.snapshot()["misses"] == 1

        service_run(scenario, clients=3, timeout_s=0.05)
