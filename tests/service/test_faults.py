"""Fault injection: the daemon survives pipeline failures un-poisoned.

Each test monkeypatches one pipeline stage to blow up, asserts the
structured 5xx body, then proves the daemon (a) keeps serving and (b) did
not cache the failure -- the same request succeeds once the fault clears.
"""

from __future__ import annotations

import pytest

import repro.compilation as compilation_mod
import repro.service.store as store_mod
from tests.service.conftest import paper_requests

REAL_COMPILE = store_mod.compile_systolic
REAL_EXECUTE = compilation_mod.run_backend


class TestCompileFaults:
    def test_compile_fault_is_structured_500_and_not_cached(
        self, service_run, monkeypatch
    ):
        _, source, design = paper_requests()[0]
        fail = {"on": True}

        def flaky(program, array):
            if fail["on"]:
                raise RuntimeError("injected compile fault")
            return REAL_COMPILE(program, array)

        monkeypatch.setattr(store_mod, "compile_systolic", flaky)

        async def scenario(client, service):
            status, payload = await client.compile(source, design)
            assert status == 500
            assert payload["type"] == "RuntimeError"
            assert "injected compile fault" in payload["error"]
            # the daemon keeps serving
            status, health = await client.healthz()
            assert status == 200
            assert health["status"] == "ok"
            # the failure was counted and NOT cached
            assert service.store.failures == 1
            assert len(service.store) == 0
            assert service.store.inflight == 0
            # fault clears: the very same request now compiles from scratch
            fail["on"] = False
            status, payload = await client.compile(source, design)
            assert status == 200
            assert payload["cached"] is False
            assert service.store.snapshot()["misses"] == 2

        service_run(scenario)

    def test_concurrent_waiters_all_see_the_failure(
        self, service_run, monkeypatch
    ):
        import asyncio
        import time

        _, source, design = paper_requests()[1]
        fail = {"on": True}

        def flaky(program, array):
            if fail["on"]:
                # linger long enough for every concurrent request to join
                # the in-flight future before the failure lands
                time.sleep(0.1)
                raise RuntimeError("injected compile fault")
            return REAL_COMPILE(program, array)

        monkeypatch.setattr(store_mod, "compile_systolic", flaky)

        async def scenario(clients, service):
            results = await asyncio.gather(
                *(c.compile(source, design) for c in clients)
            )
            statuses = sorted(status for status, _ in results)
            assert statuses == [500] * len(clients)
            # one coalesced compile attempt, one recorded failure
            assert service.store.failures == 1
            snap = service.store.snapshot()
            assert snap["misses"] == 1
            assert snap["coalesced"] == len(clients) - 1
            fail["on"] = False
            status, payload = await clients[0].compile(source, design)
            assert status == 200

        service_run(scenario, clients=4)


class TestExecuteFaults:
    def test_execute_fault_is_structured_500_store_survives(
        self, service_run, monkeypatch
    ):
        _, source, design = paper_requests()[0]
        fail = {"on": True}

        def flaky(sp, env, batch, **options):
            if fail["on"]:
                raise RuntimeError("injected execute fault")
            return REAL_EXECUTE(sp, env, batch, **options)

        monkeypatch.setattr(compilation_mod, "run_backend", flaky)

        async def scenario(client, service):
            status, payload = await client.execute(
                source=source, design=design, sizes={"n": 3}
            )
            assert status == 500
            assert payload["type"] == "RuntimeError"
            assert "injected execute fault" in payload["error"]
            # compilation itself succeeded and stayed cached
            assert len(service.store) == 1
            assert service.store.failures == 0
            # the daemon keeps serving, and the cached design still executes
            fail["on"] = False
            status, payload = await client.execute(
                source=source, design=design, sizes={"n": 3}
            )
            assert status == 200
            assert payload["matched"] is True
            assert service.store.snapshot()["hits"] >= 1

        service_run(scenario)

    def test_library_error_maps_through_http_status(
        self, service_run, monkeypatch
    ):
        from repro.util.errors import DeadlockError

        _, source, design = paper_requests()[0]

        def deadlock(sp, env, batch, **options):
            raise DeadlockError("injected deadlock at step 3")

        monkeypatch.setattr(compilation_mod, "run_backend", deadlock)

        async def scenario(client, service):
            status, payload = await client.execute(
                source=source, design=design, sizes={"n": 3}
            )
            assert status == 500
            assert payload["type"] == "DeadlockError"
            assert "injected deadlock" in payload["error"]
            endpoint = service.metrics.endpoints["execute"]
            assert endpoint.errors_5xx == 1

        service_run(scenario)


class TestFaultMetrics:
    def test_5xx_and_recovery_are_both_recorded(self, service_run, monkeypatch):
        _, source, design = paper_requests()[2]
        fail = {"on": True}

        def flaky(program, array):
            if fail["on"]:
                raise RuntimeError("boom")
            return REAL_COMPILE(program, array)

        monkeypatch.setattr(store_mod, "compile_systolic", flaky)

        async def scenario(client, service):
            await client.compile(source, design)
            fail["on"] = False
            await client.compile(source, design)
            endpoint = service.metrics.endpoints["compile"]
            assert endpoint.requests == 2
            assert endpoint.errors_5xx == 1
            assert endpoint.latency.total == 2
            stats_status, stats = await client.stats()
            assert stats_status == 200
            snap = stats["service"]["endpoints"]["compile"]
            assert snap["errors_5xx"] == 1

        service_run(scenario)
