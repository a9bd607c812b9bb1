"""In-process harness for the compile-service tests.

``service_run`` boots a real daemon on an ephemeral loopback port inside
``asyncio.run``, hands the scenario coroutine a connected client (or a
factory for many), and tears everything down -- no subprocesses, no port
collisions, deterministic counters.  Service state (design store and
metrics) is fresh per scenario; the *global* caches underneath
(``MEMO``, module/schedule caches) are process-wide by design, so tests
assert on counter deltas, never absolutes.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import CompileService, ServiceConfig, ServiceClient
from repro.systolic.designs import all_paper_designs


def design_payload(array) -> dict:
    """The JSON design-spec document for a ``SystolicArray``."""
    return {
        "step": [list(r) for r in array.step.rows],
        "place": [list(r) for r in array.place.rows],
        "loading": {
            name: [int(c) for c in vec]
            for name, vec in sorted(array.loading_vectors.items())
        },
        "name": array.name,
    }


def paper_requests() -> list[tuple[str, str, dict]]:
    """``(exp_id, source_text, design_spec)`` for the four paper designs."""
    return [
        (exp_id, program.to_source(), design_payload(array))
        for exp_id, program, array in all_paper_designs()
    ]


@pytest.fixture()
def service_run():
    """Run ``scenario(client, service)`` against a fresh in-process daemon.

    Keyword arguments become :class:`ServiceConfig` fields.  With
    ``clients=N`` (N > 1) the scenario receives a list of N independent
    connections instead of a single client.
    """

    def runner(scenario, *, clients: int = 1, **config_kwargs):
        async def main():
            service = CompileService(ServiceConfig(**config_kwargs))
            await service.start()
            pool = [
                ServiceClient("127.0.0.1", service.port)
                for _ in range(clients)
            ]
            try:
                target = pool[0] if clients == 1 else pool
                return await scenario(target, service)
            finally:
                for client in pool:
                    await client.close()
                await service.stop()

        return asyncio.run(main())

    return runner
