"""Concurrency stress: coalescing, memo dedup, and bit-identity under load.

The proofs are counter-based and deterministic: a wrapped
``compile_systolic`` counts derivations directly, the store snapshot
proves request coalescing, and ``MEMO`` per-table deltas prove a repeat
derivation is served from cache rather than re-derived.  ``MEMO`` is
process-global, so every assertion is on deltas, never absolutes, and the
designs come from the fuzz generator so they are cold no matter which
tests ran earlier in the process.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.service.store as store_mod
from repro.core.memo import MEMO
from repro.core.scheme import compile_systolic
from repro.fuzz.generator import generate_instance
from repro.lang.parser import parse_program
from repro.verify.equivalence import random_inputs, run_backend

from repro.service.daemon import state_to_json
from tests.service.conftest import design_payload

REAL_COMPILE = store_mod.compile_systolic


def fresh_instances(count: int, start_seed: int = 9000):
    """``count`` distinct valid fuzz instances (deterministic in seed)."""
    out = []
    seed = start_seed
    while len(out) < count:
        instance = generate_instance(seed)
        seed += 1
        if instance is None:
            continue
        out.append(instance)
    return out


def memo_misses(snapshot_before, snapshot_after) -> int:
    total = 0
    for table, (_, misses) in snapshot_after.items():
        total += misses - snapshot_before.get(table, (0, 0))[1]
    return total


def memo_lookups(snapshot_before, snapshot_after) -> int:
    total = 0
    for table, (hits, misses) in snapshot_after.items():
        total += hits + misses - sum(snapshot_before.get(table, (0, 0)))
    return total


class TestCoalescing:
    def test_identical_requests_coalesce_to_one_derivation(
        self, service_run, monkeypatch
    ):
        instance = fresh_instances(1, start_seed=9100)[0]
        source = instance.program.to_source()
        design = design_payload(instance.array)
        calls = {"n": 0}

        def counting(program, array):
            calls["n"] += 1
            return REAL_COMPILE(program, array)

        monkeypatch.setattr(store_mod, "compile_systolic", counting)

        # one compile's worth of memo traffic, measured empirically (the
        # fuzz generator already warmed MEMO while validating the design,
        # and compile_systolic's lookup count is deterministic)
        snap_a = MEMO.counters_snapshot()
        REAL_COMPILE(instance.program, instance.array)
        snap_b = MEMO.counters_snapshot()
        single_compile_lookups = memo_lookups(snap_a, snap_b)
        assert single_compile_lookups > 0

        async def scenario(clients, service):
            before = MEMO.counters_snapshot()
            results = await asyncio.gather(
                *(c.compile(source, design) for c in clients)
            )
            after_first = MEMO.counters_snapshot()
            assert all(status == 200 for status, _ in results)
            # every response is bit-identical (modulo the 'cached' marker,
            # which flips once the entry lands in the store)
            payloads = [
                {k: v for k, v in payload.items() if k != "cached"}
                for _, payload in results
            ]
            assert all(p == payloads[0] for p in payloads)
            # exactly one derivation ran for 8 concurrent identical requests
            assert calls["n"] == 1
            snap = service.store.snapshot()
            assert snap["misses"] == 1
            assert snap["hits"] + snap["coalesced"] == len(clients) - 1
            # the whole batch cost exactly ONE compile's memo traffic --
            # coalesced, not 8 duplicated derivations
            assert memo_lookups(before, after_first) == single_compile_lookups
            assert memo_misses(before, after_first) == 0

            # drop the store entry and fire the same batch again: one more
            # compile_systolic call, same single-compile memo traffic, and
            # still zero misses -- everything re-served from the memo
            service.store.clear()
            before_second = MEMO.counters_snapshot()
            results2 = await asyncio.gather(
                *(c.compile(source, design) for c in clients)
            )
            after_second = MEMO.counters_snapshot()
            assert all(status == 200 for status, _ in results2)
            assert calls["n"] == 2
            assert memo_lookups(before_second, after_second) == single_compile_lookups
            assert memo_misses(before_second, after_second) == 0
            # and the payloads match the first batch bit for bit
            payloads2 = [
                {k: v for k, v in payload.items() if k != "cached"}
                for _, payload in results2
            ]
            assert payloads2 == payloads

        service_run(scenario, clients=8)

    def test_distinct_designs_each_compile_once(self, service_run, monkeypatch):
        instances = fresh_instances(4, start_seed=9200)
        requests = [
            (inst.program.to_source(), design_payload(inst.array))
            for inst in instances
        ]
        calls = {"n": 0}

        def counting(program, array):
            calls["n"] += 1
            return REAL_COMPILE(program, array)

        monkeypatch.setattr(store_mod, "compile_systolic", counting)

        async def scenario(clients, service):
            # two interleaved requests per design, all concurrent
            jobs = []
            for i, client in enumerate(clients):
                source, design = requests[i % len(requests)]
                jobs.append(client.compile(source, design))
            results = await asyncio.gather(*jobs)
            assert all(status == 200 for status, _ in results)
            assert calls["n"] == len(requests)
            assert len(service.store) == len(requests)
            assert service.store.snapshot()["misses"] == len(requests)
            # same-design responses are identical, distinct designs differ
            by_design = {}
            for i, (_, payload) in enumerate(results):
                by_design.setdefault(i % len(requests), []).append(
                    {k: v for k, v in payload.items() if k != "cached"}
                )
            for group in by_design.values():
                assert all(p == group[0] for p in group)
            fingerprints = {g[0]["fingerprint"] for g in by_design.values()}
            assert len(fingerprints) == len(requests)

        service_run(scenario, clients=8)


class TestBitIdentityUnderLoad:
    def test_concurrent_execute_matches_serial_library_path(self, service_run):
        instances = fresh_instances(3, start_seed=9300)
        expected = []
        for inst in instances:
            source = inst.program.to_source()
            program = parse_program(source)  # the daemon's parse of it
            sp = compile_systolic(program, inst.array)
            inputs = random_inputs(program, inst.env, seed=0)
            [(final, _)] = run_backend(sp, inst.env, [inputs], backend="sim")
            expected.append(state_to_json(final))

        async def scenario(clients, service):
            jobs = []
            for i, client in enumerate(clients):
                inst = instances[i % len(instances)]
                jobs.append(
                    client.execute(
                        source=inst.program.to_source(),
                        design=design_payload(inst.array),
                        sizes=inst.env,
                        backend="sim",
                    )
                )
            results = await asyncio.gather(*jobs)
            for i, (status, payload) in enumerate(results):
                assert status == 200, payload
                assert payload["matched"] is True
                assert payload["results"] == [expected[i % len(instances)]]

        service_run(scenario, clients=6)

    def test_interleaved_endpoints_stay_consistent(self, service_run):
        instance = fresh_instances(1, start_seed=9400)[0]
        source = instance.program.to_source()
        design = design_payload(instance.array)

        async def scenario(clients, service):
            a, b, c, d = clients
            results = await asyncio.gather(
                a.compile(source, design),
                b.verify(source=source, design=design, sizes=instance.env),
                c.execute(source=source, design=design, sizes=instance.env),
                d.healthz(),
            )
            (s1, compiled), (s2, verified), (s3, executed), (s4, health) = results
            assert (s1, s2, s3, s4) == (200, 200, 200, 200)
            assert verified["matched"] is True
            assert executed["matched"] is True
            assert (
                compiled["fingerprint"]
                == verified["fingerprint"]
                == executed["fingerprint"]
            )
            # three endpoints raced for one design: exactly one compile
            snap = service.store.snapshot()
            assert snap["misses"] == 1
            assert snap["hits"] + snap["coalesced"] == 2

        service_run(scenario, clients=4)
