"""The network-plan cache: keyed by content, bounded, thread-safe.

A plan is determined by the source program, the derived symbolic
quantities and the problem size, so two compiles of one design share one
plan.  A planted mutation keeps the source and array but bumps one derived
form, so it must get a plan of its own -- serving it the clean plan would
blind the differential harness.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import weakref

import pytest

from repro.core import compile_systolic
from repro.fuzz.harness import apply_mutation
from repro.lang import run_sequential
from repro.runtime import network
from repro.runtime.network import execute, network_plan, plan_stats
from repro.systolic import all_paper_designs
from repro.systolic.designs import matrix_product_program, matmul_design_e2
from repro.util.errors import RuntimeSimulationError
from repro.verify.equivalence import random_inputs

D1 = all_paper_designs()[0]


@pytest.fixture(autouse=True)
def empty_cache():
    network.PLAN_CACHE.clear()


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in ("builds", "reuses", "evictions")}


def test_fresh_compiles_of_one_design_share_a_plan():
    _, prog, array = D1
    env = {"n": 5}
    before = plan_stats()
    first = network_plan(compile_systolic(prog, array), env)
    mid = plan_stats()
    second = network_plan(compile_systolic(prog, array), env)
    after = plan_stats()
    assert first is second
    assert _delta(before, mid) == {"builds": 1, "reuses": 0, "evictions": 0}
    assert _delta(mid, after) == {"builds": 0, "reuses": 1, "evictions": 0}
    assert after["size"] == 1


def test_different_env_gets_a_different_plan():
    _, prog, array = D1
    sp = compile_systolic(prog, array)
    assert network_plan(sp, {"n": 3}) is not network_plan(sp, {"n": 4})
    assert plan_stats()["size"] == 2


@pytest.mark.parametrize(
    "mutation", ["drain_plus_one", "soak_plus_one", "count_plus_one", "pass_plus_one"]
)
def test_mutant_gets_its_own_plan_and_still_fails(mutation):
    _, prog, array = D1
    env = {"n": 3}
    inputs = random_inputs(prog, env, seed=1)
    clean = compile_systolic(prog, array)
    execute(clean, env, inputs)  # the clean plan is now cached
    mutant = apply_mutation(compile_systolic(prog, array), mutation)
    assert network_plan(mutant, env) is not network_plan(clean, env)
    with pytest.raises(RuntimeSimulationError, match="conservation violated"):
        execute(mutant, env, inputs)


def test_bounded_and_releases_programs():
    """More distinct programs than the bound: old plans are evicted and the
    programs they held are collected (the cache once pinned them all)."""
    (_, prog, d1), (_, _, d2) = all_paper_designs()[:2]
    # a copy no memo holds: the design memo keeps the compiled program itself
    sp = dataclasses.replace(compile_systolic(prog, d1))
    first = weakref.ref(sp)
    execute(sp, {"n": 1}, random_inputs(prog, {"n": 1}))
    del sp
    before = plan_stats()
    # small sizes of two designs: distinct keys without big networks
    jobs = [(d1, n) for n in range(2, 35)] + [(d2, n) for n in range(1, 35)]
    for array, n in jobs:
        env = {"n": n}
        execute(compile_systolic(prog, array), env, random_inputs(prog, env))
    gc.collect()
    after = plan_stats()
    limit = network.PLAN_CACHE.capacity
    assert after["size"] == limit
    assert after["evictions"] - before["evictions"] == len(jobs) + 1 - limit
    assert first() is None


def test_concurrent_executions_of_one_design():
    prog, array = matrix_product_program(), matmul_design_e2()
    env = {"n": 3}
    inputs = random_inputs(prog, env, seed=2)
    want = run_sequential(prog, env, inputs)
    results, errors = [], []
    barrier = threading.Barrier(8)

    def worker():
        try:
            barrier.wait()
            final, _ = execute(compile_systolic(prog, array), env, inputs)
            results.append(final)
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 8
    assert all(final == want for final in results)
    assert plan_stats()["size"] == 1


def test_plan_checks_process_names_once_and_instantiation_never(monkeypatch):
    _, prog, array = D1
    plan = network_plan(compile_systolic(prog, array), {"n": 4})
    assert plan.names == {name for name, _position, _factory in plan.processes}
    assert len(plan.names) == len(plan.processes)

    def spawn(self, name, gen):
        raise AssertionError("instantiate re-checks a process name")

    monkeypatch.setattr(network.Scheduler, "spawn", spawn)
    net = plan.instantiate()
    assert net.scheduler._names is plan.names
    assert net.scheduler.process_names == tuple(
        name for name, _position, _factory in plan.processes
    )


def test_a_duplicate_process_name_fails_the_plan(monkeypatch):
    _, prog, array = D1
    build = network._PlanBuilder.build

    def build_with_duplicate(self):
        build(self)
        self.plan.processes.append(self.plan.processes[0])

    monkeypatch.setattr(network._PlanBuilder, "build", build_with_duplicate)
    with pytest.raises(RuntimeSimulationError, match="duplicate process name"):
        network.NetworkPlan(compile_systolic(prog, array), {"n": 3})
