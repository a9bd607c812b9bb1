"""Regression pins for the campaign throughput engine.

The fuzz pipeline compiles each instance once (one ``Compilation``), wires
its process network once (``NetworkPlan``), and attaches a tracer only
when somebody reads it.  Each of those reuse paths is an opportunity to
silently lose a guarantee -- deadlock detection, trace fidelity, Lamport
stats -- so this module proves they all survive:

* the historically-deadlocking corpus pin ``seed_2c6a5806697e`` stays green
  through the pre-bound plan path, and a *planted* deadlock is still caught
  on every instantiation of a reused plan;
* trace-on / trace-off runs produce identical final values (and trace-on
  does not perturb the stats);
* spies show one compile, one oracle run per input seed and two renders
  (the handle's and the pickled copy's) for each harness run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.fuzz.harness as harness_mod
from repro.compilation import Compilation
from repro.core.scheme import compile_systolic
from repro.fuzz.corpus import load_reproducer
from repro.fuzz.harness import HarnessConfig, apply_mutation, run_instance
from repro.runtime.network import execute, network_plan, plan_stats
from repro.runtime.trace import attach_tracer
from repro.target import pygen
from repro.util.errors import DeadlockError
from repro.verify.equivalence import random_inputs

CORPUS = Path(__file__).resolve().parent.parent / "fuzz_corpus"

#: the pin that once deadlocked at capacity 1 (one-stream-at-a-time soak)
PINNED_DEADLOCK_CASE = CORPUS / "seed_2c6a5806697e.json"


@pytest.fixture()
def pinned_instance():
    instance, _config, _raw = load_reproducer(PINNED_DEADLOCK_CASE)
    return instance


def compiled(instance, mutate=None) -> Compilation:
    """The instance's handle, built the way the harness builds it."""
    sp = apply_mutation(compile_systolic(instance.program, instance.array), mutate)
    return Compilation(instance.program, instance.array, sp)


def seed0_inputs(instance):
    return random_inputs(instance.program, instance.env, seed=0)


@pytest.fixture()
def calls(monkeypatch):
    """Call counts of the pipeline stages a harness run must not repeat."""
    counts = {}

    def spy(module, name):
        real = getattr(module, name)
        key = f"{module.__name__.rpartition('.')[2]}.{name}"
        counts[key] = 0

        def counting(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    spy(harness_mod, "compile_systolic")
    spy(harness_mod, "run_sequential")
    spy(pygen, "render_python")
    return counts


class TestPreBoundDeadlockDetection:
    def test_pinned_case_clean_through_plan_path(self, pinned_instance):
        """The historical deadlocker runs clean via plan -> instantiate."""
        handle = compiled(pinned_instance)
        plan = network_plan(handle.sp, pinned_instance.env)
        for _ in range(2):  # the second run reuses the cached plan wiring
            net = plan.instantiate(inputs=seed0_inputs(pinned_instance))
            net.run()
            for splan in handle.sp.streams:
                net.host.check_full_recovery(splan.name)

    def test_planted_deadlock_caught_on_every_instantiation(
        self, pinned_instance
    ):
        """A real deadlock fires through a pre-bound plan -- repeatedly.

        ``soak_plus_one`` makes a compute node expect one more moving value
        than its producer sends: a guaranteed blocked ``Recv``.  The plan is
        instantiated twice to prove that reuse hands out *fresh* process
        state each time rather than generators poisoned by the first crash.
        """
        handle = compiled(pinned_instance, mutate="soak_plus_one")
        plan = network_plan(handle.sp, pinned_instance.env)
        for _ in range(2):
            net = plan.instantiate(inputs=seed0_inputs(pinned_instance))
            with pytest.raises(DeadlockError, match="cannot progress"):
                net.run()

    def test_plan_is_cached_per_program(self, pinned_instance):
        handle = compiled(pinned_instance)
        before = plan_stats()
        first = network_plan(handle.sp, pinned_instance.env)
        second = network_plan(handle.sp, pinned_instance.env)
        after = plan_stats()
        assert first is second
        assert after["reuses"] > before["reuses"]


class TestTraceAndTimingModes:
    def test_trace_off_matches_trace_on(self, pinned_instance):
        sp, env = compiled(pinned_instance).sp, pinned_instance.env
        inputs = seed0_inputs(pinned_instance)

        plain, stats_plain = execute(sp, env, inputs)

        net = network_plan(sp, env).instantiate(inputs=inputs)
        trace = attach_tracer(net)
        stats_traced = net.run()
        traced = net.host.final

        assert plain == traced
        # Tracing must observe, never perturb: identical Lamport stats.
        assert stats_traced.makespan == stats_plain.makespan
        assert stats_traced.total_messages == stats_plain.total_messages
        assert len(trace.events) > 0


class TestCompileOnce:
    def test_one_compile_one_render_per_harness_run(self, pinned_instance, calls):
        """A full harness pass compiles and renders exactly once.

        The sampled engine checks (all but the pool sweep) are forced on so
        every consumer of the handle runs.  The oracle runs once per input
        seed, pygen runs every seed on the handle's one rendering, and the
        only other render is the pickled copy's.
        """
        config = HarnessConfig(
            input_sets=2,
            check_npgen=True,
            check_capacity=True,
            check_partition=True,
        )
        report = run_instance(pinned_instance, config)
        assert report.ok, f"pinned case went red: {report}"
        assert calls == {
            "harness.compile_systolic": 1,
            "harness.run_sequential": 2,
            "pygen.render_python": 2,
        }

    def test_handle_runs_pygen_on_its_one_rendering(self, pinned_instance, calls):
        handle = compiled(pinned_instance)
        for batch in (3, 1):
            done = handle.run(pinned_instance.env, backend="pygen", batch=batch)
            assert done.mismatched == 0
        assert calls["pygen.render_python"] == 1

    def test_planted_mutation_is_caught_with_one_compile(
        self, pinned_instance, calls
    ):
        """The harness plants the configured bug into its own one handle."""
        report = run_instance(pinned_instance, HarnessConfig(mutate="drain_plus_one"))
        assert not report.ok  # the planted bug must still be caught
        assert calls["harness.compile_systolic"] == 1
        assert calls["harness.run_sequential"] == 1
