"""Regression pins for the campaign throughput engine.

The fuzz pipeline compiles each instance once (``CompiledInstance``), wires
its process network once (``NetworkPlan``), and switches tracing/timing off
when nobody reads them.  Each of those reuse paths is an opportunity to
silently lose a guarantee -- deadlock detection, trace fidelity, Lamport
stats -- so this module proves they all survive:

* the historically-deadlocking corpus pin ``seed_2c6a5806697e`` stays green
  through the pre-bound plan path, and a *planted* deadlock is still caught
  on every instantiation of a reused plan;
* trace-on / trace-off / timing-off runs produce identical final values
  (and trace-on does not perturb the stats);
* the pipeline counters show one compile and one render per harness run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fuzz.compiled import CompiledInstance, stats as pipeline_stats
from repro.fuzz.corpus import load_reproducer
from repro.fuzz.harness import HarnessConfig, run_instance
from repro.runtime.network import execute, network_plan, plan_stats
from repro.runtime.trace import attach_tracer
from repro.util.errors import DeadlockError

CORPUS = Path(__file__).resolve().parent.parent / "fuzz_corpus"

#: the pin that once deadlocked at capacity 1 (one-stream-at-a-time soak)
PINNED_DEADLOCK_CASE = CORPUS / "seed_2c6a5806697e.json"


@pytest.fixture()
def pinned_instance():
    instance, _config, _raw = load_reproducer(PINNED_DEADLOCK_CASE)
    return instance


class TestPreBoundDeadlockDetection:
    def test_pinned_case_clean_through_plan_path(self, pinned_instance):
        """The historical deadlocker runs clean via plan -> instantiate."""
        compiled = CompiledInstance.build(pinned_instance)
        plan = compiled.plan()
        for _ in range(2):  # the second run reuses the cached plan wiring
            net = plan.instantiate(inputs=compiled.inputs(0))
            net.run()
            for splan in compiled.sp.streams:
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
        compiled = CompiledInstance.build(
            pinned_instance, mutate="soak_plus_one"
        )
        plan = compiled.plan()
        for _ in range(2):
            net = plan.instantiate(inputs=compiled.inputs(0))
            with pytest.raises(DeadlockError, match="cannot progress"):
                net.run()

    def test_plan_is_cached_per_program(self, pinned_instance):
        compiled = CompiledInstance.build(pinned_instance)
        before = plan_stats()
        first = compiled.plan()
        second = compiled.plan()
        after = plan_stats()
        assert first is second
        assert after["reuses"] > before["reuses"]


class TestTraceAndTimingModes:
    def test_trace_off_and_timing_off_match_trace_on(self, pinned_instance):
        compiled = CompiledInstance.build(pinned_instance)
        sp, env = compiled.sp, pinned_instance.env
        inputs = compiled.inputs(0)

        plain, stats_plain = execute(sp, env, inputs)
        untimed, stats_untimed = execute(sp, env, inputs, timing=False)

        net = compiled.plan().instantiate(inputs=inputs)
        trace = attach_tracer(net)
        stats_traced = net.run()
        traced = net.host.final

        assert plain == untimed == traced
        # Tracing must observe, never perturb: identical Lamport stats.
        assert stats_traced.makespan == stats_plain.makespan
        assert stats_traced.total_messages == stats_plain.total_messages
        assert len(trace.events) > 0
        # timing=False skips the clock entirely; everything else is equal.
        assert stats_untimed.makespan == 0
        assert stats_untimed.total_messages == stats_plain.total_messages


class TestCompiledInstanceReuse:
    def test_one_compile_one_render_per_harness_run(self, pinned_instance):
        """A full harness pass builds the pipeline exactly once.

        The sampled engine checks (all but the pool sweep) are forced on so
        every consumer of the pipeline runs; the counters must show a single
        compile, render and oracle build with the rest arriving as reuses.
        """
        config = HarnessConfig(
            check_threaded=True,
            check_npgen=True,
            check_capacity=True,
            check_partition=True,
        )
        before = pipeline_stats()
        report = run_instance(pinned_instance, config)
        after = pipeline_stats()
        assert report.ok, f"pinned case went red: {report}"
        assert after["builds"] - before["builds"] == 1
        assert after["render_builds"] - before["render_builds"] == 1
        assert after["oracle_builds"] - before["oracle_builds"] == 1
        assert after["oracle_reuses"] - before["oracle_reuses"] >= 1

    def test_prebuilt_pipeline_is_consumed(self, pinned_instance):
        """run_instance reuses a matching prebuilt CompiledInstance."""
        compiled = CompiledInstance.build(pinned_instance)
        before = pipeline_stats()
        report = run_instance(pinned_instance, compiled=compiled)
        after = pipeline_stats()
        assert report.ok
        assert after["builds"] - before["builds"] == 0

    def test_mismatched_pipeline_is_rebuilt(self, pinned_instance):
        """A pipeline built for another mutation must not be trusted."""
        compiled = CompiledInstance.build(pinned_instance, mutate=None)
        config = HarnessConfig(mutate="drain_plus_one")
        before = pipeline_stats()
        report = run_instance(pinned_instance, config, compiled=compiled)
        after = pipeline_stats()
        assert not report.ok  # the planted bug must still be caught
        assert after["builds"] - before["builds"] == 1
