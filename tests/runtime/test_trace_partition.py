"""Tests for execution tracing and the finite-machine partition extension."""

import pytest

from repro import compile_systolic, run_sequential
from repro.extensions import (
    band_edges,
    partitioned_execute,
    partitioned_schedule,
)
from repro.extensions.partition import PARTITION_CACHE, band_of
from repro.fuzz.harness import apply_mutation
from repro.geometry import Point
from repro.runtime import build_network
from repro.runtime.network import network_plan
from repro.runtime.trace import Trace, TraceEvent, attach_tracer, trace_run
from repro.systolic import all_paper_designs
from repro.util.errors import (
    ReproError,
    RuntimeSimulationError,
    SystolicSpecError,
)
from repro.verify import random_inputs

ALL = all_paper_designs()


def setup_design(idx=0, n=3, seed=0):
    exp_id, prog, array = ALL[idx]
    sp = compile_systolic(prog, array)
    inputs = random_inputs(prog, {"n": n}, seed=seed)
    oracle = run_sequential(prog, {"n": n}, inputs)
    return sp, prog, inputs, oracle, n


class TestTrace:
    def test_trace_run_matches_plain_run(self):
        sp, prog, inputs, oracle, n = setup_design()
        net = build_network(sp, {"n": n}, inputs)
        stats, trace = trace_run(net)
        assert net.host.final == oracle
        assert trace.makespan == stats.makespan

    def test_event_count_matches_requests(self):
        sp, prog, inputs, oracle, n = setup_design()
        net = build_network(sp, {"n": n}, inputs)
        stats, trace = trace_run(net)
        # every completed request produced exactly one event
        assert len(trace.events) == sum(
            len(evs) for evs in trace.per_process_events().values()
        )
        assert len(trace.events) > stats.total_messages  # sends+recvs+pars

    def test_busy_intervals_ordered(self):
        sp, prog, inputs, oracle, n = setup_design(idx=2)
        net = build_network(sp, {"n": n}, inputs)
        _, trace = trace_run(net)
        for lo, hi in trace.busy_intervals().values():
            assert 0 <= lo <= hi <= trace.makespan

    def test_utilisation_bounds(self):
        sp, prog, inputs, oracle, n = setup_design(idx=2)
        net = build_network(sp, {"n": n}, inputs)
        _, trace = trace_run(net)
        for u in trace.utilisation().values():
            assert u > 0

    def test_wavefront_sums_to_events(self):
        sp, prog, inputs, oracle, n = setup_design()
        net = build_network(sp, {"n": n}, inputs)
        _, trace = trace_run(net)
        assert sum(trace.wavefront().values()) == len(trace.events)

    def test_summary_text(self):
        t = Trace([TraceEvent("P(0,)", 3, "send"), TraceEvent("P(0,)", 5, "recv")])
        assert "2 events" in t.summary()
        assert t.compute_processes() == ["P(0,)"]


class TestInstrumentationIdempotence:
    """Regression: attaching a tracer twice used to stack wrapper on
    wrapper, double-instrumenting every process and double-counting its
    events."""

    def test_double_attach_does_not_double_count(self):
        sp, prog, inputs, oracle, n = setup_design()
        baseline_net = build_network(sp, {"n": n}, inputs)
        _, baseline = trace_run(baseline_net)

        net = build_network(sp, {"n": n}, inputs)
        first = attach_tracer(net)
        second = attach_tracer(net)  # replaces, must not stack
        net.run()
        assert len(second.events) == len(baseline.events)
        assert first.events == []  # superseded tracer receives nothing
        assert net.host.final == oracle

    def test_trace_run_twice_on_one_network(self):
        sp, prog, inputs, oracle, n = setup_design()
        net = build_network(sp, {"n": n}, inputs)
        stats1, trace1 = trace_run(net)
        count = len(trace1.events)
        # a network runs exactly once: a second trace_run raises instead of
        # silently returning an empty trace from exhausted generators
        with pytest.raises(RuntimeSimulationError, match="already ran"):
            trace_run(net)
        # the failed re-entry leaves the first run's results untouched
        assert len(trace1.events) == count
        assert stats1.scheduler_rounds > 0

    def test_attach_then_trace_run_counts_once(self):
        sp, prog, inputs, oracle, n = setup_design(idx=1)
        baseline_net = build_network(sp, {"n": n}, inputs)
        _, baseline = trace_run(baseline_net)

        net = build_network(sp, {"n": n}, inputs)
        attach_tracer(net)
        _, trace = trace_run(net)
        assert len(trace.events) == len(baseline.events)


class TestAssignments:
    """The fold pins every process to ``worker_of`` of the position the
    network plan recorded for it."""

    @staticmethod
    def folded(idx=0, n=3, shape=(2,)):
        sp, prog, inputs, oracle, n = setup_design(idx=idx, n=n)
        fold = partitioned_schedule(sp, {"n": n}, shape)
        plan = network_plan(sp, {"n": n})
        return plan, fold, plan.instantiate(inputs, fold=fold)

    def test_plan_records_every_process_position(self):
        """Each process's recorded position is the process-space point
        its name shows (``P(1, 2)``, ``B:a(0, 3)``, ``L:b(2,)#0``, ...)."""
        for idx in range(len(ALL)):
            plan, fold, net = self.folded(idx=idx)
            assert [name for name, _, _ in plan.processes] == list(
                net.scheduler.process_names
            )
            for name, position, _ in plan.processes:
                assert isinstance(position, Point)
                assert str(position) in name, name

    def test_every_process_is_pinned_by_position(self):
        plan, fold, net = self.folded(idx=2, shape=(2, 2))
        assert net.scheduler._worker_of == {
            name: fold.worker_of(position) for name, position, _ in plan.processes
        }
        assert set(net.scheduler._worker_of.values()) == {0, 1, 2, 3}

    def test_block_contiguity(self):
        plan, fold, net = self.folded(idx=0, n=4, shape=(2,))
        mapping = net.scheduler._worker_of
        lead = {name: position[0] for name, position, _ in plan.processes}
        first = [lead[n] for n, w in mapping.items() if w == 0]
        second = [lead[n] for n, w in mapping.items() if w == 1]
        assert first and second
        assert max(first) < min(second)

    def test_block_cuts_coordinate_interval_on_triangular_space(self):
        """The fold cuts the leading-coordinate *interval*, not the process
        list into equal-count slabs: on a triangular set of points the
        two disagree."""
        sp, *_ = setup_design(idx=2, n=3)  # E1: 2-d coords
        fold = partitioned_schedule(sp, {"n": 3}, (2,))
        assert fold.lead_edges == band_edges(0, 3, 2)  # [0,1] | [2,3]
        points = [Point.of(i, j) for i in range(4) for j in range(i + 1)]
        for point in points:
            assert fold.worker_of(point) == band_of(fold.lead_edges, point[0])
        # equal-count slabs would put 5 points in each half; the interval
        # cut puts rows 0-1 (3 points) on worker 0
        assert sum(1 for p in points if fold.worker_of(p) == 0) == 3
        assert sum(1 for p in points if fold.worker_of(p) == 1) == 7

    def test_invalid_worker_count(self):
        sp, prog, inputs, oracle, n = setup_design()
        with pytest.raises(SystolicSpecError):
            partitioned_execute(sp, {"n": n}, inputs, shape=(0,))
        with pytest.raises(RuntimeSimulationError):
            band_edges(0, 3, 0)

    def test_io_processes_clamp_into_nearest_band(self):
        sp, *_ = setup_design(idx=0, n=3)
        fold = partitioned_schedule(sp, {"n": 3}, (2,))
        lo, hi = fold.lead_edges[0], fold.lead_edges[-1] - 1
        assert fold.worker_of(Point.of(lo - 3)) == 0  # below the compute range
        assert fold.worker_of(Point.of(hi + 5)) == 1  # above the compute range


class TestPartitionedExecution:
    def test_makespan_monotone_in_workers(self):
        """The Section 8 "not enough processors" curve on E1: makespan
        never grows with more workers, and the first doubling helps by
        more than a quarter."""
        sp, prog, inputs, oracle, n = setup_design(idx=2, n=4)
        spans = []
        for w in (1, 2, 4, 8, 16, 64):
            _, stats = partitioned_execute(sp, {"n": n}, inputs, shape=(w,))
            spans.append(stats.makespan)
        assert spans == sorted(spans, reverse=True)
        assert spans[1] < 0.75 * spans[0]
        assert spans[0] > 2 * spans[-1]  # folding to 1 worker hurts a lot

    def test_single_worker_serializes_everything(self):
        """On one worker the makespan is at least one tick per event (plus
        a little slack where message stamps straddle the serialization)."""
        sp, prog, inputs, oracle, n = setup_design(idx=0, n=2)
        net = build_network(sp, {"n": n}, inputs)
        unbounded_stats, trace = trace_run(net)
        _, stats = partitioned_execute(sp, {"n": n}, inputs, shape=(1,))
        assert stats.makespan >= len(trace.events)
        assert stats.makespan <= len(trace.events) + unbounded_stats.makespan


class TestSymbolicPartitionedExecution:
    @pytest.mark.parametrize("idx", range(len(ALL)))
    def test_shape_identity_all_designs(self, idx):
        """Every paper design, folded every way, stays bit-identical to the
        sequential oracle (Kahn determinism: the fold changes timing
        only)."""
        sp, prog, inputs, oracle, n = setup_design(idx=idx, n=3)
        shapes = [(1,), (2,), (3,), (7,)]
        if len(sp.coords) >= 2:
            shapes.append((2, 2))
        for shape in shapes:
            final, stats = partitioned_execute(sp, {"n": n}, inputs, shape=shape)
            assert final == oracle, shape
            assert stats.makespan > 0

    @pytest.mark.parametrize("idx", range(len(ALL)))
    def test_partitioned_run_names_conservation_violation(self, idx):
        """The partitioned run is validated like any other: a planted
        soak error is named by the conservation pre-flight instead of
        surfacing as a deadlock of dozens of stuck processes."""
        sp, prog, inputs, oracle, n = setup_design(idx=idx, n=3)
        mutated = apply_mutation(sp, "soak_plus_one")
        with pytest.raises(RuntimeSimulationError, match="conservation violated"):
            partitioned_execute(mutated, {"n": n}, inputs, shape=(2,))

    def test_shape_rejects_bad_shapes(self):
        sp, prog, inputs, oracle, n = setup_design(idx=0)  # 1-d coords
        with pytest.raises(SystolicSpecError):
            partitioned_schedule(sp, {"n": n}, (2, 2))
        with pytest.raises(SystolicSpecError):
            partitioned_schedule(sp, {"n": n}, (0,))

    @pytest.mark.parametrize("shape", [(2.5,), ("2",), (True,), (), 2])
    def test_non_integral_shape_is_not_truncated(self, shape):
        """``int()`` on the shape once ran ``(2.5,)`` as a 2-band fold."""
        sp, prog, inputs, oracle, n = setup_design(idx=0)
        with pytest.raises(SystolicSpecError, match="array shape"):
            partitioned_execute(sp, {"n": n}, inputs, shape=shape)

    def test_interband_channels_buffered(self):
        """The folded network materialises inter-band buffers on every
        channel that crosses a band boundary."""
        sp, prog, inputs, oracle, n = setup_design(idx=0, n=3)
        schedule = partitioned_schedule(sp, {"n": n}, (2,))
        plan = network_plan(sp, {"n": n})
        assert plan.instantiate(inputs).interband_channels == 0
        folded = plan.instantiate(inputs, fold=schedule)
        assert folded.interband_channels > 0
        capacity = schedule.interband_capacity
        buffered = [c for c in folded.scheduler.channels if c.capacity == capacity]
        assert len(buffered) == folded.interband_channels

    def test_specialization_reuses_symbolic_compilation(self):
        """One compiled design serves every size: the fold cache misses
        once per new size and answers a repeated size from cache, with
        the very same schedule object."""
        exp_id, prog, array = ALL[2]  # E1
        sp = compile_systolic(prog, array)
        PARTITION_CACHE.clear()
        for n in (2, 3, 4, 5):
            partitioned_schedule(sp, {"n": n}, (3,))
        assert PARTITION_CACHE.stats()["misses"] == 4  # one per size
        assert PARTITION_CACHE.stats()["hits"] == 0
        # same size again: a pure cache hit on the same schedule object
        again = partitioned_schedule(sp, {"n": 4}, (3,))
        assert partitioned_schedule(sp, {"n": 4}, (3,)) is again
        stats = PARTITION_CACHE.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (2, 4, 4)

    def test_execution_never_bins_wavefronts(self, monkeypatch):
        """Both folded engines read only the fold's edges, worker map and
        buffer capacity; the per-band activity is binned on the first
        ``summary()`` and kept."""
        pytest.importorskip("numpy")
        from repro.analysis import wavefront
        from repro.target.npgen import execute_numpy_batch

        calls = []
        real = wavefront.synchronous_wavefronts

        def spy(sp, env):
            calls.append(dict(env))
            return real(sp, env)

        monkeypatch.setattr(wavefront, "synchronous_wavefronts", spy)
        sp, prog, inputs, oracle, n = setup_design(idx=3, n=3)  # E2
        env = {"n": n}
        PARTITION_CACHE.clear()
        unbanded = execute_numpy_batch(sp, env, [inputs])
        assert execute_numpy_batch(sp, env, [inputs], shape=(2,)) == unbanded
        assert calls == []
        final, _ = partitioned_execute(sp, env, inputs, shape=(2,))
        assert final == oracle
        assert calls == []
        fold = partitioned_schedule(sp, env, (2,))
        assert fold.summary() == fold.summary()
        assert calls == [env]

    def test_fingerprint_rendered_once_per_program(self, monkeypatch):
        """The schedule and partition caches key on the design fingerprint;
        it renders ``to_source()`` once per ``SystolicProgram``, not once
        per cache lookup (two per banded run)."""
        pytest.importorskip("numpy")
        from dataclasses import replace

        from repro.lang.program import SourceProgram
        from repro.target.npgen import execute_numpy_batch

        sp, prog, inputs, oracle, n = setup_design(idx=3, n=3)  # E2
        sp = replace(sp)  # a fresh instance: nothing cached on it yet
        env = {"n": n}
        calls = []
        real = SourceProgram.to_source

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(SourceProgram, "to_source", spy)
        first = execute_numpy_batch(sp, env, [inputs], shape=(2,))
        assert execute_numpy_batch(sp, env, [inputs], shape=(2,)) == first
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [4.5, True])
    def test_non_integral_size_is_not_keyed_onto_a_neighbour(self, bad):
        """``int()`` in the key once served the n=4 schedule for n=4.5."""
        sp, *_ = setup_design(idx=0, n=4)
        partitioned_schedule(sp, {"n": 4}, (2,))
        with pytest.raises(ReproError, match="problem size n="):
            partitioned_schedule(sp, {"n": bad}, (2,))

    def test_schedule_bands_describe_soak_and_drain(self):
        sp, prog, inputs, oracle, n = setup_design(idx=0, n=4)
        schedule = partitioned_schedule(sp, {"n": n}, (3,))
        assert schedule.shape == (3,)
        assert schedule.workers == 3
        assert sum(b.total_work for b in schedule.bands) == schedule.total_work
        # the wavefront sweeps the leading coordinate: lower bands start
        # earlier and finish earlier
        assert list(schedule.soak) == sorted(schedule.soak)
        assert list(schedule.drain) == sorted(schedule.drain, reverse=True)
        assert "partition 3" in schedule.summary()

    def test_shape_clamps_to_span(self):
        sp, prog, inputs, oracle, n = setup_design(idx=0, n=2)  # lead 0..2
        schedule = partitioned_schedule(sp, {"n": n}, (100,))
        assert schedule.workers == 3  # one band per cell column

    def test_worker_of_tiles_2d(self):
        exp_id, prog, array = ALL[2]  # E1: 2-d coords
        sp = compile_systolic(prog, array)
        schedule = partitioned_schedule(sp, {"n": 3}, (2, 2))
        workers = {
            schedule.worker_of(Point.of(i, j))
            for i in range(4)
            for j in range(4)
        }
        assert workers == {0, 1, 2, 3}
