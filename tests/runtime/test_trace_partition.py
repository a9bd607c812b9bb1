"""Tests for execution tracing and the finite-machine partition extension."""

import pytest

from repro import compile_systolic, run_sequential
from repro.extensions import (
    band_edges,
    block_assignment,
    compile_partition,
    partitioned_execute,
    partitioned_schedule,
    round_robin_assignment,
)
from repro.extensions.partition import PARTITION_CACHE, _position_of, band_of
from repro.geometry import Point
from repro.runtime import build_network
from repro.runtime.trace import Trace, TraceEvent, attach_tracer, trace_run
from repro.systolic import all_paper_designs
from repro.util.errors import ReproError, RuntimeSimulationError
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
    def test_position_parsing(self):
        assert _position_of("P(1, 2)") == Point.of(1, 2)
        assert _position_of("B:a(0, -3)") == Point.of(0, -3)
        assert _position_of("L:b(2,)#0") == Point.of(2)
        assert _position_of("IN:a(-3, 1)") == Point.of(-3, 1)
        assert _position_of("noparens") is None

    def test_round_robin_covers_all_workers(self):
        names = [f"P({i},)" for i in range(10)]
        mapping = round_robin_assignment(names, 3)
        assert set(mapping.values()) == {0, 1, 2}

    def test_block_contiguity(self):
        names = [f"P({i},)" for i in range(8)]
        mapping = block_assignment(names, 2)
        # sorted-by-position processes split into two slabs
        first = [n for n, w in mapping.items() if w == 0]
        second = [n for n, w in mapping.items() if w == 1]
        assert len(first) == len(second) == 4
        assert max(_position_of(n)[0] for n in first) < min(
            _position_of(n)[0] for n in second
        )

    def test_invalid_worker_count(self):
        with pytest.raises(RuntimeSimulationError):
            round_robin_assignment(["a"], 0)
        with pytest.raises(RuntimeSimulationError):
            block_assignment(["a"], 0)

    def test_block_cuts_coordinate_interval_on_triangular_space(self):
        """Regression: block_assignment used to cut the *sorted process
        list* into equal-count slabs while wavefront_tile_bands cut the
        *coordinate interval*; on a triangular process space the two
        disagreed.  Both now cut the leading-coordinate interval."""
        names = [f"P({i}, {j})" for i in range(4) for j in range(i + 1)]
        mapping = block_assignment(names, 2)
        edges = band_edges(0, 3, 2)  # the shared splitter: [0,1] | [2,3]
        for name in names:
            lead = _position_of(name)[0]
            assert mapping[name] == band_of(edges, lead), name
        # equal-count slabs would put 5 processes in each half; the
        # interval cut puts rows 0-1 (3 processes) on worker 0
        assert sum(1 for w in mapping.values() if w == 0) == 3
        assert sum(1 for w in mapping.values() if w == 1) == 7

    def test_io_processes_clamp_into_nearest_band(self):
        names = ["P(0,)", "P(1,)", "P(2,)", "P(3,)", "IN:a(-3,)", "OUT:c(9,)"]
        mapping = block_assignment(names, 2)
        assert mapping["IN:a(-3,)"] == 0  # below the compute range
        assert mapping["OUT:c(9,)"] == 1  # above the compute range


class TestPartitionedExecution:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("assignment", ["block", "round_robin"])
    def test_results_invariant_under_fold(self, workers, assignment):
        sp, prog, inputs, oracle, n = setup_design(idx=0)
        final, stats = partitioned_execute(
            sp, {"n": n}, inputs, workers=workers, assignment=assignment
        )
        assert final == oracle
        assert stats.makespan > 0

    def test_makespan_monotone_in_workers(self):
        sp, prog, inputs, oracle, n = setup_design(idx=2, n=4)
        spans = []
        for w in (1, 2, 4, 16):
            _, stats = partitioned_execute(sp, {"n": n}, inputs, workers=w)
            spans.append(stats.makespan)
        assert spans == sorted(spans, reverse=True)
        assert spans[0] > 2 * spans[-1]  # folding to 1 worker hurts a lot

    def test_single_worker_serializes_everything(self):
        """On one worker the makespan is at least one tick per event (plus
        a little slack where message stamps straddle the serialization)."""
        sp, prog, inputs, oracle, n = setup_design(idx=0, n=2)
        net = build_network(sp, {"n": n}, inputs)
        unbounded_stats, trace = trace_run(net)
        _, stats = partitioned_execute(sp, {"n": n}, inputs, workers=1)
        assert stats.makespan >= len(trace.events)
        assert stats.makespan <= len(trace.events) + unbounded_stats.makespan

    def test_unknown_assignment(self):
        sp, prog, inputs, oracle, n = setup_design()
        with pytest.raises(RuntimeSimulationError):
            partitioned_execute(sp, {"n": n}, inputs, workers=2, assignment="zigzag")

    @pytest.mark.parametrize("idx", range(len(ALL)))
    @pytest.mark.parametrize("workers", [1, 3, 7])
    @pytest.mark.parametrize("assignment", ["block", "round_robin"])
    def test_identity_all_designs_all_folds(self, idx, workers, assignment):
        """Every paper design, folded every way, stays bit-identical to the
        sequential oracle (Kahn determinism: the fold changes timing
        only)."""
        sp, prog, inputs, oracle, n = setup_design(idx=idx, n=3)
        final, stats = partitioned_execute(
            sp, {"n": n}, inputs, workers=workers, assignment=assignment
        )
        assert final == oracle
        assert stats.makespan > 0


class TestSymbolicPartitionedExecution:
    def test_exactly_one_machine_description(self):
        sp, prog, inputs, oracle, n = setup_design()
        with pytest.raises(RuntimeSimulationError):
            partitioned_execute(sp, {"n": n}, inputs)
        with pytest.raises(RuntimeSimulationError):
            partitioned_execute(sp, {"n": n}, inputs, workers=2, shape=(2,))

    @pytest.mark.parametrize("idx", range(len(ALL)))
    def test_shape_identity_all_designs(self, idx):
        sp, prog, inputs, oracle, n = setup_design(idx=idx, n=3)
        shapes = [(2,), (3,)]
        if len(sp.coords) >= 2:
            shapes.append((2, 2))
        for shape in shapes:
            final, stats = partitioned_execute(sp, {"n": n}, inputs, shape=shape)
            assert final == oracle, shape
            assert stats.makespan > 0

    def test_shape_rejects_bad_shapes(self):
        sp, prog, inputs, oracle, n = setup_design(idx=0)  # 1-d coords
        with pytest.raises(RuntimeSimulationError):
            compile_partition(sp, (2, 2))
        with pytest.raises(RuntimeSimulationError):
            compile_partition(sp, (0,))

    def test_interband_channels_buffered(self):
        """The folded network materialises inter-band buffers on every
        channel that crosses a band boundary."""
        from repro.runtime import build_network

        sp, prog, inputs, oracle, n = setup_design(idx=0, n=3)
        schedule = partitioned_schedule(sp, {"n": n}, (2,))
        plain = build_network(sp, {"n": n}, inputs)
        assert plain.interband_channels == 0
        folded = build_network(
            sp,
            {"n": n},
            inputs,
            worker_of=schedule.worker_of,
            interband_capacity=schedule.symbolic.interband_capacity,
        )
        assert folded.interband_channels > 0

    def test_specialization_reuses_symbolic_compilation(self):
        """Compile once for the fixed array, specialize to any size: after
        the first size, the symbolic memo only records hits and the
        specialized-schedule cache grows one entry per size."""
        from repro.core.memo import MEMO

        exp_id, prog, array = ALL[2]  # E1
        sp = compile_systolic(prog, array)
        PARTITION_CACHE.clear()
        MEMO.tables.pop("partition_symbolic", None)  # forget prior compiles
        h0, m0 = MEMO.table_counters("partition_symbolic")
        partitioned_schedule(sp, {"n": 2}, (3,))
        h1, m1 = MEMO.table_counters("partition_symbolic")
        assert m1 == m0 + 1  # first compile for this (design, shape)
        for n in (3, 4, 5):
            partitioned_schedule(sp, {"n": n}, (3,))
        h2, m2 = MEMO.table_counters("partition_symbolic")
        assert m2 == m1  # no re-derivation for new sizes
        assert h2 == h1 + 3
        assert PARTITION_CACHE.stats()["misses"] == 4  # one per size
        # same size again: pure cache hit, the memo is not even consulted
        partitioned_schedule(sp, {"n": 4}, (3,))
        assert PARTITION_CACHE.stats()["hits"] >= 1
        assert MEMO.table_counters("partition_symbolic") == (h2, m2)

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
