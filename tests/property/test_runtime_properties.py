"""Hypothesis property tests for the runtime, backends and round-trips."""

from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro import parse_program, run_sequential
from repro.extensions import partitioned_execute
from repro.runtime import Channel, Recv, Scheduler, Send, execute
from repro.target import build_target_program, render_c, render_occam, render_paper
from repro.verify import random_inputs
from tests.property.test_scheme_properties import SETTINGS, random_designs, random_programs


class TestRendererProperties:
    @given(random_designs())
    @SETTINGS
    def test_all_backends_render(self, design):
        """Every compilable design renders in all three backends, and every
        stream appears in each rendering."""
        program, array, sp = design
        tp = build_target_program(sp)
        for renderer in (render_paper, render_occam, render_c):
            text = renderer(tp)
            assert text
            for stream in program.streams:
                assert stream.name in text

    @given(random_designs())
    @SETTINGS
    def test_paper_rendering_structure(self, design):
        program, array, sp = design
        text = render_paper(build_target_program(sp))
        assert "par" in text and "parfor" in text
        assert "Input Processes" in text and "Output Processes" in text


class TestSourceRoundTripProperty:
    @given(random_programs())
    @SETTINGS
    def test_to_source_roundtrip(self, program):
        reparsed = parse_program(program.to_source())
        assert reparsed.loops == program.loops
        assert [s.index_map for s in reparsed.streams] == [
            s.index_map for s in program.streams
        ]
        env = {"n": 2}
        inputs = random_inputs(program, env, seed=4)
        assert run_sequential(program, env, inputs) == run_sequential(
            reparsed, env, inputs
        )


class TestPartitionProperty:
    @given(random_designs(), st.integers(min_value=1, max_value=5))
    @SETTINGS
    def test_fold_never_changes_results(self, design, workers):
        program, array, sp = design
        env = {"n": 2}
        inputs = random_inputs(program, env, seed=13)
        unbounded, _ = execute(sp, env, inputs, max_rounds=2_000_000)
        folded, stats = partitioned_execute(sp, env, inputs, shape=(workers,))
        assert folded == unbounded


class TestSchedulerProperties:
    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=0, max_size=30),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_pipeline_preserves_order_and_content(self, payload, capacity, stages):
        """Any payload pushed through any pipeline arrives intact, in order,
        at any capacity -- FIFO and conservation."""
        sched = Scheduler()
        chans = [
            sched.add_channel(Channel(f"c{i}", capacity=capacity))
            for i in range(stages + 1)
        ]
        received = []

        def source():
            for v in payload:
                yield Send(chans[0], v)

        def stage(i):
            def body():
                for _ in payload:
                    v = yield Recv(chans[i])
                    yield Send(chans[i + 1], v)

            return body()

        def sink():
            for _ in payload:
                received.append((yield Recv(chans[stages])))

        sched.spawn("src", source())
        for i in range(stages):
            sched.spawn(f"s{i}", stage(i))
        sched.spawn("sink", sink())
        stats = sched.run()
        assert received == payload
        assert stats.total_messages == len(payload) * (stages + 1)
        for chan in sched.channels:
            assert chan.max_occupancy <= max(1, capacity) or capacity == 0
            assert not chan.queue  # everything drained

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_fan_in_conserves_messages(self, senders, capacity):
        """Many senders into one receiver: every message arrives once."""
        sched = Scheduler()
        chans = [
            sched.add_channel(Channel(f"c{i}", capacity=capacity))
            for i in range(senders)
        ]
        got = []

        def sender(i):
            def body():
                for k in range(3):
                    yield Send(chans[i], (i, k))

            return body()

        def receiver():
            from repro.runtime import Par

            for _ in range(3):
                values = yield Par([Recv(c) for c in chans])
                got.extend(values)

        for i in range(senders):
            sched.spawn(f"snd{i}", sender(i))
        sched.spawn("rcv", receiver())
        sched.run()
        assert sorted(got) == sorted((i, k) for i in range(senders) for k in range(3))
