"""Unit tests for the channel/scheduler substrate.

Behaviour on real networks (values, stats, trace streams, deadlock
reports) is pinned by digest in ``test_sched_golden.py``.
"""

import pytest

from repro.runtime import Channel, Par, Recv, Scheduler, Send
from repro.util.errors import DeadlockError, RuntimeSimulationError


def make_sched():
    return Scheduler()


class TestChannel:
    def test_push_pop(self):
        c = Channel("c", capacity=2)
        c.push(1, 0)
        c.push(2, 0)
        assert not c.has_room()
        assert c.pop().value == 1
        assert c.has_room()

    def test_push_full_raises(self):
        c = Channel("c", capacity=0)
        with pytest.raises(RuntimeSimulationError):
            c.push(1, 0)

    def test_pop_empty_raises(self):
        with pytest.raises(RuntimeSimulationError):
            Channel("c").pop()

    def test_negative_capacity(self):
        with pytest.raises(RuntimeSimulationError):
            Channel("c", capacity=-1)

    def test_stats(self):
        c = Channel("c", capacity=3)
        c.push(1, 0)
        c.push(2, 0)
        c.pop()
        assert c.messages_carried == 2
        assert c.max_occupancy == 2


class TestBasicCommunication:
    @pytest.mark.parametrize("capacity", [0, 1, 5])
    def test_ping_pong(self, capacity):
        sched = make_sched()
        chan = sched.add_channel(Channel("c", capacity=capacity))
        received = []

        def producer():
            for i in range(10):
                yield Send(chan, i)

        def consumer():
            for _ in range(10):
                v = yield Recv(chan)
                received.append(v)

        sched.spawn("prod", producer())
        sched.spawn("cons", consumer())
        stats = sched.run()
        assert received == list(range(10))
        assert stats.total_messages == 10

    def test_pipeline_chain(self):
        sched = make_sched()
        chans = [sched.add_channel(Channel(f"c{i}")) for i in range(4)]
        result = []

        def stage(i):
            def body():
                for _ in range(5):
                    v = yield Recv(chans[i])
                    yield Send(chans[i + 1], v + 1)

            return body()

        def source():
            for i in range(5):
                yield Send(chans[0], i)

        def sink():
            for _ in range(5):
                result.append((yield Recv(chans[3])))

        sched.spawn("src", source())
        for i in range(3):
            sched.spawn(f"s{i}", stage(i))
        sched.spawn("sink", sink())
        sched.run()
        assert result == [3, 4, 5, 6, 7]

    def test_fifo_order_preserved(self):
        sched = make_sched()
        chan = sched.add_channel(Channel("c", capacity=3))
        out = []

        def producer():
            for i in range(20):
                yield Send(chan, i)

        def consumer():
            for _ in range(20):
                out.append((yield Recv(chan)))

        sched.spawn("p", producer())
        sched.spawn("c", consumer())
        sched.run()
        assert out == list(range(20))

    def test_duplicate_name_rejected(self):
        sched = make_sched()

        def noop():
            return
            yield

        sched.spawn("x", noop())
        with pytest.raises(RuntimeSimulationError):
            sched.spawn("x", noop())


class TestPar:
    def test_par_recv_any_order(self):
        sched = make_sched()
        c1 = sched.add_channel(Channel("c1", capacity=0))
        c2 = sched.add_channel(Channel("c2", capacity=0))
        got = {}

        def worker():
            vals = yield Par([Recv(c1), Recv(c2)])
            got["vals"] = vals

        def sender2():
            yield Send(c2, "two")

        def sender1():
            yield Send(c1, "one")

        sched.spawn("w", worker())
        sched.spawn("s2", sender2())  # c2 arrives "first"
        sched.spawn("s1", sender1())
        sched.run()
        assert got["vals"] == ["one", "two"]  # results in member order

    def test_par_mixed_send_recv(self):
        sched = make_sched()
        cin = sched.add_channel(Channel("in", capacity=0))
        cout = sched.add_channel(Channel("out", capacity=0))
        result = []

        def relay():
            vals = yield Par([Recv(cin), Send(cout, 99)])
            result.append(vals[0])

        def left():
            yield Send(cin, 7)

        def right():
            result.append((yield Recv(cout)))

        sched.spawn("relay", relay())
        sched.spawn("l", left())
        sched.spawn("r", right())
        sched.run()
        assert sorted(result) == [7, 99]

    def test_par_avoids_ordering_deadlock(self):
        """Two processes exchanging values: sequential recv/send on capacity-0
        channels would deadlock; Par must not."""
        sched = make_sched()
        ab = sched.add_channel(Channel("ab", capacity=0))
        ba = sched.add_channel(Channel("ba", capacity=0))
        out = {}

        def a():
            vals = yield Par([Send(ab, "from-a"), Recv(ba)])
            out["a"] = vals[1]

        def b():
            vals = yield Par([Send(ba, "from-b"), Recv(ab)])
            out["b"] = vals[1]

        sched.spawn("a", a())
        sched.spawn("b", b())
        sched.run()
        assert out == {"a": "from-b", "b": "from-a"}

    def test_bad_par_member(self):
        with pytest.raises(RuntimeSimulationError):
            Par(["bogus"])

    def test_bad_yield_value(self):
        sched = make_sched()

        def bad():
            yield "nope"

        sched.spawn("bad", bad())
        with pytest.raises(RuntimeSimulationError):
            sched.run()


class TestDeadlock:
    def test_recv_with_no_sender(self):
        sched = make_sched()
        chan = sched.add_channel(Channel("c"))

        def lonely():
            yield Recv(chan)

        sched.spawn("lonely", lonely())
        with pytest.raises(DeadlockError) as err:
            sched.run()
        assert "lonely" in str(err.value)
        assert "recv c" in str(err.value)

    def test_cyclic_rendezvous_deadlock(self):
        sched = make_sched()
        ab = sched.add_channel(Channel("ab", capacity=0))
        ba = sched.add_channel(Channel("ba", capacity=0))

        def a():
            yield Send(ab, 1)  # blocks: b is also sending
            yield Recv(ba)

        def b():
            yield Send(ba, 1)
            yield Recv(ab)

        sched.spawn("a", a())
        sched.spawn("b", b())
        # capacity-0 cross sends with sequential ordering: both block forever
        with pytest.raises(DeadlockError):
            sched.run()

    def test_max_rounds(self):
        sched = make_sched()
        chan = sched.add_channel(Channel("c", capacity=1))

        def chatter():
            for i in range(1000):
                yield Send(chan, i)

        def listener():
            for _ in range(1000):
                yield Recv(chan)

        sched.spawn("c1", chatter())
        sched.spawn("c2", listener())
        with pytest.raises(RuntimeSimulationError):
            sched.run(max_rounds=10)


class TestVirtualTime:
    def test_pipeline_makespan_linear(self):
        """A k-stage pipeline of m messages has makespan ~ k + m, not k*m."""

        def run(stages, messages):
            sched = make_sched()
            chans = [sched.add_channel(Channel(f"c{i}")) for i in range(stages + 1)]

            def src():
                for i in range(messages):
                    yield Send(chans[0], i)

            def stage(i):
                def body():
                    for _ in range(messages):
                        v = yield Recv(chans[i])
                        yield Send(chans[i + 1], v)

                return body()

            def sink():
                for _ in range(messages):
                    yield Recv(chans[stages])

            sched.spawn("src", src())
            for i in range(stages):
                sched.spawn(f"st{i}", stage(i))
            sched.spawn("sink", sink())
            return sched.run().makespan

        m_small = run(stages=4, messages=4)
        m_large = run(stages=4, messages=8)
        # doubling messages must NOT double the makespan of a pipeline
        assert m_large < 2 * m_small
        assert m_large > m_small

    def test_determinism(self):
        """Two identical runs produce identical stats."""

        def build():
            sched = make_sched()
            c1 = sched.add_channel(Channel("c1"))
            c2 = sched.add_channel(Channel("c2"))

            def a():
                for i in range(5):
                    yield Send(c1, i)
                    yield Recv(c2)

            def b():
                for _ in range(5):
                    v = yield Recv(c1)
                    yield Send(c2, v * 2)

            sched.spawn("a", a())
            sched.spawn("b", b())
            return sched.run()

        s1, s2 = build(), build()
        assert s1.makespan == s2.makespan
        assert s1.per_channel_messages == s2.per_channel_messages
        assert s1.scheduler_rounds == s2.scheduler_rounds


class TestSpawnScaling:
    def test_many_processes_spawn_fast(self):
        """Name bookkeeping is O(1) per spawn: 10k processes must register
        in well under a second (the old linear scan took quadratic time)."""
        import time

        def noop():
            yield from ()

        sched = make_sched()
        t0 = time.perf_counter()
        for i in range(10_000):
            sched.spawn(f"p{i}", noop())
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"10k spawns took {elapsed:.2f}s"
        assert len(sched.process_names) == 10_000

    def test_duplicates_still_rejected(self):
        def noop():
            yield from ()

        sched = make_sched()
        for i in range(100):
            sched.spawn(f"p{i}", noop())
        with pytest.raises(RuntimeSimulationError):
            sched.spawn("p42", noop())


class TestParValidation:
    """Malformed Par requests fail before touching any channel.

    The per-shape error messages are checked, in both run modes, in
    ``test_sched_fast.py``; the malformed request is built via
    ``Par.__new__`` because ``Par.__init__`` already validates.
    """

    def test_no_channel_side_effects_before_error(self):
        """Validation fires before any sub-op touches a channel."""
        sched = make_sched()
        chan = sched.add_channel(Channel("c", capacity=4))
        bad = Par.__new__(Par)
        bad.ops = (Send(chan, 1), object())

        def proc():
            yield bad

        sched.spawn("offender", proc())
        with pytest.raises(RuntimeSimulationError):
            sched.run()
        assert chan.messages_carried == 0
        assert not chan.queue


class TestWorkerAssignmentValidation:
    def test_uncovered_process_raises_named_error(self):
        sched = make_sched()
        chan = sched.add_channel(Channel("c"))

        def ping():
            yield Send(chan, 1)

        def pong():
            yield Recv(chan)

        sched.spawn("ping", ping())
        sched.spawn("pong", pong())
        sched.assign_workers({"ping": 0})  # typo'd/partial assignment
        with pytest.raises(RuntimeSimulationError, match="uncovered: pong"):
            sched.run()

    def test_full_assignment_still_runs(self):
        sched = make_sched()
        chan = sched.add_channel(Channel("c"))

        def ping():
            yield Send(chan, 1)

        def pong():
            yield Recv(chan)

        sched.spawn("ping", ping())
        sched.spawn("pong", pong())
        sched.assign_workers({"ping": 0, "pong": 0})
        stats = sched.run()
        assert stats.total_messages == 1


class TestRunReentry:
    # a clean run followed by re-entry: test_sched_fast.py, both run modes
    def test_reentry_raises_even_after_deadlock(self):
        sched = make_sched()
        chan = sched.add_channel(Channel("c"))

        def lonely():
            yield Recv(chan)

        sched.spawn("lonely", lonely())
        with pytest.raises(DeadlockError):
            sched.run()
        with pytest.raises(RuntimeSimulationError, match="already ran"):
            sched.run()


class TestLifetime:
    def test_finished_scheduler_is_freed_without_the_cycle_collector(self):
        """No process state points back at its scheduler, so a network is
        released as soon as its last reference goes."""
        import gc
        import weakref

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sched = make_sched()
            chan = sched.add_channel(Channel("c"))

            def ping():
                yield Send(chan, 1)

            def pong():
                yield Recv(chan)

            sched.spawn("ping", ping())
            sched.spawn("pong", pong())
            sched.run()
            ref = weakref.ref(sched)
            del sched
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
