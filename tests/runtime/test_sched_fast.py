"""Request validation on the scheduler's hot path.

* a malformed ``Par`` (nested ``Par``, non-op member, zero members) raises
  a named :class:`RuntimeSimulationError` at yield time instead of dying
  with an ``AttributeError`` deep in the rendezvous machinery;
* a second ``run()`` raises instead of silently returning zero-round stats
  computed from stale state.
"""

from __future__ import annotations

import pytest

from repro.runtime import Channel, Par, Recv, Scheduler, Send
from repro.util.errors import RuntimeSimulationError


class TestParValidation:
    """Malformed Par requests die with a named error at yield time.

    ``Par.__init__`` already validates, so the malformed shapes are built
    via ``__new__`` -- modelling a corrupted or hand-rolled request object,
    which would otherwise fall through to a raw ``AttributeError`` inside
    ``_try_recv``.
    """

    @staticmethod
    def _raw_par(ops) -> Par:
        par = Par.__new__(Par)
        par.ops = tuple(ops)
        return par

    def test_nested_par_rejected(self):
        sched = Scheduler()
        chan = sched.add_channel(Channel("c"))
        inner = self._raw_par([Recv(chan)])
        bad = self._raw_par([Send(chan, 1), inner])

        def proc():
            yield bad

        sched.spawn("offender", proc())
        with pytest.raises(RuntimeSimulationError, match="offender.*Par"):
            sched.run()

    def test_non_op_member_rejected(self):
        sched = Scheduler()
        chan = sched.add_channel(Channel("c"))
        bad = self._raw_par([Recv(chan), "not an op"])

        def proc():
            yield bad

        sched.spawn("offender", proc())
        with pytest.raises(
            RuntimeSimulationError, match="offender.*not an op"
        ):
            sched.run()

    def test_empty_par_rejected(self):
        sched = Scheduler()
        bad = self._raw_par([])

        def proc():
            yield bad

        sched.spawn("offender", proc())
        with pytest.raises(RuntimeSimulationError, match="offender.*empty Par"):
            sched.run()


class TestRunReentry:
    def test_second_run_raises_and_first_stats_survive(self):
        sched = Scheduler()
        chan = sched.add_channel(Channel("c"))

        def producer():
            for i in range(3):
                yield Send(chan, i)

        def consumer():
            for _ in range(3):
                yield Recv(chan)

        sched.spawn("p", producer())
        sched.spawn("c", consumer())
        stats = sched.run()
        rounds, messages = stats.scheduler_rounds, stats.total_messages
        with pytest.raises(RuntimeSimulationError, match="already ran"):
            sched.run()
        # the failed re-entry must not have touched the first run's stats
        assert stats.scheduler_rounds == rounds > 0
        assert stats.total_messages == messages == 3
