"""The deterministic process scheduler.

Processes are generators yielding :class:`Send`/:class:`Recv`/:class:`Par`
requests.  The scheduler advances ready processes round-robin; a request
that cannot complete parks the process on the channels involved, and any
communication that frees space / delivers data immediately retries the
parked counterparts, so progress is work-driven rather than poll-driven.

Determinism: the ready queue is FIFO and channel wait lists are FIFO, so a
given network always executes the same interleaving -- failures reproduce.

Deadlock: when no process is ready and at least one is blocked, the
scheduler raises :class:`DeadlockError` with a dump of who waits on what.

Virtual time: each process carries a Lamport-style clock.  A message is
stamped ``sender_clock + 1`` at the moment its send *completes*; when a
process resumes from a request it sets ``clock = max(clock, stamps...) + 1``.
The maximum final clock is the *makespan*: the length of the critical path
through the communication graph, the asynchronous analogue of the systolic
array's synchronous step count.  (Backpressure stalls -- a sender waiting
for channel space -- are not charged to the clock; the metric tracks data
dependences only.)

Two request paths share the channel machinery:

* a bare ``Send`` or ``Recv`` -- the pass-throughs of latches, buffers and
  i/o processes, and about three quarters of all yields on a paper design
  -- completes or parks directly against its channel through one reused
  slot per process, with rendezvous, push and drain transitions inlined;
* a ``Par`` -- the paper's ``par ... end par`` around the basic
  statement's communications -- is validated, then dispatched member by
  member into a reused slot vector; a counter of its not-yet-completed
  members decides when the process is ready again.

The two paths interoperate on the same channels: a parked ``Par`` member
is woken by a bare sender and vice versa.  The resulting values, stats,
trace streams and deadlock reports are pinned by digest in
``tests/runtime/test_sched_golden.py``; the sequential oracle stays the
reference for values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.runtime.channel import Channel, Message
from repro.runtime.ops import Op, Par, Recv, Send
from repro.util.errors import DeadlockError, RuntimeSimulationError

ProcessBody = Generator[Op, Any, None]


class _Slot:
    """One sub-operation of a pending request."""

    __slots__ = ("op", "done", "result")

    def __init__(self, op) -> None:
        self.op = op
        self.done = False
        self.result: Any = None


class _ProcState:
    __slots__ = ("name", "gen", "slots", "clock", "yield_clock", "finished",
                 "own_slot", "own_list", "single", "is_send", "par_slots",
                 "pending")

    def __init__(self, name: str, gen: ProcessBody) -> None:
        self.name = name
        self.gen = gen
        self.slots: list[_Slot] | None = None
        self.clock = 0
        self.yield_clock = 0
        self.finished = False
        # Reused for every bare request: a completed slot is always
        # unparked before its process resumes, so by the time the next
        # request resets these no live reference can remain (see _drain_*).
        self.own_slot = _Slot(None)
        self.own_list = [self.own_slot]
        #: current request is a bare Send/Recv (else a Par); the resume
        #: loop then reads ``own_slot`` directly
        self.single = False
        #: trace kind of the current bare request without an isinstance
        #: test at resume time
        self.is_send = False
        #: reusable slot vector for Pars (the Par analogue of own_slot --
        #: safe for the same reason) and the count of its not-yet-completed
        #: slots, which decides when the process is ready again
        self.par_slots: list[_Slot] | None = None
        self.pending = 0


@dataclass
class SchedulerStats:
    """Aggregate execution metrics."""

    makespan: int = 0
    total_messages: int = 0
    process_count: int = 0
    scheduler_rounds: int = 0
    per_channel_messages: dict = field(default_factory=dict)
    per_process_clock: dict = field(default_factory=dict)


class Scheduler:
    """Runs a set of processes to completion."""

    def __init__(self) -> None:
        self._procs: list[_ProcState] = []
        self._names: set[str] = set()
        self._ready: deque[_ProcState] = deque()
        self._channels: list[Channel] = []
        #: optional finite-machine model: process name -> worker id; when
        #: set, workers serialize the virtual-time cost of their processes
        #: (the paper's Section 8 "not enough processors" scenario)
        self._worker_of: dict[str, int] | None = None
        self._worker_clock: dict[int, int] = {}
        #: optional trace hook ``(process name, clock, kind) -> None``,
        #: called once per completed request at the moment the process
        #: resumes.  ``None`` (the default) costs one pointer test per
        #: resume -- the zero-cost-when-off replacement for the old
        #: generator-wrapping instrumentation (see repro.runtime.trace).
        self._trace: Any = None
        #: a scheduler runs exactly once; re-entry raises
        self._ran: bool = False

    def assign_workers(self, assignment: dict[str, int]) -> None:
        """Pin each process to a physical worker for virtual-time costing.

        Every spawned process name must be covered -- ``run()`` validates
        the assignment against the spawned set and raises
        :class:`RuntimeSimulationError` listing any uncovered processes (a
        typo'd name used to be silently skipped, quietly producing wrong
        makespans).  Affects only the clock model, not the communication
        semantics or results.
        """
        self._worker_of = dict(assignment)
        self._worker_clock = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_channel(self, channel: Channel) -> Channel:
        self._channels.append(channel)
        return channel

    @property
    def channels(self) -> tuple[Channel, ...]:
        """All channels registered with this scheduler."""
        return tuple(self._channels)

    @property
    def process_names(self) -> tuple[str, ...]:
        """Names of all spawned processes."""
        return tuple(p.name for p in self._procs)

    def spawn(self, name: str, gen: ProcessBody) -> None:
        """Register a process."""
        if name in self._names:
            raise RuntimeSimulationError(f"duplicate process name {name!r}")
        self._names.add(name)
        self._procs.append(_ProcState(name, gen))

    # ------------------------------------------------------------------
    # communication machinery (Par members, drain sweeps)
    # ------------------------------------------------------------------
    def _try_send(self, proc: _ProcState, slot: _Slot) -> bool:
        """Complete a send: direct handoff to a parked receiver (rendezvous)
        or a push into free channel space."""
        chan: Channel = slot.op.channel
        stamp = proc.yield_clock + 1
        while chan.waiting_receivers:
            other, rslot = chan.waiting_receivers[0]
            chan.waiting_receivers.popleft()
            if rslot.done:
                continue
            rslot.done = True
            rslot.result = slot.op.value
            chan.messages_carried += 1
            other.clock = max(other.clock, stamp)
            slot.done = True
            self._maybe_wake(other)
            return True
        if chan.has_room():
            chan.push(slot.op.value, stamp)
            slot.done = True
            self._drain_receivers(chan)
            return True
        return False

    def _try_recv(self, proc: _ProcState, slot: _Slot) -> bool:
        chan: Channel = slot.op.channel
        if chan.queue:
            msg = chan.pop()
            slot.done = True
            slot.result = msg.value
            proc.clock = max(proc.clock, msg.timestamp)
            self._drain_senders(chan)
            return True
        while chan.waiting_senders:
            other, sslot = chan.waiting_senders[0]
            chan.waiting_senders.popleft()
            if sslot.done:
                continue
            sslot.done = True
            slot.done = True
            slot.result = sslot.op.value
            chan.messages_carried += 1
            proc.clock = max(proc.clock, other.yield_clock + 1)
            self._maybe_wake(other)
            return True
        return False

    def _drain_senders(self, chan: Channel) -> None:
        """Space appeared: complete parked sends in FIFO order."""
        while chan.waiting_senders and chan.has_room():
            other, sslot = chan.waiting_senders.popleft()
            if sslot.done:
                continue
            chan.push(sslot.op.value, other.yield_clock + 1)
            sslot.done = True
            self._maybe_wake(other)

    def _drain_receivers(self, chan: Channel) -> None:
        """Data appeared: complete parked receives in FIFO order."""
        while chan.waiting_receivers and chan.queue:
            other, rslot = chan.waiting_receivers.popleft()
            if rslot.done:
                continue
            msg = chan.pop()
            rslot.done = True
            rslot.result = msg.value
            other.clock = max(other.clock, msg.timestamp)
            self._maybe_wake(other)

    def _maybe_wake(self, proc: _ProcState) -> None:
        """Move a parked process back to ready when its request completed.

        Every caller has just completed exactly one of ``proc``'s slots, so
        for a ``Par`` the test is a counter decrement.
        """
        if proc.slots is None:
            return
        if proc.single:
            if proc.own_slot.done:
                self._ready.append(proc)
            return
        pending = proc.pending - 1
        proc.pending = pending
        if pending == 0:
            self._ready.append(proc)

    # ------------------------------------------------------------------
    # bare requests: complete or park against the channel directly
    # ------------------------------------------------------------------
    def _single_send(self, proc: _ProcState, op) -> None:
        """Inlined ``_try_send`` + park for a bare ``Send``.

        The counterpart (or drained receivers) enqueue *before* this
        process, exactly as for a ``Par`` member, so a send behaves the
        same whichever request shape carries it.
        """
        proc.single = True
        proc.is_send = True
        slot = proc.own_slot
        slot.result = None
        proc.slots = proc.own_list
        chan: Channel = op.channel
        ready = self._ready
        waiting = chan.waiting_receivers
        while waiting:
            other, rslot = waiting.popleft()
            if rslot.done:
                continue
            # rendezvous: hand the value straight to the parked receiver
            rslot.done = True
            rslot.result = op.value
            chan.messages_carried += 1
            stamp = proc.yield_clock + 1
            if stamp > other.clock:
                other.clock = stamp
            slot.done = True
            # inlined _maybe_wake: rslot just completed, so a bare-request
            # peer is ready by construction; a Par peer decrements its
            # pending counter exactly as _maybe_wake would
            if other.single:
                ready.append(other)
            elif other.slots is not None:
                pending = other.pending - 1
                other.pending = pending
                if pending == 0:
                    ready.append(other)
            ready.append(proc)
            return
        queue = chan.queue
        if len(queue) < chan.capacity:
            # push into free space (inlined Channel.push); the rendezvous
            # loop above emptied waiting_receivers, so there is nobody to
            # drain -- the guard keeps the no-op call off the hot path
            queue.append(Message(op.value, proc.yield_clock + 1))
            chan.messages_carried += 1
            if len(queue) > chan.max_occupancy:
                chan.max_occupancy = len(queue)
            slot.done = True
            if chan.waiting_receivers:
                self._drain_receivers(chan)
            ready.append(proc)
            return
        # park: only now does anyone else read the slot's op (the drain
        # sweeps take the value from it; the deadlock report names it)
        slot.op = op
        slot.done = False
        chan.waiting_senders.append((proc, slot))

    def _single_recv(self, proc: _ProcState, op) -> None:
        """Inlined ``_try_recv`` + park for a bare ``Recv``."""
        proc.single = True
        proc.is_send = False
        slot = proc.own_slot
        proc.slots = proc.own_list
        chan: Channel = op.channel
        ready = self._ready
        queue = chan.queue
        if queue:
            msg = queue.popleft()
            slot.done = True
            slot.result = msg.value
            if msg.timestamp > proc.clock:
                proc.clock = msg.timestamp
            if chan.waiting_senders:
                self._drain_senders(chan)
            ready.append(proc)
            return
        waiting = chan.waiting_senders
        while waiting:
            other, sslot = waiting.popleft()
            if sslot.done:
                continue
            # rendezvous: take the value straight from the parked sender
            sslot.done = True
            slot.done = True
            slot.result = sslot.op.value
            chan.messages_carried += 1
            stamp = other.yield_clock + 1
            if stamp > proc.clock:
                proc.clock = stamp
            # inlined _maybe_wake, as in _single_send
            if other.single:
                ready.append(other)
            elif other.slots is not None:
                pending = other.pending - 1
                other.pending = pending
                if pending == 0:
                    ready.append(other)
            ready.append(proc)
            return
        slot.op = op
        slot.done = False
        slot.result = None
        chan.waiting_receivers.append((proc, slot))

    def _request_par(self, proc: _ProcState, op: Any) -> None:
        """Validate a ``Par`` (any other non-bare yield is an error), then
        dispatch its members and park the incomplete ones.

        The slot vector is reused across requests (the Par analogue of
        ``own_slot`` -- every slot is completed and unparked before the
        process resumes, so no live reference remains), and completion is
        tracked by the ``pending`` counter consumed in :meth:`_maybe_wake`.
        """
        if not isinstance(op, Par):
            raise RuntimeSimulationError(
                f"process {proc.name} yielded {op!r}, expected Send/Recv/Par"
            )
        ops = op.ops
        if not ops:
            raise RuntimeSimulationError(
                f"process {proc.name} yielded an empty Par: a parallel "
                "request needs at least one Send/Recv"
            )
        for sub in ops:
            if not isinstance(sub, (Send, Recv)):
                raise RuntimeSimulationError(
                    f"process {proc.name} yielded Par containing {sub!r}; "
                    "every Par member must be a Send or Recv"
                )
        k = len(ops)
        slots = proc.par_slots
        if slots is None or len(slots) != k:
            slots = proc.par_slots = [_Slot(None) for _ in range(k)]
        proc.single = False
        proc.slots = slots
        pending = 0
        for i, sub in enumerate(ops):
            slot = slots[i]
            slot.op = sub
            slot.done = False
            slot.result = None
            if sub.__class__ is Send:
                if not self._try_send(proc, slot):
                    pending += 1
            elif not self._try_recv(proc, slot):
                pending += 1
        proc.pending = pending
        if pending == 0:
            self._ready.append(proc)
            return
        for slot in slots:
            if slot.done:
                continue
            chan: Channel = slot.op.channel
            if slot.op.__class__ is Send:
                chan.waiting_senders.append((proc, slot))
            else:
                chan.waiting_receivers.append((proc, slot))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _advance(self, proc: _ProcState, value: Any) -> None:
        """Drive one generator step and handle the yielded request."""
        try:
            op = proc.gen.send(value)
        except StopIteration:
            proc.finished = True
            return
        proc.yield_clock = proc.clock
        tp = op.__class__
        if tp is Send:
            self._single_send(proc, op)
        elif tp is Recv:
            self._single_recv(proc, op)
        else:
            self._request_par(proc, op)

    def run(self, max_rounds: int | None = None) -> SchedulerStats:
        """Run all processes to completion; returns aggregate stats.

        A scheduler runs exactly once: generators are consumed and channel
        state is final, so a second call raises
        :class:`RuntimeSimulationError` instead of silently returning fresh
        zero-round stats computed from stale state.  Instantiate a new
        network (``NetworkPlan.instantiate``) to execute again.
        """
        if self._ran:
            raise RuntimeSimulationError(
                "scheduler already ran: processes are exhausted and channel "
                "state is final; instantiate a fresh network to run again"
            )
        self._ran = True
        if self._worker_of is not None:
            missing = sorted(self._names - set(self._worker_of))
            if missing:
                shown = ", ".join(missing[:10])
                if len(missing) > 10:
                    shown += f", ... and {len(missing) - 10} more"
                raise RuntimeSimulationError(
                    f"worker assignment leaves {len(missing)} spawned "
                    f"process(es) uncovered: {shown}"
                )
        trace = self._trace
        ready = self._ready
        worker_of = self._worker_of
        worker_clock = self._worker_clock
        rounds = 0
        advance = self._advance
        for proc in self._procs:
            advance(proc, None)
        while ready:
            rounds += 1
            if max_rounds is not None and rounds > max_rounds:
                raise RuntimeSimulationError(f"exceeded {max_rounds} scheduler rounds")
            proc = ready.popleft()
            if proc.finished or proc.slots is None:
                continue
            if proc.single:
                slot = proc.own_slot
                incomplete = not slot.done
                value = slot.result
                kind = "send" if proc.is_send else "recv"
            else:
                incomplete = proc.pending
                value = [s.result for s in proc.slots]
                kind = "par"
            if incomplete:
                raise RuntimeSimulationError(
                    f"process {proc.name} resumed with incomplete request"
                )
            proc.slots = None
            if worker_of is None:
                proc.clock += 1
            else:
                self._charge_worker(proc, worker_of, worker_clock)
            if trace is not None:
                trace(proc.name, proc.clock, kind)
            advance(proc, value)
        unfinished = [p for p in self._procs if not p.finished]
        if unfinished:
            raise DeadlockError(self._deadlock_report(unfinished))
        stats = SchedulerStats()
        stats.process_count = len(self._procs)
        stats.scheduler_rounds = rounds
        stats.makespan = max((p.clock for p in self._procs), default=0)
        stats.per_process_clock = {p.name: p.clock for p in self._procs}
        stats.per_channel_messages = {
            c.name: c.messages_carried for c in self._channels
        }
        stats.total_messages = sum(stats.per_channel_messages.values())
        return stats

    @staticmethod
    def _charge_worker(
        proc: _ProcState, worker_of: dict[str, int], worker_clock: dict[int, int]
    ) -> None:
        """Serialize the resume tick through the process's physical worker.

        ``run()`` validated coverage up front, so the lookup cannot miss.
        """
        worker = worker_of[proc.name]
        busy_until = worker_clock.get(worker, 0)
        proc.clock = max(proc.clock, busy_until) + 1
        worker_clock[worker] = proc.clock

    def _deadlock_report(self, unfinished: list[_ProcState]) -> str:
        lines = [f"deadlock: {len(unfinished)} process(es) cannot progress"]
        for p in unfinished[:20]:
            if p.slots is None:
                lines.append(f"  {p.name}: not blocked on any channel (lost)")
                continue
            waits = ", ".join(
                f"{'send' if isinstance(s.op, Send) else 'recv'} {s.op.channel.name}"
                for s in p.slots
                if not s.done
            )
            lines.append(f"  {p.name}: waiting on {waits}")
        if len(unfinished) > 20:
            lines.append(f"  ... and {len(unfinished) - 20} more")
        return "\n".join(lines)
