"""The deterministic process scheduler.

Processes are generators yielding :class:`Send`/:class:`Recv`/:class:`Par`
requests.  The scheduler advances ready processes round-robin; a request
that cannot complete parks the process on the channel ends involved, and
any communication that frees space / delivers data immediately completes
the parked counterpart, so progress is work-driven rather than
poll-driven.

Determinism: the ready queue is FIFO and each channel end holds at most
one parked waiter, so a given network always executes the same
interleaving -- failures reproduce.  A channel links two processes
(Section 4): parking on an end another waiter holds would lose one, so it
raises :class:`RuntimeSimulationError` naming the channel and both.

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

The ``run`` loop resumes a generator and dispatches what it yields on the
request's class.  Two request shapes share one set of channel transitions
-- rendezvous with a parked partner, push into free space, pop from the
queue, or park:

* a bare ``Send`` or ``Recv`` -- the pass-throughs of latches, buffers and
  i/o processes and of compute processes' soaks and drains, about three
  quarters of all yields on a paper design -- completes or parks through
  one reused slot per process;
* a ``Par`` -- the paper's ``par ... end par`` around the basic
  statement's communications -- has its member tuple validated unless the
  same tuple object is one of the last two its process yielded and
  passed, then each member runs the same transitions in order into a
  reused slot vector; a counter of its not-yet-completed members decides
  when the process is ready again.

A parked ``Par`` member is woken by a bare partner and vice versa.
Requests carry no per-use state beyond ``Send.value``, so processes build
theirs once (``runtime/network.py``) and the scheduler allocates nothing
per request but the ``Message`` a push queues and the result list a
``Par`` resumes with.  The resulting values, stats, trace streams and
deadlock reports are pinned by digest in
``tests/runtime/test_sched_golden.py``; the sequential oracle stays the
reference for values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable

from repro.runtime.channel import Channel, Message
from repro.runtime.ops import Op, Par, Recv, Send
from repro.util.errors import DeadlockError, RuntimeSimulationError

ProcessBody = Generator[Op, Any, None]

#: trace kinds of a process's current request; the resume path tests
#: ``kind is _PAR`` to pick the result shape
_SEND, _RECV, _PAR = "send", "recv", "par"


class _Slot:
    """One sub-operation of a pending request."""

    __slots__ = ("op", "done", "result")

    def __init__(self, op) -> None:
        self.op = op
        self.done = False
        self.result: Any = None


class _ProcState:
    __slots__ = ("name", "gen", "slots", "clock", "yield_clock", "finished",
                 "own_slot", "own_list", "kind", "par_slots", "pending",
                 "checked", "checked_before")

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
        #: the current request's trace kind: ``_SEND``/``_RECV`` for a bare
        #: request (the resume reads ``own_slot``), ``_PAR`` for a Par
        self.kind = _RECV
        #: reusable slot vector for Pars (the Par analogue of own_slot --
        #: safe for the same reason) and the count of its not-yet-completed
        #: slots, which decides when the process is ready again
        self.par_slots: list[_Slot] | None = None
        self.pending = 0
        #: the last two Par member tuples that passed validation (a compute
        #: process alternates between its receive and its send Par).  The
        #: references keep them alive, so an ``is`` match proves the same
        #: immutable tuple passed before.
        self.checked: tuple | None = None
        self.checked_before: tuple | None = None


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
        #: spawned process names; a network shares its plan's frozenset
        self._names: set[str] | frozenset[str] = set()
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
        """Register a process; a name already spawned raises."""
        names = self._names
        if name in names:
            raise RuntimeSimulationError(f"duplicate process name {name!r}")
        if type(names) is frozenset:  # a network's names: copy on first spawn
            names = self._names = set(names)
        names.add(name)
        self._procs.append(_ProcState(name, gen))

    def spawn_network(
        self, names: frozenset[str], processes: Iterable[tuple[str, ProcessBody]]
    ) -> None:
        """Register a whole network's processes, in order, into an empty
        scheduler.

        ``names`` are their names, which the network's plan checked for
        duplicates once when it was built, so no name is checked here.
        """
        if self._procs:
            raise RuntimeSimulationError("a network spawns into an empty scheduler")
        self._names = names
        self._procs = [_ProcState(name, gen) for name, gen in processes]

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def _drain_sender(self, chan: Channel) -> None:
        """A receive freed space: complete the parked send, if any.

        (Data never appears beside a parked receiver: every send hands its
        value to one instead of pushing, so receives need no drain.)
        """
        waiter = chan.sender
        if waiter is not None and chan.has_room():
            chan.sender = None
            other, sslot = waiter
            chan.push(sslot.op.value, other.yield_clock + 1)
            sslot.done = True
            # wake: a bare request just completed; a Par counts down, as in
            # the request paths below
            if other.kind is not _PAR:
                self._ready.append(other)
            elif other.slots is not None:
                other.pending -= 1
                if other.pending == 0:
                    self._ready.append(other)

    # ------------------------------------------------------------------
    # requests: complete or park against the channel directly
    # ------------------------------------------------------------------
    @staticmethod
    def _second_waiter(
        chan: Channel, proc: _ProcState, sending: bool
    ) -> RuntimeSimulationError:
        held = chan.sender if sending else chan.receiver
        verb = "send on" if sending else "receive from"
        return RuntimeSimulationError(
            f"channel {chan.name}: {proc.name} would wait to {verb} it while "
            f"{held[0].name} already waits there; a channel links one sender "
            "and one receiver"
        )

    def _single_send(self, proc: _ProcState, op) -> None:
        """A bare ``Send``: rendezvous, push, or park.

        A parked counterpart enqueues *before* this process, exactly as
        for a ``Par`` member, so a send behaves the same whichever request
        shape carries it.
        """
        proc.kind = _SEND
        slot = proc.own_slot
        slot.result = None
        proc.slots = proc.own_list
        chan: Channel = op.channel
        ready = self._ready
        waiter = chan.receiver
        if waiter is not None:
            chan.receiver = None
            other, rslot = waiter
            # rendezvous: hand the value straight to the parked receiver
            rslot.done = True
            rslot.result = op.value
            chan.messages_carried += 1
            stamp = proc.yield_clock + 1
            if stamp > other.clock:
                other.clock = stamp
            slot.done = True
            # wake: rslot just completed, so a bare-request peer is ready
            # by construction; a Par peer decrements its pending counter
            if other.kind is not _PAR:
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
            # push into free space (inlined Channel.push); no receiver is
            # parked, so there is nobody to hand it to
            queue.append(Message(op.value, proc.yield_clock + 1))
            chan.messages_carried += 1
            if len(queue) > chan.max_occupancy:
                chan.max_occupancy = len(queue)
            slot.done = True
            ready.append(proc)
            return
        # park: only now does anyone else read the slot's op (the drain
        # takes the value from it; the deadlock report names it)
        if chan.sender is not None:
            raise self._second_waiter(chan, proc, True)
        slot.op = op
        slot.done = False
        chan.sender = (proc, slot)

    def _single_recv(self, proc: _ProcState, op) -> None:
        """A bare ``Recv``: pop, rendezvous, or park."""
        proc.kind = _RECV
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
            if chan.sender is not None:
                self._drain_sender(chan)
            ready.append(proc)
            return
        waiter = chan.sender
        if waiter is not None:
            chan.sender = None
            other, sslot = waiter
            # rendezvous: take the value straight from the parked sender
            sslot.done = True
            slot.done = True
            slot.result = sslot.op.value
            chan.messages_carried += 1
            stamp = other.yield_clock + 1
            if stamp > proc.clock:
                proc.clock = stamp
            # wake, as in _single_send
            if other.kind is not _PAR:
                ready.append(other)
            elif other.slots is not None:
                pending = other.pending - 1
                other.pending = pending
                if pending == 0:
                    ready.append(other)
            ready.append(proc)
            return
        if chan.receiver is not None:
            raise self._second_waiter(chan, proc, False)
        slot.op = op
        slot.done = False
        slot.result = None
        chan.receiver = (proc, slot)

    def _check_par(self, proc: _ProcState, op: Any) -> tuple:
        """Validate a yield that is neither a bare ``Send`` nor ``Recv``: it
        must be a ``Par`` of at least one ``Send``/``Recv``.  A valid
        member tuple is remembered, so its next yields skip this."""
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
        if type(ops) is tuple:
            proc.checked_before = proc.checked
            proc.checked = ops
        return ops

    def _request_par(self, proc: _ProcState, op: Any) -> None:
        """Dispatch a ``Par``'s members in order and park the incomplete
        ones.

        Each member runs the bare paths' transitions, but the process
        itself is made ready only once, after the last member, when none
        is pending.  The slot vector is reused across requests (the Par
        analogue of ``own_slot`` -- every slot is completed and unparked
        before the process resumes, so no live reference remains), and
        completion is tracked by the ``pending`` counter its partners'
        wake-ups count down.
        """
        ops = op.ops if op.__class__ is Par else None
        if ops is None or (
            ops is not proc.checked and ops is not proc.checked_before
        ):
            ops = self._check_par(proc, op)
        slots = proc.par_slots
        if slots is None or len(slots) != len(ops):
            slots = proc.par_slots = [_Slot(None) for _ in ops]
        proc.kind = _PAR
        proc.slots = slots
        ready = self._ready
        stamp = proc.yield_clock + 1
        pending = 0
        for slot, sub in zip(slots, ops):
            slot.op = sub
            slot.result = None
            chan: Channel = sub.channel
            if sub.__class__ is Send:
                waiter = chan.receiver
                if waiter is not None:
                    chan.receiver = None
                    other, rslot = waiter
                    rslot.done = True
                    rslot.result = sub.value
                    chan.messages_carried += 1
                    if stamp > other.clock:
                        other.clock = stamp
                    if other.kind is not _PAR:
                        ready.append(other)
                    elif other.slots is not None:
                        other.pending -= 1
                        if other.pending == 0:
                            ready.append(other)
                else:
                    queue = chan.queue
                    if len(queue) >= chan.capacity:
                        slot.done = False
                        pending += 1
                        continue
                    queue.append(Message(sub.value, stamp))
                    chan.messages_carried += 1
                    if len(queue) > chan.max_occupancy:
                        chan.max_occupancy = len(queue)
            else:
                queue = chan.queue
                if queue:
                    msg = queue.popleft()
                    slot.result = msg.value
                    if msg.timestamp > proc.clock:
                        proc.clock = msg.timestamp
                    if chan.sender is not None:
                        self._drain_sender(chan)
                else:
                    waiter = chan.sender
                    if waiter is None:
                        slot.done = False
                        pending += 1
                        continue
                    chan.sender = None
                    other, sslot = waiter
                    sslot.done = True
                    slot.result = sslot.op.value
                    chan.messages_carried += 1
                    sent = other.yield_clock + 1
                    if sent > proc.clock:
                        proc.clock = sent
                    if other.kind is not _PAR:
                        ready.append(other)
                    elif other.slots is not None:
                        other.pending -= 1
                        if other.pending == 0:
                            ready.append(other)
            slot.done = True
        proc.pending = pending
        if pending == 0:
            ready.append(proc)
            return
        for slot in slots:
            if slot.done:
                continue
            chan = slot.op.channel
            if slot.op.__class__ is Send:
                if chan.sender is not None:
                    raise self._second_waiter(chan, proc, True)
                chan.sender = (proc, slot)
            else:
                if chan.receiver is not None:
                    raise self._second_waiter(chan, proc, False)
                chan.receiver = (proc, slot)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
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
        single_send = self._single_send
        single_recv = self._single_recv
        request_par = self._request_par
        rounds = 0
        # Every process is stepped to its first request in spawn order;
        # after that, each round resumes the head of the ready queue.
        starting = deque(self._procs)
        while True:
            if starting:
                proc = starting.popleft()
                value = None
            elif ready:
                rounds += 1
                if max_rounds is not None and rounds > max_rounds:
                    raise RuntimeSimulationError(
                        f"exceeded {max_rounds} scheduler rounds"
                    )
                proc = ready.popleft()
                if proc.finished or proc.slots is None:
                    continue
                if proc.kind is not _PAR:
                    slot = proc.own_slot
                    incomplete = not slot.done
                    value = slot.result
                else:
                    incomplete = proc.pending
                    value = [s.result for s in proc.slots]
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
                    trace(proc.name, proc.clock, proc.kind)
            else:
                break
            try:
                op = proc.gen.send(value)
            except StopIteration:
                proc.finished = True
                continue
            proc.yield_clock = proc.clock
            tp = op.__class__
            if tp is Send:
                single_send(proc, op)
            elif tp is Recv:
                single_recv(proc, op)
            else:
                request_par(proc, op)
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
