"""Lowering a symbolic SystolicProgram to a concrete process network.

Every symbolic quantity the scheme derived -- ``first``/``last``/``count``,
``soak``/``drain``, the i/o repeaters, Eq. 10 pass amounts -- is evaluated
here at a concrete problem size and *drives the actual execution*, so an
end-to-end run is a genuine test of the derivations, not of a parallel
re-implementation.

Network shape, per stream ``s`` with hop vector ``h`` (the one-process move
of its elements) and flow denominator ``m``:

* *pipes* are the maximal chains of process-space points along ``h``;
* an input process feeds the upstream end of each pipe and an output
  process drains the downstream end (Sections 6.3, 7.3 -- the chain ends
  are exactly the deduplicated boundary sets of Eq. 5);
* each link *into* a process-space node carries ``m - 1`` interposed latch
  buffer processes (Section 7.6; like the paper's D.1 program, the link
  from the input process gets them too, the link into the output process
  does not);
* process-space points outside the computation space become external
  buffers: one pass-loop process per stream, composed in parallel exactly
  like the ``par pass a / pass b`` of the E.2.7 buffer code.

Computation processes run the phases of the target program
(:mod:`repro.target.ast`): stationary loads, then the moving soaks; the
repeater loop with par-receives and par-sends around the basic statement;
then the moving drains and stationary recoveries.

Construction is split in two so repeated executions of one design skip the
symbolic work entirely:

* a :class:`NetworkPlan` captures everything derivable from ``(sp, env)``
  alone -- chain enumeration, channel names and endpoints, per-node
  amounts, pipe element lists, and one process factory per process holding
  its channel indices and, for a computation process, its soak and drain
  pass orders -- and is memoized by content in a bounded LRU
  (:func:`network_plan`);
* :meth:`NetworkPlan.instantiate` wires fresh channels and generators into
  a runnable :class:`ProcessNetwork` in one linear pass, preserving the
  exact channel/process creation order (and hence the deterministic FIFO
  interleaving) of the original single-shot builder.  Each factory builds
  its process's requests here, once: a run only sets ``Send.value``.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro import profiling

from repro.core.memo import program_fingerprint, stable_key
from repro.core.program import StreamPlan, SystolicProgram
from repro.geometry.point import Point
from repro.lang.expr import RuntimeValue
from repro.runtime.channel import Channel
from repro.runtime.host import Host
from repro.runtime.ops import Par, Recv, Send
from repro.runtime.scheduler import Scheduler, SchedulerStats
from repro.symbolic.affine import Numeric
from repro.target.ast import LoadPhase, PassPhase, RecoverPhase, _round_robin
from repro.target.build import build_target_program
from repro.util.cache import BoundedLRU
from repro.util.errors import RuntimeSimulationError

if TYPE_CHECKING:
    from repro.extensions.partition import PartitionedSchedule


def _as_count(value: Any) -> int:
    """Evaluate-result -> non-negative int (None means zero/null).

    Evaluation returns an ``int`` for every integral value, so any other
    type is a non-integer count.
    """
    if value is None:
        return 0
    if type(value) is not int:
        raise RuntimeSimulationError(f"non-integer count {value}")
    if value < 0:
        raise RuntimeSimulationError(f"negative count {value}")
    return value


@dataclass
class ProcessNetwork:
    """A fully instantiated network, ready to run.

    It copies nothing from its :attr:`plan`, which one cache entry shares
    with every other run; the plan's conservation check is
    :meth:`NetworkPlan.validate`.
    """

    plan: NetworkPlan
    host: Host
    scheduler: Scheduler
    #: channels whose endpoints were folded onto different physical
    #: workers and therefore carry inter-band buffer space (LSGP fold)
    interband_channels: int = 0

    @property
    def node_counts(self) -> Mapping[str, int]:
        """Processes per kind: a read-only view of the plan's table."""
        return MappingProxyType(self.plan.node_counts)

    def run(self, max_rounds: int | None = None) -> SchedulerStats:
        return self.scheduler.run(max_rounds=max_rounds)


#: a process factory: given the instantiation's channel list and host,
#: return the live generator for one process.
_Factory = Callable[[list[Channel], Host], Any]


# ----------------------------------------------------------------------
# process bodies
# ----------------------------------------------------------------------
# Each process is one of the generators below, started by its factory with
# requests the factory built: one Recv and one Send per channel end, and
# one Par of each for a repeater, reused for every message.  A process
# never has two outstanding requests, and a parked Send's value is read
# before its process resumes to set the next one.


def _forward(recv: Recv, send: Send, count: int):
    """A latch, or one stream's pass loop of an external buffer."""
    for _ in range(count):
        send.value = yield recv
        yield send


def _feed(send: Send, host: Host, var: str, elements: list[Point]):
    """An input process: the pipe's elements, read from the host."""
    read = host.read_element
    for element in elements:
        send.value = read(var, element)
        yield send


def _collect(recv: Recv, host: Host, var: str, elements: list[Point]):
    """An output process: the pipe's elements, written back to the host."""
    write = host.write_element
    for element in elements:
        value = yield recv
        write(var, element, value)


class _ComputeProcess:
    """The factory of one computation process, holding what the plan fixed
    for it: the channel indices of its streams (``moving + stationary``
    order, so request ``k`` serves that stream ``k``), its per-statement
    index environments, and its two pass phases as flat request-index
    pairs."""

    __slots__ = ("moving", "stationary", "ins", "outs", "holds",
                 "soak", "drain", "index_envs", "execute")

    def __init__(self, *, moving, stationary, ins, outs, amounts, index_envs,
                 execute) -> None:
        self.moving = moving
        self.stationary = stationary
        self.ins = ins
        self.outs = outs
        #: per stationary stream: (name, request index, soak, drain)
        self.holds = tuple(
            (n, k, *amounts[n]) for k, n in enumerate(stationary, len(moving))
        )
        io = [(n, k, k) for k, n in enumerate(moving)]
        self.soak = _round_robin(io, [amounts[n][0] for n in moving])
        self.drain = _round_robin(io, [amounts[n][1] for n in moving])
        self.index_envs = index_envs
        self.execute = execute

    def __call__(self, channels: list[Channel], host: Host):
        recvs = [Recv(channels[i]) for i in self.ins]
        sends = [Send(channels[i], None) for i in self.outs]
        m = len(self.moving)
        if not m:
            return self._body(recvs, sends, None, None)
        return self._body(recvs, sends, Par(recvs[:m]), Par(sends[:m]))

    def _body(self, recvs: list[Recv], sends: list[Send],
              par_recv: Par | None, par_send: Par | None):
        moving, stationary, holds = self.moving, self.stationary, self.holds
        execute = self.execute
        local: dict[str, RuntimeValue] = {}
        # -- pre phase: stationary loads, then the moving soaks --------------
        for n, k, _, drain in holds:
            recv, send = recvs[k], sends[k]
            local[n] = yield recv
            for _ in range(drain):  # loading passes = drain (Sect. 6.5)
                send.value = yield recv
                yield send
        # the soak pass phase, then the repeater and the drain pass phase;
        # a pass phase is flat (in, out) request-index pairs
        for after_repeater, pairs in enumerate((self.soak, self.drain)):
            if after_repeater:  # the basic statements of this process
                for indices in self.index_envs:
                    if par_recv is not None:
                        values = dict(zip(moving, (yield par_recv)))
                        values.update(local)
                    else:
                        values = dict(local)
                    updated = execute(values, indices)
                    for n in stationary:
                        local[n] = updated[n]
                    if par_send is not None:
                        for n, send in zip(moving, sends):
                            send.value = updated[n]
                        yield par_send
            for i, o in pairs:
                send = sends[o]
                send.value = yield recvs[i]
                yield send
        # -- post phase: stationary recoveries -------------------------------
        for n, k, soak, _ in holds:
            recv, send = recvs[k], sends[k]
            for _ in range(soak):  # recovery passes = soak (Sect. 6.5)
                send.value = yield recv
                yield send
            send.value = local[n]
            yield send


class NetworkPlan:
    """Everything :func:`build_network` can derive from ``(sp, env)`` alone.

    The plan holds channel *specs* (name + process-space endpoints) and
    process *specs* (name, process-space position, and a factory holding
    precomputed amounts, element lists, channel indices and pass orders);
    :meth:`instantiate` binds them to fresh :class:`Channel`, request and
    generator objects.  One plan serves any number of executions, any channel
    capacity, and any LSGP fold -- those are instantiation-time choices.
    """

    __slots__ = (
        "sp", "env", "channel_names", "channel_ends", "processes", "names",
        "node_counts", "chain_totals", "amounts", "_validated",
        "__weakref__",
    )

    def __init__(self, sp: SystolicProgram, env: Mapping[str, Numeric]) -> None:
        self.sp = sp
        self.env = dict(env)
        self.channel_names: list[str] = []
        self.channel_ends: list[tuple[Point | None, Point | None]] = []
        self.processes: list[tuple[str, Point, _Factory]] = []
        self.node_counts = {
            "compute": 0, "buffer": 0, "latch": 0, "input": 0, "output": 0
        }
        self.chain_totals: dict[tuple[str, Point], int] = {}
        self.amounts: dict[Point, tuple[int, Mapping[str, tuple[int, int]]]] = {}
        self._validated = False
        _PlanBuilder(self).build()
        #: the process names, checked unique here once for every instantiation
        self.names = _checked_names(self.processes)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """The conservation law, checked once per plan: at every
        computation process, the derived per-node amounts account exactly
        for its chain's elements:

        * moving stream:     soak + count + drain == chain total,
        * stationary stream: soak +   1   + drain == chain total.

        A violation means the symbolic derivations disagree with the pipe
        enumeration and the run would deadlock; raising here gives a much
        better diagnostic.
        """
        if self._validated:
            return
        for y, (count, per_stream) in self.amounts.items():
            for stream in self.sp.streams:
                total = self.chain_totals.get((stream.name, y))
                if total is None:
                    raise RuntimeSimulationError(
                        f"no chain covers {stream.name} at {y}"
                    )
                soak, drain = per_stream[stream.name]
                middle = 1 if stream.stationary else count
                if soak + middle + drain != total:
                    raise RuntimeSimulationError(
                        f"conservation violated for {stream.name} at {y}: "
                        f"{soak} + {middle} + {drain} != {total}"
                    )
        self._validated = True

    def instantiate(
        self,
        inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
        *,
        channel_capacity: int = 1,
        fold: PartitionedSchedule | None = None,
    ) -> ProcessNetwork:
        """Wire fresh channels and processes; linear in the network size.

        Channel and process creation order match the plan's build order
        exactly, so every instantiation executes the same deterministic
        FIFO interleaving.

        ``fold`` (an LSGP :class:`PartitionedSchedule`) pins every process
        to ``fold.worker_of(position)`` and gives each channel between
        positions on different workers the fold's inter-band buffer
        capacity; intra-band channels keep ``channel_capacity``.  Extra
        buffer space never changes results (Kahn determinism) -- only the
        timing model.
        """
        host = Host(self.sp.source, self.env, inputs)
        scheduler = Scheduler()
        channels = [Channel(name, channel_capacity) for name in self.channel_names]
        interband = 0
        if fold is not None:
            worker_of = fold.worker_of
            buffered = max(channel_capacity, fold.interband_capacity)
            for chan, (src, dst) in zip(channels, self.channel_ends):
                if None not in (src, dst) and worker_of(src) != worker_of(dst):
                    chan.capacity = buffered
                    interband += 1
            scheduler.assign_workers(
                {name: worker_of(position) for name, position, _ in self.processes}
            )
        for chan in channels:
            scheduler.add_channel(chan)
        scheduler.spawn_network(
            self.names,
            (
                (name, factory(channels, host))
                for name, _position, factory in self.processes
            ),
        )
        return ProcessNetwork(self, host, scheduler, interband)


def _checked_names(processes: list[tuple[str, Point, _Factory]]) -> frozenset[str]:
    """The set of the process names; a duplicate raises."""
    names: set[str] = set()
    for name, _position, _factory in processes:
        if name in names:
            raise RuntimeSimulationError(f"duplicate process name {name!r}")
        names.add(name)
    return frozenset(names)


class _PlanBuilder:
    """Builds a :class:`NetworkPlan`: same traversal as the original
    single-shot network builder (channel/process order is preserved), but
    emitting channel specs and process factories instead of live objects."""

    def __init__(self, plan: NetworkPlan) -> None:
        self.plan = plan
        self.sp = plan.sp
        self.env = plan.env
        #: every process-space point, found by its int tuple: chains are
        #: walked on plain tuples and mapped back to the point here
        self.nodes = {y: y for y in self.sp.process_space(self.env)}
        self.labels = {y: repr(y) for y in self.nodes}
        #: the computation process's loads, pass phases and recoveries
        phases = build_target_program(self.sp).compute.phases
        self.loads = [p for p in phases if isinstance(p, LoadPhase)]
        self.pass_phases = [p for p in phases if isinstance(p, PassPhase)]
        self.recoveries = [p for p in phases if isinstance(p, RecoverPhase)]
        self.moving = tuple(n for n, _ in self.pass_phases[0].passes)
        self.stationary = tuple(p.stream for p in self.loads)
        self.index_base = {k: int(v) for k, v in self.env.items()}
        #: per stream name: {point: channel index} for links INTO / OUT OF a node
        self.in_chan: dict[str, dict[Point, int]] = {}
        self.out_chan: dict[str, dict[Point, int]] = {}
        self._bindings: dict[Point, dict] = {}
        self._in_cs_cache: dict[Point, bool] = {}

    def _bind(self, y: Point) -> dict:
        binding = self._bindings.get(y)
        if binding is None:
            binding = self._bindings[y] = self.sp.bind(y, self.env)
        return binding

    def _in_cs(self, y: Point) -> bool:
        member = self._in_cs_cache.get(y)
        if member is None:
            first = self.sp.first
            member = self._in_cs_cache[y] = (
                not first.has_default or first.any_case_holds(self._bind(y))
            )
        return member

    # ------------------------------------------------------------------
    def _channel(
        self, name: str, src: Point | None = None, dst: Point | None = None
    ) -> int:
        self.plan.channel_names.append(name)
        self.plan.channel_ends.append((src, dst))
        return len(self.plan.channel_names) - 1

    def _chains(self, hop: Point) -> Iterator[list[Point]]:
        nodes = self.nodes
        for y in nodes:
            if tuple(map(operator.sub, y, hop)) in nodes:
                continue
            chain = []
            z = y
            while z is not None:
                chain.append(z)
                z = nodes.get(tuple(map(operator.add, z, hop)))
            yield chain

    # ------------------------------------------------------------------
    @staticmethod
    def _latch_factory(cin: int, cout: int, count: int) -> _Factory:
        def make(channels: list[Channel], host: Host):
            return _forward(Recv(channels[cin]), Send(channels[cout], None), count)

        return make

    def _build_stream(self, plan: StreamPlan) -> None:
        """Pipes, latches and i/o processes for one stream."""
        name = plan.name
        self.in_chan[name] = {}
        self.out_chan[name] = {}
        latches = plan.internal_buffers()
        labels = self.labels
        for chain in self._chains(plan.hop):
            start, end = chain[0], chain[-1]
            binding = self._bind(start)
            if any(self._in_cs(z) for z in chain):
                total = _as_count(plan.pass_amount.evaluate(binding))
            else:
                total = 0  # no basic statement on the pipe: nothing to move
            for z in chain:
                self.plan.chain_totals[(name, z)] = total
            # channels along the chain; latches on every link into a node
            for idx, y in enumerate(chain):
                label = labels[y]
                src = f"{name}_in" if idx == 0 else f"{name}{labels[chain[idx - 1]]}"
                link_in = self._channel(
                    f"{name}_chan[{src}->{label}]",
                    src=None if idx == 0 else chain[idx - 1],
                    dst=y,
                )
                if idx == 0:
                    head_channel = link_in
                else:
                    self.out_chan[name][chain[idx - 1]] = link_in
                feed = link_in
                for k in range(latches):
                    buffered = self._channel(f"{name}_buff[{label}#{k}]")
                    self.plan.processes.append(
                        (
                            f"L:{name}{label}#{k}",
                            y,
                            self._latch_factory(feed, buffered, total),
                        )
                    )
                    self.plan.node_counts["latch"] += 1
                    feed = buffered
                self.in_chan[name][y] = feed
            tail = self._channel(f"{name}_chan[{labels[end]}->out]")
            self.out_chan[name][end] = tail
            # i/o processes (null pipes still get processes that do nothing,
            # like the paper's null communications)
            elements = list(self._pipe_elements(plan, binding, total))
            var = name

            def make_input(channels, host, *, _chan=head_channel, _elems=elements, _var=var):
                return _feed(Send(channels[_chan], None), host, _var, _elems)

            def make_output(channels, host, *, _chan=tail, _elems=elements, _var=var):
                return _collect(Recv(channels[_chan]), host, _var, _elems)

            self.plan.processes.append((f"IN:{name}{labels[start]}", start, make_input))
            self.plan.processes.append((f"OUT:{name}{labels[end]}", end, make_output))
            self.plan.node_counts["input"] += 1
            self.plan.node_counts["output"] += 1

    def _pipe_elements(
        self, plan: StreamPlan, binding: Mapping[str, Numeric], total: int
    ) -> Iterator[Point]:
        if total == 0:
            return
        first = plan.first_s.evaluate(binding)
        if first is None:
            raise RuntimeSimulationError(
                f"stream {plan.name}: pass amount {total} but null first_s"
            )
        if not first.is_integral:
            raise RuntimeSimulationError(
                f"stream {plan.name}: non-integral first_s {first}"
            )
        # Integral coordinates need no normalization: each element is built
        # as a Point straight from its int tuple.
        increment = plan.increment_s
        current = first
        for _ in range(total):
            yield current
            current = tuple.__new__(Point, map(operator.add, current, increment))

    # ------------------------------------------------------------------
    def _build_buffer_node(self, y: Point) -> None:
        """PS \\ CS: one parallel pass-loop per stream (E.2.7 buffer code)."""
        for plan in self.sp.streams:
            amount = self.plan.chain_totals[(plan.name, y)]
            cin = self.in_chan[plan.name][y]
            cout = self.out_chan[plan.name][y]
            self.plan.processes.append(
                (f"B:{plan.name}{self.labels[y]}", y,
                 self._latch_factory(cin, cout, amount))
            )
        self.plan.node_counts["buffer"] += 1

    def _build_compute_node(self, y: Point) -> None:
        sp = self.sp
        binding = self._bind(y)
        index_env, index_base = sp.source.index_env, self.index_base
        moving, stationary = self.moving, self.stationary
        # Body.execute treats the index binding as read-only, so the merged
        # per-statement index environments are computed once per plan and
        # shared by every execution.
        index_envs = [
            dict(index_base, **index_env(x)) for x in sp.repeater.enumerate_at(binding)
        ]

        def count(amount) -> int:
            return _as_count(amount.evaluate(binding))

        # per stream (soak, drain): stationary recovery and loading passes
        soak, drain = ({n: count(a) for n, a in p.passes} for p in self.pass_phases)
        soak.update((p.stream, count(p.passes)) for p in self.recoveries)
        drain.update((p.stream, count(p.passes)) for p in self.loads)
        amounts = {n: (soak[n], drain[n]) for n in soak}
        # Read-only: the plan, and so this mapping, is shared by every run.
        self.plan.amounts[y] = (count(sp.count), MappingProxyType(amounts))
        self.plan.processes.append((f"P{self.labels[y]}", y, _ComputeProcess(
            moving=moving,
            stationary=stationary,
            ins=tuple(self.in_chan[n][y] for n in moving + stationary),
            outs=tuple(self.out_chan[n][y] for n in moving + stationary),
            amounts=amounts,
            index_envs=index_envs,
            execute=sp.source.body.execute,
        )))
        self.plan.node_counts["compute"] += 1

    # ------------------------------------------------------------------
    def build(self) -> None:
        for plan in self.sp.streams:
            self._build_stream(plan)
        for y in self.nodes:
            if self._in_cs(y):
                self._build_compute_node(y)
            else:
                self._build_buffer_node(y)


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------
#: content key -> NetworkPlan.  Every compile of one design shares a key, a
#: planted mutation does not.
PLAN_CACHE = BoundedLRU(64)


def plan_stats() -> dict:
    """Build/reuse/eviction counters and the cache size."""
    s = PLAN_CACHE.stats()
    return {"builds": s["misses"], "reuses": s["hits"],
            "evictions": s["evictions"], "size": s["size"]}


profiling.register("network_plans", plan_stats)


def _plan_key(sp: SystolicProgram, env: Mapping[str, Numeric]) -> tuple:
    """Source text, every derived quantity the builder reads, and the size
    binding; forms by ``stable_key`` since their ``==`` ignores order."""
    streams = tuple((p.name, p.stationary, p.hop, p.denominator, p.increment_s,
                     *map(stable_key, (p.first_s, p.last_s, p.soak, p.drain, p.pass_amount)))
                    for p in sp.streams)
    forms = tuple(map(stable_key, (sp.first, sp.last, sp.count)))
    return (program_fingerprint(sp.source), sp.coords, sp.ps_min, sp.ps_max,
            sp.increment, forms, streams, tuple(sorted(env.items())))


def network_plan(sp: SystolicProgram, env: Mapping[str, Numeric]) -> NetworkPlan:
    """The memoized :class:`NetworkPlan` for ``(sp, env)``."""
    return PLAN_CACHE.get_or_build(_plan_key(sp, env), lambda: NetworkPlan(sp, env))


def build_network(
    sp: SystolicProgram,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None,
    *,
    channel_capacity: int = 1,
) -> ProcessNetwork:
    """Instantiate a compiled program at a concrete problem size."""
    return network_plan(sp, env).instantiate(
        inputs, channel_capacity=channel_capacity
    )


def execute(
    sp: SystolicProgram,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
    *,
    channel_capacity: int = 1,
    fold: PartitionedSchedule | None = None,
    max_rounds: int | None = None,
) -> tuple[dict, SchedulerStats]:
    """Build, run, and return ``(final variable state, stats)``.

    The pre-flight conservation check (better diagnostics than a
    deadlock) runs once per plan: every element of every variable must be
    recovered exactly once.  ``fold`` runs the network folded onto a fixed
    physical array (see :meth:`NetworkPlan.instantiate`); the stats then
    carry the folded makespan.
    """
    t0 = time.perf_counter()
    plan = network_plan(sp, env)
    plan.validate()
    network = plan.instantiate(
        inputs, channel_capacity=channel_capacity, fold=fold
    )
    t1 = time.perf_counter()
    stats = network.run(max_rounds=max_rounds)
    for splan in sp.streams:
        network.host.check_full_recovery(splan.name)
    t2 = time.perf_counter()
    profiling.add_stage("network.build", t1 - t0)
    profiling.add_stage("network.execute", t2 - t1)
    return network.host.final, stats
