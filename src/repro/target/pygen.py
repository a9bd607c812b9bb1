"""The executable Python backend: compile a systolic program to a
standalone, stdlib-only Python module and run it.

:func:`render_python` lowers *every* symbolic quantity of the compiled
program -- ``first``/``count``, ``soak``/``drain``, the i/o repeaters
``{first_s last_s increment_s}``, and the Eq. 8-10 amounts -- from the
piecewise-affine layer into guarded flat Python functions (plain ``if``
chains of ``(affine) >= 0`` tests), and appends a fixed runtime harness.
The emitted module offers two engines over the same process network:

* ``run(sizes, inputs)`` -- a fast cooperative engine: every process is a
  generator that yields the channel it wants to receive from; channels are
  unbounded FIFOs.  No per-message scheduler bookkeeping, no Lamport
  clocks -- this is the compiled fast path.
* ``run_threaded(sizes, inputs)`` -- the paper's target model: one thread
  per process, capacity-1 channels (transputer-style rendezvous) sharing
  one lock that counts blocked threads, so a deadlock is detected the
  moment every live process is blocked instead of by a timeout.

Both engines execute the *same* generator processes and are bit-for-bit
equal to the coroutine simulator and to the sequential oracle: the network
is a Kahn process network (single producer and single consumer per
channel), so results depend only on the per-channel FIFO sequences, never
on scheduling or capacities -- the capacity-invariance property the test
suite asserts for the simulator.  A deadlock raises the module's own
``Deadlock`` (the module imports nothing from ``repro``), naming every
unfinished process the way the simulator does.

:func:`execute_python` renders, compiles (with a per-source cache), and
runs the module on dense inputs, returning tuple-keyed final contents.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Mapping

from repro import profiling
from repro.core.program import SystolicProgram
from repro.lang.expr import Affine, BinOp, Body, Const, IndexExpr, StreamRead
from repro.lang.interpreter import initial_state
from repro.symbolic.affine import AffineVec
from repro.symbolic.compile import guard_chain_lines, render_affine, render_guard
from repro.symbolic.minmax import render_bound
from repro.symbolic.piecewise import Piecewise
from repro.util.cache import BoundedLRU
from repro.util.errors import CompilationError, DeadlockError


def _no_match_line(pad: str) -> str:
    return f"{pad}raise ValueError('no alternative holds for %r' % (env,))"


class _PyRenderer:
    """Symbolic layer -> flat Python source, tracking the Fraction need.

    The affine/guard/guard-chain lowering itself is the shared
    implementation in :mod:`repro.symbolic.compile`; this class only
    supplies the numeral renderer (which tracks whether the emitted module
    needs ``Fraction``) and the statement-level glue.
    """

    def __init__(self) -> None:
        self.needs_fraction = False

    # ------------------------------------------------------------------
    def num(self, value) -> str:
        f = Fraction(value)
        if f.denominator == 1:
            return str(int(f))
        self.needs_fraction = True
        return f"_Fr({f.numerator}, {f.denominator})"

    def affine(self, a: Affine) -> str:
        return render_affine(a, self.num)

    def bound(self, b) -> str:
        # Plain affines render exactly as before; extremum bounds become
        # the min()/max() builtins, so the module needs no extra runtime.
        return render_bound(b, self.affine)

    def guard(self, guard) -> str:
        return render_guard(guard, self.num)

    # ------------------------------------------------------------------
    def scalar_leaf(self, value) -> str:
        if value is None:
            return "None"
        if isinstance(value, Affine):
            return self.affine(value)
        return self.num(value)

    def vector_leaf(self, value) -> str:
        if value is None:
            return "None"
        if not isinstance(value, AffineVec):
            raise CompilationError(f"expected an affine vector, got {value!r}")
        return "(" + ", ".join(self.affine(a) for a in value) + ",)"

    def piecewise_fn(self, name: str, pw: Piecewise, leaf) -> list[str]:
        lines = [f"def {name}(env):"]
        lines.extend(
            guard_chain_lines(pw, leaf, self.guard, _no_match_line, depth=1)
        )
        return lines

    # ------------------------------------------------------------------
    def expr(self, e) -> str:
        if isinstance(e, Const):
            return self.num(e.value) if isinstance(e.value, Fraction) else str(e.value)
        if isinstance(e, StreamRead):
            return f"values[{e.name!r}]"
        if isinstance(e, IndexExpr):
            return f"({self.affine(e.affine)})"
        if isinstance(e, BinOp):
            left, right = self.expr(e.left), self.expr(e.right)
            if e.op in ("min", "max"):
                return f"{e.op}({left}, {right})"
            return f"({left} {e.op} {right})"
        raise CompilationError(f"cannot render {e!r}")

    def body_fn(self, body: Body) -> list[str]:
        lines = ["def _body(values, env):"]
        for branch in body.branches:
            pad = "    "
            if branch.condition is not None:
                cond = branch.condition
                lines.append(
                    f"    if ({self.affine(cond.affine)}) {cond.relation} 0:"
                )
                pad = "        "
            for a in branch.assigns:
                lines.append(f"{pad}values[{a.stream!r}] = {self.expr(a.expr)}")
        lines.append("    return values")
        return lines


def render_python(sp: SystolicProgram) -> str:
    """Emit the complete standalone module as a string."""
    r = _PyRenderer()
    body: list[str] = []

    body.append(f"COORDS = {tuple(sp.coords)!r}")
    body.append(f"INDICES = {tuple(sp.source.indices)!r}")
    body.append(f"INCREMENT = {tuple(int(c) for c in sp.increment)!r}")
    body.append("")
    body.append("def _ps_min(env):")
    body.append("    return (" + ", ".join(r.bound(a) for a in sp.ps_min) + ",)")
    body.append("")
    body.append("def _ps_max(env):")
    body.append("    return (" + ", ".join(r.bound(a) for a in sp.ps_max) + ",)")
    body.append("")
    body.extend(r.piecewise_fn("_first", sp.first, r.vector_leaf))
    body.append("")
    body.extend(r.piecewise_fn("_count", sp.count, r.scalar_leaf))
    body.append("")
    body.append("def _in_cs(env):")
    if sp.first.has_default:
        body.append("    return _first(env) is not None")
    else:
        body.append("    return True  # 'first' has no null default: CS = PS")
    body.append("")
    body.extend(r.body_fn(sp.source.body))
    body.append("")

    entries: list[str] = []
    for i, plan in enumerate(sp.streams):
        prefix = f"_s{i}"
        body.extend(r.piecewise_fn(f"{prefix}_first_s", plan.first_s, r.vector_leaf))
        body.append("")
        body.extend(r.piecewise_fn(f"{prefix}_pass", plan.pass_amount, r.scalar_leaf))
        body.append("")
        body.extend(r.piecewise_fn(f"{prefix}_soak", plan.soak, r.scalar_leaf))
        body.append("")
        body.extend(r.piecewise_fn(f"{prefix}_drain", plan.drain, r.scalar_leaf))
        body.append("")
        entries.append(
            "    {"
            + f"'name': {plan.name!r}, "
            + f"'stationary': {plan.stationary!r}, "
            + f"'hop': {tuple(int(c) for c in plan.hop)!r}, "
            + f"'latches': {plan.internal_buffers()!r}, "
            + f"'inc_s': {tuple(int(c) for c in plan.increment_s)!r}, "
            + f"'first_s': {prefix}_first_s, "
            + f"'pass_amount': {prefix}_pass, "
            + f"'soak': {prefix}_soak, "
            + f"'drain': {prefix}_drain"
            + "},"
        )
    body.append("STREAMS = [")
    body.extend(entries)
    body.append("]")

    header = [
        f'"""Standalone systolic program for {sp.source.name!r} '
        f"[{sp.array.name}].",
        "",
        "Generated by repro.target.pygen; requires only the standard library.",
        "",
        "run(sizes, inputs)           -- fast cooperative engine",
        "                                (generator processes, unbounded FIFOs)",
        "run_threaded(sizes, inputs)  -- threads + capacity-1 channels",
        "                                (the paper's distributed target model)",
        "",
        "The network is a Kahn process network (one producer and one consumer",
        "per channel), so both engines produce identical results.  Either",
        "engine raises Deadlock, naming the blocked processes, when none",
        "can move.",
        '"""',
    ]
    if r.needs_fraction:
        header += ["", "from fractions import Fraction as _Fr"]
    return "\n".join(header + [""] + body) + _RUNNER


_RUNNER = '''

# ---------------------------------------------------------------- runner --
from collections import deque as _deque
import threading as _threading


class Deadlock(RuntimeError):
    """No process can make progress; ``blocked`` names every unfinished one."""

    def __init__(self, procs):
        self.blocked = [label for label, gen in procs if gen.gi_frame is not None]
        RuntimeError.__init__(
            self,
            'generated program deadlocked: %d process(es) blocked: %s%s'
            % (len(self.blocked), ', '.join(self.blocked[:20]),
               ', ...' if len(self.blocked) > 20 else ''),
        )


def _box_points(lo, hi):
    if len(lo) == 1:
        return [(c,) for c in range(lo[0], hi[0] + 1)]
    out = []
    for c in range(lo[0], hi[0] + 1):
        for rest in _box_points(lo[1:], hi[1:]):
            out.append((c,) + rest)
    return out


def _add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def _env_of(point, sizes):
    env = dict(sizes)
    for name, value in zip(COORDS, point):
        env[name] = value
    return env


def _cnt(value):
    """Closed-form result -> non-negative int ('null' means zero)."""
    if value is None:
        return 0
    count = int(value)
    if count != value:
        raise ValueError('non-integer amount %r' % (value,))
    if count < 0:
        raise ValueError('negative amount %r' % (value,))
    return count


# Processes are generators: ``value = yield chan`` receives from a channel,
# ``chan.put(value)`` sends.  Both engines drive the same generators.

def _passer(cin, cout, count):
    for _ in range(count):
        value = yield cin
        cout.put(value)


def _feeder(chan, elements, values):
    for element in elements:
        chan.put(values[element])
    yield from ()


def _drainer(chan, elements, sink):
    for element in elements:
        sink[element] = yield chan


def _round_robin(moving_io, counts):
    """``(cin, cout)`` of every soak (or drain) pass: one element per moving
    stream per round, in declaration order.  One stream at a time can
    deadlock on bounded channels: a neighbour blocked midway through
    another stream never reaches its repeater, which emits one element of
    every stream per statement."""
    order, done = [], 0
    for limit in sorted(set(counts)):
        # rounds done .. limit-1 each pass one element of every stream
        # whose count reaches limit
        live = [(cin, cout) for (_n, cin, cout), c in zip(moving_io, counts) if c >= limit]
        order += live * (limit - done)
        done = limit
    return order


def _compute(point, sizes, env, in_chan, out_chan):
    stationary = [s for s in STREAMS if s['stationary']]
    moving = [s for s in STREAMS if not s['stationary']]
    local = {}
    # -- pre phase: stationary loads, then moving soaks --------------------
    for s in stationary:
        name = s['name']
        cin, cout = in_chan[name][point], out_chan[name][point]
        local[name] = yield cin
        for _ in range(_cnt(s['drain'](env))):  # loading passes = drain
            value = yield cin
            cout.put(value)
    moving_io = [
        (s['name'], in_chan[s['name']][point], out_chan[s['name']][point])
        for s in moving
    ]
    for cin, cout in _round_robin(moving_io, [_cnt(s['soak'](env)) for s in moving]):
        value = yield cin
        cout.put(value)
    # -- the repeater: the basic statements of this process ----------------
    x = _first(env)
    for _ in range(_cnt(_count(env))):
        stmt_env = dict(sizes)
        for index, value in zip(INDICES, x):
            stmt_env[index] = value
        values = dict(local)
        for name, cin, _cout in moving_io:
            values[name] = yield cin
        values = _body(values, stmt_env)
        for s in stationary:
            local[s['name']] = values[s['name']]
        for name, _cin, cout in moving_io:
            cout.put(values[name])
        x = _add(x, INCREMENT)
    # -- post phase: moving drains, then stationary recoveries -------------
    for cin, cout in _round_robin(moving_io, [_cnt(s['drain'](env)) for s in moving]):
        value = yield cin
        cout.put(value)
    for s in stationary:
        name = s['name']
        cin, cout = in_chan[name][point], out_chan[name][point]
        for _ in range(_cnt(s['soak'](env))):  # recovery passes = soak
            value = yield cin
            cout.put(value)
        cout.put(local[name])


def _build(sizes, inputs, new_chan):
    """Instantiate the process network: ``(label, generator)`` pairs +
    channels.  Labels name processes the way the simulator does."""
    lo = tuple(int(c) for c in _ps_min(sizes))
    hi = tuple(int(c) for c in _ps_max(sizes))
    order = _box_points(lo, hi)
    space = set(order)
    envs = {point: _env_of(point, sizes) for point in order}
    cs = {point: _in_cs(envs[point]) for point in order}
    final = {name: dict(values) for name, values in inputs.items()}
    procs = []
    in_chan = {s['name']: {} for s in STREAMS}
    out_chan = {s['name']: {} for s in STREAMS}
    chain_total = {}
    for spec in STREAMS:
        name, hop = spec['name'], spec['hop']
        for start in order:
            if tuple(a - b for a, b in zip(start, hop)) in space:
                continue  # not a pipe head
            chain = []
            z = start
            while z in space:
                chain.append(z)
                z = _add(z, hop)
            env0 = envs[start]
            if any(cs[p] for p in chain):
                total = _cnt(spec['pass_amount'](env0))
            else:
                total = 0  # no basic statement on the pipe
            for p in chain:
                chain_total[(name, p)] = total
            head = feed = new_chan()
            for idx, y in enumerate(chain):
                if idx > 0:
                    link = new_chan()
                    out_chan[name][chain[idx - 1]] = link
                    feed = link
                for k in range(spec['latches']):
                    buffered = new_chan()
                    procs.append(
                        ('L:%s%r#%d' % (name, y, k), _passer(feed, buffered, total))
                    )
                    feed = buffered
                in_chan[name][y] = feed
            tail = new_chan()
            out_chan[name][chain[-1]] = tail
            elements = []
            if total:
                cur = spec['first_s'](env0)
                for _ in range(total):
                    elements.append(cur)
                    cur = _add(cur, spec['inc_s'])
            procs.append(
                ('IN:%s%r' % (name, start), _feeder(head, elements, inputs[name]))
            )
            procs.append(
                ('OUT:%s%r' % (name, chain[-1]), _drainer(tail, elements, final[name]))
            )
    for point in order:
        if cs[point]:
            procs.append(
                ('P%r' % (point,), _compute(point, sizes, envs[point], in_chan, out_chan))
            )
        else:
            for s in STREAMS:  # PS \\ CS: one pass loop per stream
                procs.append(('B:%s%r' % (s['name'], point), _passer(
                    in_chan[s['name']][point],
                    out_chan[s['name']][point],
                    chain_total[(s['name'], point)],
                )))
    return procs, final


# --------------------------------------------------- cooperative engine --
class _Chan:
    """Unbounded FIFO with a single parked consumer."""

    __slots__ = ('buf', 'waiter', 'ready')

    def __init__(self, ready):
        self.buf = _deque()
        self.waiter = None
        self.ready = ready

    def put(self, value):
        self.buf.append(value)
        waiter = self.waiter
        if waiter is not None:
            self.waiter = None
            self.ready.append((waiter, self))


def run(sizes, inputs):
    """Execute with the fast cooperative engine; returns final contents."""
    ready = _deque()
    procs, final = _build(sizes, inputs, lambda: _Chan(ready))

    def step(gen, value):
        send = gen.send
        while True:
            try:
                chan = send(value)
            except StopIteration:
                return
            buf = chan.buf
            if buf:
                value = buf.popleft()
            else:
                chan.waiter = gen
                return

    for _label, gen in procs:
        step(gen, None)
    while ready:
        gen, chan = ready.popleft()
        step(gen, chan.buf.popleft())
    if any(gen.gi_frame is not None for _label, gen in procs):
        raise Deadlock(procs)
    return final


# ------------------------------------------------------ threaded engine --
class _Net:
    """The one lock every channel of a threaded run shares, and the count
    of process threads blocked on it.  Once every live thread is blocked,
    no message can ever move again: all of them are released at once."""

    def __init__(self):
        self.lock = _threading.Lock()
        self.live = self.blocked = 0
        self.procs = self.deadlock = None
        self.chans = []

    def check(self):
        """Declare the deadlock if every live thread is blocked (lock held)."""
        if self.live and self.blocked == self.live and self.deadlock is None:
            self.deadlock = Deadlock(self.procs)
            for chan in self.chans:
                chan.cond.notify()


class _Released(Exception):
    """Unwinds a process thread once the run has deadlocked."""


class _TChan:
    """Capacity-1 channel (transputer-style) of the threaded engine."""

    __slots__ = ('net', 'buf', 'cond', 'waiter')

    def __init__(self, net):
        self.net = net
        self.buf = _deque()
        self.cond = _threading.Condition(net.lock)
        self.waiter = None
        net.chans.append(self)

    def _park(self):
        net = self.net
        me = self.waiter = object()
        net.blocked += 1
        net.check()
        # the other end may park here before this thread runs again
        while self.waiter is me and net.deadlock is None:
            self.cond.wait()
        if net.deadlock is not None:
            raise _Released()

    def _wake(self):
        if self.waiter is not None:
            self.waiter = None
            self.net.blocked -= 1
            self.cond.notify()

    def put(self, value):
        with self.net.lock:
            while self.buf:
                self._park()
            self.buf.append(value)
            self._wake()

    def get(self):
        with self.net.lock:
            while not self.buf:
                self._park()
            value = self.buf.popleft()
            self._wake()
            return value


def _drive(net, gen, errors):
    value = None
    try:
        while True:
            value = gen.send(value).get()
    except (StopIteration, _Released):
        pass
    except Exception as exc:  # re-raised by run_threaded
        errors.append(exc)
    finally:
        with net.lock:
            net.live -= 1
            net.check()


def run_threaded(sizes, inputs):
    """Execute with one thread per process and capacity-1 channels."""
    net = _Net()
    net.procs, final = _build(sizes, inputs, lambda: _TChan(net))
    net.live = len(net.procs)
    errors = []
    threads = [
        _threading.Thread(target=_drive, args=(net, gen, errors), daemon=True)
        for _label, gen in net.procs
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    if net.deadlock is not None:
        raise net.deadlock
    return final
'''


# ---------------------------------------------------------------------------
# The compile cache: a bounded LRU of compiled module namespaces keyed by
# the sha-256 of the generated source.  It is bounded because a
# design-space sweep compiles hundreds of distinct modules.

#: folded into every design fingerprint.  Fingerprints key in-process
#: caches only (the compile service's design store, the wavefront and
#: partition schedule caches), none of which outlives the generator code,
#: so a format change needs no bump; the value stays so that existing
#: fingerprints do not change.
PYGEN_FORMAT_VERSION = "2"

#: compiled module namespaces keyed by :func:`module_key` of their source
MODULE_CACHE = BoundedLRU(64)
profiling.register("pygen_modules", MODULE_CACHE.stats)

#: the runner engine's code object, compiled once per process and shared by
#: every cached module (the engine text never varies across designs)
_RUNNER_CODE = None


def _runner_code():
    global _RUNNER_CODE
    if _RUNNER_CODE is None:
        _RUNNER_CODE = compile(_RUNNER, "<repro.target.pygen:runner>", "exec")
    return _RUNNER_CODE


def module_key(source: str) -> str:
    """The :data:`MODULE_CACHE` key of a generated source: its sha-256."""
    return hashlib.sha256(source.encode()).hexdigest()


def _exec_module(source: str) -> dict:
    """The compiled+exec'd namespace of ``source``.

    Every rendered module ends with the constant :data:`_RUNNER` engine
    text, which dominates compile time; only the per-design head is
    compiled fresh and the engine's code object (compiled once per
    process) is exec'd after it into the same namespace.  The generated
    process functions reach the engine helpers through module globals at
    call time, so the split is invisible to the module.
    """
    namespace: dict = {}
    if source.endswith(_RUNNER):
        head = source[: -len(_RUNNER)]
        exec(compile(head, "<repro.target.pygen>", "exec"), namespace)
        exec(_runner_code(), namespace)
    else:
        exec(compile(source, "<repro.target.pygen>", "exec"), namespace)
    return namespace


def module_for(source: str) -> dict:
    """The cached namespace of ``source``, compiled on a miss."""
    return MODULE_CACHE.get_or_build(module_key(source), lambda: _exec_module(source))


def design_fingerprint(sp: SystolicProgram) -> str:
    """A stable identity for (source program, array spec, generator version).

    Built from the canonical ``to_source()`` text and the exact step/place/
    loading numbers, so it is reproducible across processes -- the key of
    the compile service's design store and of the schedule caches.
    """
    return fingerprint_of(sp.source, sp.array)


def fingerprint_of(program, array) -> str:
    """:func:`design_fingerprint` computed *before* compilation.

    The fingerprint depends only on the source program and the array spec,
    so callers that need the key up front (the compile service coalesces
    identical in-flight compiles on it) can hash the request without paying
    for ``compile_systolic`` first.  Identical by construction to the
    fingerprint of the compiled ``SystolicProgram``.
    """
    h = hashlib.sha256()
    h.update(PYGEN_FORMAT_VERSION.encode())
    h.update(b"\x00")
    h.update(program.to_source().encode())
    h.update(b"\x00")
    h.update(repr(array.step.rows).encode())
    h.update(b"\x00")
    h.update(repr(array.place.rows).encode())
    h.update(b"\x00")
    loading = sorted(
        (name, tuple(vec)) for name, vec in array.loading_vectors.items()
    )
    h.update(repr(loading).encode())
    return h.hexdigest()


def execute_python(
    sp: SystolicProgram,
    env: Mapping[str, int],
    inputs=None,
    *,
    threaded: bool = False,
) -> dict:
    """Render, compile and run the generated module at a problem size.

    Returns ``{variable: {tuple(element): value}}`` -- the same contents the
    sequential oracle and the simulator produce, with tuple keys.
    ``threaded=True`` selects the one-thread-per-process engine instead of
    the fast cooperative one; results are identical.  The compiled module
    comes from :data:`MODULE_CACHE`.  A deadlock in either engine raises
    :class:`~repro.util.errors.DeadlockError` listing the blocked processes.
    """
    module = module_for(render_python(sp))
    state = initial_state(sp.source, env, inputs)
    dense = {
        name: {tuple(p): v for p, v in values.items()}
        for name, values in state.items()
    }
    sizes = {k: int(v) for k, v in env.items()}
    runner = module["run_threaded"] if threaded else module["run"]
    try:
        return runner(sizes, dense)
    except module["Deadlock"] as exc:
        raise DeadlockError(str(exc)) from None
