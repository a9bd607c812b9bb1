"""The executable Python backend: compile a systolic program to a
standalone, stdlib-only Python module and run it.

:func:`render_python` lowers *every* symbolic quantity of the compiled
program -- ``first``/``count``, ``soak``/``drain``, the i/o repeaters
``{first_s last_s increment_s}``, and the Eq. 8-10 amounts -- from the
piecewise-affine layer into guarded flat Python functions (plain ``if``
chains of ``(affine) >= 0`` tests), and appends a fixed runtime harness.

The emitted module's ``run(sizes, inputs)`` is the paper's target model
run cooperatively: every process is a generator that yields the channel
it wants to receive from, and every channel holds one value (the Section
7.6 "buffer of size 1"), so a send to a full channel parks the sender
until the consumer takes the value.  No per-message scheduler
bookkeeping, no Lamport clocks.  The network is a Kahn process network
(single producer and single consumer per channel), so neither the results
nor whether the run deadlocks depend on the order the engine resumes
processes: they are bit-for-bit equal to the coroutine simulator at
capacity 1 and to the sequential oracle.  A deadlock raises the module's
own ``Deadlock`` (the module imports nothing from ``repro``), naming
every unfinished process the way the simulator does.

:func:`execute_python` renders, compiles (with a per-source cache), and
runs the module on dense inputs, returning tuple-keyed final contents.
"""

from __future__ import annotations

import hashlib
import inspect
from fractions import Fraction
from itertools import product
from typing import Mapping

from repro import profiling
from repro.core.program import SystolicProgram
from repro.geometry.point import exact
from repro.lang.expr import Affine, BinOp, Body, Const, IndexExpr, StreamRead
from repro.lang.interpreter import _checked
from repro.symbolic.affine import AffineVec
from repro.symbolic.compile import (
    closure_num,
    guard_chain_lines,
    render_affine,
    render_guard,
)
from repro.symbolic.minmax import render_bound
from repro.symbolic.piecewise import Piecewise
from repro.target.ast import LoadPhase, PassPhase, RecoverPhase, _round_robin
from repro.target.build import build_target_program
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
        value = exact(value)
        if type(value) is not int:
            self.needs_fraction = True
        return closure_num(value)

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
        entries.append(
            "    {"
            + f"'name': {plan.name!r}, "
            + f"'hop': {tuple(int(c) for c in plan.hop)!r}, "
            + f"'latches': {plan.internal_buffers()!r}, "
            + f"'inc_s': {tuple(int(c) for c in plan.increment_s)!r}, "
            + f"'first_s': {prefix}_first_s, "
            + f"'pass_amount': {prefix}_pass"
            + "},"
        )
    body.append("STREAMS = [")
    body.extend(entries)
    body.append("]")
    body.append("")

    # The computation process's phases, from the target program: each
    # table lists (stream, amount function) in the phase's stream order.
    tp = build_target_program(sp)
    index = {name: i for i, name in enumerate(tp.stream_names)}
    tables: dict[str, list[str]] = {"LOADS": [], "SOAK": [], "DRAIN": [], "RECOVERS": []}
    for phase in tp.compute.phases:
        if isinstance(phase, PassPhase):
            table, passes = phase.kind.upper(), phase.passes
        elif isinstance(phase, (LoadPhase, RecoverPhase)):
            table = "LOADS" if isinstance(phase, LoadPhase) else "RECOVERS"
            passes = [(phase.stream, phase.passes)]
        else:
            continue
        for stream, amount in passes:
            fn = f"_s{index[stream]}_{table.lower()}"
            body += [*r.piecewise_fn(fn, amount, r.scalar_leaf), ""]
            tables[table].append(f"({stream!r}, {fn})")
    body.extend(f"{table} = [{', '.join(items)}]" for table, items in tables.items())

    header = [
        f'"""Standalone systolic program for {sp.source.name!r} '
        f"[{sp.array.name}].",
        "",
        "Generated by repro.target.pygen; requires only the standard library.",
        "",
        "run(sizes, inputs) executes the process network: every process is a",
        "generator, and every channel holds one value (the paper's buffer of",
        "size 1), so a send to a full channel waits for the receiver.  The",
        "network is a Kahn process network (one producer and one consumer",
        "per channel), so the results do not depend on the order processes",
        "run in.  run raises Deadlock, naming the blocked processes, when",
        "none can move.",
        '"""',
    ]
    if r.needs_fraction:
        header += ["", "from fractions import Fraction as _Fr"]
    return "\n".join(header + [""] + body) + _RUNNER


_RUNNER = '''

# ---------------------------------------------------------------- runner --
from collections import deque as _deque


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


# Processes are generators: ``value = yield chan`` receives from a channel;
# ``if chan.put(value): yield chan.room`` sends, parking the sender while
# the channel is full.

def _passer(cin, cout, count):
    for _ in range(count):
        value = yield cin
        if cout.put(value):
            yield cout.room


def _feeder(chan, elements, values):
    for element in elements:
        if chan.put(values[element]):
            yield chan.room


def _drainer(chan, elements, sink):
    for element in elements:
        sink[element] = yield chan


''' + inspect.getsource(_round_robin) + '''

def _compute(point, sizes, env, in_chan, out_chan):
    local = {}
    # -- pre phase: stationary loads, then the moving soaks ----------------
    for name, passes in LOADS:
        cin = in_chan[name][point]
        local[name] = yield cin
        yield from _passer(cin, out_chan[name][point], _cnt(passes(env)))
    moving_io = [(name, in_chan[name][point], out_chan[name][point]) for name, _ in SOAK]
    for cin, cout in _round_robin(moving_io, [_cnt(amount(env)) for _, amount in SOAK]):
        value = yield cin
        if cout.put(value):
            yield cout.room
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
        for name, _ in LOADS:
            local[name] = values[name]
        for name, _cin, cout in moving_io:
            if cout.put(values[name]):
                yield cout.room
        x = _add(x, INCREMENT)
    # -- post phase: the moving drains, then stationary recoveries ---------
    for cin, cout in _round_robin(moving_io, [_cnt(amount(env)) for _, amount in DRAIN]):
        value = yield cin
        if cout.put(value):
            yield cout.room
    for name, passes in RECOVERS:
        cout = out_chan[name][point]
        yield from _passer(in_chan[name][point], cout, _cnt(passes(env)))
        if cout.put(local[name]):
            yield cout.room


def _build(sizes, inputs, ready):
    """Instantiate the process network: ``(label, generator)`` pairs
    wired by channels that wake parked processes onto ``ready``.  Labels
    name processes the way the simulator does."""
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
            head = feed = _Chan(ready)
            for idx, y in enumerate(chain):
                if idx > 0:
                    link = _Chan(ready)
                    out_chan[name][chain[idx - 1]] = link
                    feed = link
                for k in range(spec['latches']):
                    buffered = _Chan(ready)
                    procs.append(
                        ('L:%s%r#%d' % (name, y, k), _passer(feed, buffered, total))
                    )
                    feed = buffered
                in_chan[name][y] = feed
            tail = _Chan(ready)
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


# ---------------------------------------------------------------- engine --
class _Room:
    """What a sender yields to park until its channel has room."""

    __slots__ = ('chan',)

    def __init__(self, chan):
        self.chan = chan


class _Chan:
    """Capacity-1 channel.  A send to a parked consumer hands the value
    straight over, as the simulator does; otherwise one value is buffered,
    and a producer that finds the buffer full parks holding its value."""

    __slots__ = ('full', 'value', 'pending', 'waiter', 'sender', 'ready', 'room')

    def __init__(self, ready):
        self.full = False
        self.value = self.pending = self.waiter = self.sender = None
        self.ready = ready
        self.room = _Room(self)

    def put(self, value):
        """Send ``value``; true when the channel is full, and the sender
        must then park (``yield chan.room``) until the consumer takes."""
        waiter = self.waiter
        if waiter is not None:
            self.waiter = None
            self.ready.append((waiter, value))
            return False
        if self.full:
            self.pending = value
            return True
        self.full = True
        self.value = value
        return False


def run(sizes, inputs):
    """Execute the process network; returns the final contents."""
    ready = _deque()
    procs, final = _build(sizes, inputs, ready)

    def step(gen, value):
        send = gen.send
        while True:
            try:
                chan = send(value)
            except StopIteration:
                return
            if chan.__class__ is _Room:
                chan.chan.sender = gen
                return
            if not chan.full:
                chan.waiter = gen
                return
            value = chan.value
            sender = chan.sender
            if sender is None:
                chan.full = False
            else:  # the parked producer's value takes the freed place
                chan.sender = None
                chan.value = chan.pending
                ready.append((sender, None))

    for _label, gen in procs:
        step(gen, None)
    while ready:
        step(*ready.popleft())
    if any(gen.gi_frame is not None for _label, gen in procs):
        raise Deadlock(procs)
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
    Computed once per ``sp`` (:attr:`SystolicProgram.fingerprint`).
    """
    return sp.fingerprint


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


def execute_python(sp: SystolicProgram, env: Mapping[str, int], inputs=None) -> dict:
    """Render, compile and run the generated module at a problem size.

    Returns ``{variable: {tuple(element): value}}`` -- the same contents the
    sequential oracle and the simulator produce, with tuple keys.  The
    compiled module comes from :data:`MODULE_CACHE`.  A deadlock raises
    :class:`~repro.util.errors.DeadlockError` listing the blocked processes.
    """
    return run_rendered(render_python(sp), sp, env, inputs)


def run_rendered(
    source: str, sp: SystolicProgram, env: Mapping[str, int], inputs=None
) -> dict:
    """:func:`execute_python` on ``source``, the already rendered module
    of ``sp`` (a :class:`~repro.compilation.Compilation` holds one)."""
    module = module_for(source)
    dense = {
        name: dict(zip(product(*space.ranges()), values))
        for name, space, values, _points in _checked(sp.source, env, inputs)
    }
    sizes = {k: int(v) for k, v in env.items()}
    try:
        return module["run"](sizes, dense)
    except module["Deadlock"] as exc:
        raise DeadlockError(str(exc)) from None
