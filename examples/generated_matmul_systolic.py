"""Standalone systolic program for 'matmul' [E.2 place=(i-k,j-k)].

Generated by repro.target.pygen; requires only the standard library.

run(sizes, inputs) executes the process network: every process is a
generator, and every channel holds one value (the paper's buffer of
size 1), so a send to a full channel waits for the receiver.  The
network is a Kahn process network (one producer and one consumer
per channel), so the results do not depend on the order processes
run in.  run raises Deadlock, naming the blocked processes, when
none can move.
"""

COORDS = ('col', 'row')
INDICES = ('i', 'j', 'k')
INCREMENT = (1, 1, 1)

def _ps_min(env):
    return (-env['n'], -env['n'],)

def _ps_max(env):
    return (env['n'], env['n'],)

def _first(env):
    if (-env['col'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col']) >= 0:
        return (0, -env['col'] + env['row'], -env['col'],)
    if (env['col'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (-env['row']) >= 0:
        return (env['col'] - env['row'], 0, -env['row'],)
    if (env['col']) >= 0 and (env['row']) >= 0:
        return (env['col'], env['row'], 0,)
    return None

def _count(env):
    if (-env['col'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (env['col'] - env['row']) >= 0 and (env['col']) >= 0:
        return env['n'] + 1
    if (-env['col'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col']) >= 0 and (env['row']) >= 0:
        return env['col'] + env['n'] - env['row'] + 1
    if (-env['col'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col']) >= 0 and (-env['row']) >= 0:
        return env['col'] + env['n'] + 1
    if (env['col'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (-env['row']) >= 0 and (env['col']) >= 0:
        return -env['col'] + env['n'] + env['row'] + 1
    if (env['col'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (-env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col'] + env['row']) >= 0 and (env['row']) >= 0:
        return env['n'] + 1
    if (env['col'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (-env['row']) >= 0 and (-env['col']) >= 0:
        return env['n'] + env['row'] + 1
    if (env['col']) >= 0 and (env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (env['col'] - env['row']) >= 0:
        return -env['col'] + env['n'] + 1
    if (env['col']) >= 0 and (env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col'] + env['row']) >= 0:
        return env['n'] - env['row'] + 1
    if (env['col']) >= 0 and (env['row']) >= 0 and (-env['col']) >= 0 and (-env['row']) >= 0:
        return env['n'] + 1
    return None

def _in_cs(env):
    return _first(env) is not None

def _body(values, env):
    values['c'] = (values['c'] + (values['a'] * values['b']))
    return values

def _s0_first_s(env):
    if (-env['col']) >= 0:
        return (0, -env['col'],)
    if (env['col']) >= 0:
        return (env['col'], 0,)
    return None

def _s0_pass(env):
    if (-env['col']) >= 0 and (env['col']) >= 0:
        return env['n'] + 1
    if (-env['col']) >= 0:
        return env['col'] + env['n'] + 1
    if (env['col']) >= 0:
        return -env['col'] + env['n'] + 1
    if (env['col']) >= 0 and (-env['col']) >= 0:
        return env['n'] + 1
    return None

def _s1_first_s(env):
    if (env['row']) >= 0:
        return (0, env['row'],)
    if (-env['row']) >= 0:
        return (-env['row'], 0,)
    return None

def _s1_pass(env):
    if (env['row']) >= 0 and (-env['row']) >= 0:
        return env['n'] + 1
    if (env['row']) >= 0:
        return env['n'] - env['row'] + 1
    if (-env['row']) >= 0:
        return env['n'] + env['row'] + 1
    if (-env['row']) >= 0 and (env['row']) >= 0:
        return env['n'] + 1
    return None

def _s2_first_s(env):
    if (-env['col'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0:
        return (0, -env['col'] + env['row'],)
    if (env['col'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0:
        return (env['col'] - env['row'], 0,)
    return None

def _s2_pass(env):
    if (-env['col'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (env['col'] - env['row']) >= 0:
        return env['n'] + 1
    if (-env['col'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0:
        return env['col'] + env['n'] - env['row'] + 1
    if (env['col'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0:
        return -env['col'] + env['n'] + env['row'] + 1
    if (env['col'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col'] + env['row']) >= 0:
        return env['n'] + 1
    return None

STREAMS = [
    {'name': 'a', 'hop': (0, 1), 'latches': 0, 'inc_s': (1, 1), 'first_s': _s0_first_s, 'pass_amount': _s0_pass},
    {'name': 'b', 'hop': (1, 0), 'latches': 0, 'inc_s': (1, 1), 'first_s': _s1_first_s, 'pass_amount': _s1_pass},
    {'name': 'c', 'hop': (-1, -1), 'latches': 0, 'inc_s': (1, 1), 'first_s': _s2_first_s, 'pass_amount': _s2_pass},
]

def _s0_soak(env):
    if (-env['col'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col']) >= 0:
        return 0
    if (env['col'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (-env['row']) >= 0:
        if (-env['col']) >= 0:
            return env['col'] - env['row']
        if (env['col']) >= 0:
            return -env['row']
        return None
    if (env['col']) >= 0 and (env['row']) >= 0:
        if (-env['col']) >= 0:
            return env['col']
        if True:
            return 0
        raise ValueError('no alternative holds for %r' % (env,))
    return None

def _s1_soak(env):
    if (-env['col'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col']) >= 0:
        if (env['row']) >= 0:
            return -env['col']
        if (-env['row']) >= 0:
            return -env['col'] + env['row']
        return None
    if (env['col'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (-env['row']) >= 0:
        if (env['row']) >= 0:
            return -env['row']
        if True:
            return 0
        raise ValueError('no alternative holds for %r' % (env,))
    if (env['col']) >= 0 and (env['row']) >= 0:
        return 0
    return None

def _s2_soak(env):
    if (-env['col'] + env['row']) >= 0 and (env['col'] + env['n'] - env['row']) >= 0 and (-env['col']) >= 0:
        return 0
    if (env['col'] - env['row']) >= 0 and (-env['col'] + env['n'] + env['row']) >= 0 and (-env['row']) >= 0:
        if (-env['col'] + env['row']) >= 0:
            return env['col'] - env['row']
        if True:
            return 0
        raise ValueError('no alternative holds for %r' % (env,))
    if (env['col']) >= 0 and (env['row']) >= 0:
        if (-env['col'] + env['row']) >= 0:
            return env['col']
        if (env['col'] - env['row']) >= 0:
            return env['row']
        return None
    return None

def _s0_drain(env):
    if (-env['col'] + env['n'] + env['row']) >= 0 and (env['col'] - env['row']) >= 0 and (env['col']) >= 0:
        return 0
    if (env['col'] + env['n'] - env['row']) >= 0 and (-env['col'] + env['row']) >= 0 and (env['row']) >= 0:
        if (env['col']) >= 0:
            return -env['col'] + env['row']
        if (-env['col']) >= 0:
            return env['row']
        return None
    if (-env['col']) >= 0 and (-env['row']) >= 0:
        if (env['col']) >= 0:
            return -env['col']
        if True:
            return 0
        raise ValueError('no alternative holds for %r' % (env,))
    return None

def _s1_drain(env):
    if (-env['col'] + env['n'] + env['row']) >= 0 and (env['col'] - env['row']) >= 0 and (env['col']) >= 0:
        if (-env['row']) >= 0:
            return env['col']
        if (env['row']) >= 0:
            return env['col'] - env['row']
        return None
    if (env['col'] + env['n'] - env['row']) >= 0 and (-env['col'] + env['row']) >= 0 and (env['row']) >= 0:
        if (-env['row']) >= 0:
            return env['row']
        if True:
            return 0
        raise ValueError('no alternative holds for %r' % (env,))
    if (-env['col']) >= 0 and (-env['row']) >= 0:
        return 0
    return None

def _s2_drain(env):
    if (-env['col'] + env['n'] + env['row']) >= 0 and (env['col'] - env['row']) >= 0 and (env['col']) >= 0:
        return 0
    if (env['col'] + env['n'] - env['row']) >= 0 and (-env['col'] + env['row']) >= 0 and (env['row']) >= 0:
        if (env['col'] - env['row']) >= 0:
            return -env['col'] + env['row']
        if True:
            return 0
        raise ValueError('no alternative holds for %r' % (env,))
    if (-env['col']) >= 0 and (-env['row']) >= 0:
        if (env['col'] - env['row']) >= 0:
            return -env['col']
        if (-env['col'] + env['row']) >= 0:
            return -env['row']
        return None
    return None

LOADS = []
SOAK = [('a', _s0_soak), ('b', _s1_soak), ('c', _s2_soak)]
DRAIN = [('a', _s0_drain), ('b', _s1_drain), ('c', _s2_drain)]
RECOVERS = []

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


def _round_robin(moving_io, counts):
    """``(cin, cout)`` of every pass of a soak or drain phase, in order:
    round ``r`` passes one element of every moving stream whose count
    exceeds ``r``, in stream order.  ``moving_io`` holds ``(name, cin,
    cout)`` per moving stream, ``counts`` its number of passes."""
    order, done = [], 0
    for limit in sorted(set(counts)):
        # rounds done .. limit-1 each pass one element of every stream
        # whose count reaches limit
        live = [(cin, cout) for (_n, cin, cout), c in zip(moving_io, counts) if c >= limit]
        order += live * (limit - done)
        done = limit
    return order


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
            for s in STREAMS:  # PS \ CS: one pass loop per stream
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
