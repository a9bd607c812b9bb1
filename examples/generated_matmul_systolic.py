"""Standalone systolic program for 'matmul' [E.2 place=(i-k,j-k)].

Generated by repro.target.pygen; requires only the standard library.

run(sizes, inputs)           -- fast cooperative engine
                                (generator processes, unbounded FIFOs)
run_threaded(sizes, inputs)  -- threads + capacity-1 channels
                                (the paper's distributed target model)

The network is a Kahn process network (one producer and one consumer
per channel), so both engines produce identical results.  Either
engine raises Deadlock, naming the blocked processes, when none
can move.
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

STREAMS = [
    {'name': 'a', 'stationary': False, 'hop': (0, 1), 'latches': 0, 'inc_s': (1, 1), 'first_s': _s0_first_s, 'pass_amount': _s0_pass, 'soak': _s0_soak, 'drain': _s0_drain},
    {'name': 'b', 'stationary': False, 'hop': (1, 0), 'latches': 0, 'inc_s': (1, 1), 'first_s': _s1_first_s, 'pass_amount': _s1_pass, 'soak': _s1_soak, 'drain': _s1_drain},
    {'name': 'c', 'stationary': False, 'hop': (-1, -1), 'latches': 0, 'inc_s': (1, 1), 'first_s': _s2_first_s, 'pass_amount': _s2_pass, 'soak': _s2_soak, 'drain': _s2_drain},
]

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
            for s in STREAMS:  # PS \ CS: one pass loop per stream
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
