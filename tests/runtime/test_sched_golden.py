"""Golden behaviour pins for the process scheduler.

The scheduler executes one deterministic FIFO interleaving, so a given
network always produces the same final values, the same
:class:`SchedulerStats`, the same trace event stream and -- when it
deadlocks -- the same report text.  Each case below pins that behaviour:
``scheduler_rounds``, ``total_messages`` and ``makespan`` in clear (so a
drift names the figure that moved), plus a sha256 over
``repr((sorted final values, stats, trace events, deadlock text))``.

The digests were recorded while the scheduler still had a second, generic
request engine, and both engines reproduced them bit for bit; they are
the contract any change to the scheduler's request paths must keep.  A
digest is never re-recorded to make a change pass: a mismatch means the
interleaving drifted.  The sequential oracle stays the reference for
values -- every clean case also checks its values against it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro import compile_systolic, run_sequential
from repro.compilation import Compilation
from repro.extensions.partition import partitioned_execute
from repro.fuzz.corpus import load_reproducer
from repro.fuzz.harness import apply_mutation
from repro.runtime import Channel, Par, Recv, Scheduler, Send
from repro.runtime.network import network_plan
from repro.runtime.trace import attach_tracer
from repro.systolic import all_paper_designs
from repro.util.errors import DeadlockError
from repro.verify import random_inputs

CORPUS = Path(__file__).resolve().parent.parent / "fuzz_corpus"
CORPUS_SEEDS = ("seed_2c6a5806697e", "seed_1e31eacfe4c2", "seed_7551259922cb")
DESIGNS = {eid: (prog, array) for eid, prog, array in all_paper_designs()}


def _sorted_final(final) -> tuple:
    return tuple(
        (var, tuple(sorted(values.items(), key=lambda kv: repr(kv[0]))))
        for var, values in sorted(final.items())
    )


def _traced(plan, inputs, **instantiate):
    """(final values, stats, trace events, deadlock text) of one run."""
    network = plan.instantiate(inputs, **instantiate)
    trace = attach_tracer(network)
    try:
        stats, deadlock = network.run(), None
    except DeadlockError as exc:
        stats, deadlock = None, str(exc)
    return network.host.final, stats, trace.events, deadlock


def _design_case(eid, n, **instantiate):
    prog, array = DESIGNS[eid]
    env = {"n": n}
    inputs = random_inputs(prog, env, seed=0)
    result = _traced(network_plan(compile_systolic(prog, array), env), inputs,
                     **instantiate)
    return result, run_sequential(prog, env, inputs)


def _partition_case(eid, shape):
    prog, array = DESIGNS[eid]
    env = {"n": 4}
    inputs = random_inputs(prog, env, seed=0)
    final, stats = partitioned_execute(
        compile_systolic(prog, array), env, inputs, shape=shape
    )
    return (final, stats, (), None), run_sequential(prog, env, inputs)


def _corpus_case(seed, mutate):
    instance, _config, _raw = load_reproducer(CORPUS / f"{seed}.json")
    program, env = instance.program, instance.env
    sp = apply_mutation(compile_systolic(program, instance.array), mutate)
    handle = Compilation(program, instance.array, sp)
    inputs = random_inputs(program, env, seed=0)
    result = _traced(network_plan(handle.sp, env), inputs)
    return result, None if mutate else run_sequential(program, env, inputs)


def _cases():
    cases = {}
    for eid in DESIGNS:
        for n in (3, 5):
            cases[f"{eid}-n{n}"] = (_design_case, (eid, n), {})
        cases[f"{eid}-n4-cap0"] = (_design_case, (eid, 4), {"channel_capacity": 0})
        cases[f"{eid}-n4-cap3"] = (_design_case, (eid, 4), {"channel_capacity": 3})
        for p in (2, 3):
            cases[f"{eid}-n4-shape{p}"] = (_partition_case, (eid, (p,)), {})
    for seed in CORPUS_SEEDS:
        cases[seed] = (_corpus_case, (seed, None), {})
        cases[f"{seed}-soak_plus_one"] = (_corpus_case, (seed, "soak_plus_one"), {})
    return cases


CASES = _cases()


def run_case(case_id):
    """``(rounds, messages, makespan, digest)`` of one case; the first
    three are ``None`` for a case that deadlocks on purpose."""
    build, args, kwargs = CASES[case_id]
    (final, stats, events, deadlock), oracle = build(*args, **kwargs)
    if oracle is not None:
        assert deadlock is None
        assert final == oracle
    digest = hashlib.sha256(
        repr((_sorted_final(final), stats, tuple(events), deadlock)).encode()
    ).hexdigest()
    if stats is None:
        return None, None, None, digest
    return stats.scheduler_rounds, stats.total_messages, stats.makespan, digest


#: case id -> (scheduler_rounds, total_messages, makespan, sha256)
GOLDEN = {
    "D1-n3": (150, 91, 36, "409ecdff708a321290bb7d0b9f9c2bf2d700f9b2c97646b2e7e9589639292cd6"),
    "D1-n4-cap0": (228, 139, 46, "4a4869d1722d737fc9d51fc2768982946c0f8573700648dd939bb9f3f1f02ffb"),
    "D1-n4-cap3": (228, 139, 46, "d175d113485f40c9613f00d58f15009eab4ab81972ca315a706f006d4f64a157"),
    "D1-n4-shape2": (228, 139, 167, "7b7eb332618c6c293dc7bccde2033a23642026f2fafd911e10a3f0549ea1e4e1"),
    "D1-n4-shape3": (228, 139, 132, "a1e6957c964dd8c90ca420bfbb4b5e657f90022fb88fb8ebc9b0c52edb07f36d"),
    "D1-n5": (322, 197, 56, "448a0c61cb5f0d053f1094d0a5a33a988eeef986ed93e55593931f6b8f989383"),
    "D2-n3": (264, 148, 60, "55e406e789398b104a697a94153c640189827d10f1b782e55a4320cf97240624"),
    "D2-n4-cap0": (420, 235, 78, "9bbcbd3c1214cd115a84f66a192b17919ed48b8b8f99a7589f816c3ded97a652"),
    "D2-n4-cap3": (420, 235, 78, "1bee270ed4f8fa57626aaccfc07726bb1496abc855bd6e154c0d1649f1bb71d9"),
    "D2-n4-shape2": (420, 235, 342, "40f17c478ae5e1f84ef0c2cb232f4cdf3d9be5d17c1d2ecda1be8d29a26134bb"),
    "D2-n4-shape3": (420, 235, 275, "3775b5c11761f805092e460d0f7369c4e9ce06f5f6e07b3723373b0e1e854222"),
    "D2-n5": (612, 342, 96, "b55200473511d4bc87549f4ffc72c69a8cc987b90c1a263dddd3a6ebd3c65aa2"),
    "E1-n3": (352, 240, 36, "7c40063d3f470d7bad2adb71cc430ee7bf5485d6bb3ef217bb28a6c24d2872f3"),
    "E1-n4-cap0": (650, 450, 46, "ec23a014f8ddf01e8271f98c566b34a622e317d8a76c54c3a9bcd1fdc1dc5b16"),
    "E1-n4-cap3": (650, 450, 46, "97ce402c75281874b6f52c0164b9b5f56c4ae5bcb5eef45a1e0a517919a66389"),
    "E1-n4-shape2": (650, 450, 464, "2cd77fd2bf5df3c5290e9d6782dfdae7890b16864825c21934ee48b4ddb5ba67"),
    "E1-n4-shape3": (650, 450, 351, "84aa644b2816faad29a1dbd9d3645a4cc1c5920124647ebd3fa9537017c2af8c"),
    "E1-n5": (1080, 756, 56, "d2ade690bdf4139dfea27842e8b794bb053fca1243400811aca4515cc3133e6a"),
    "E2-n3": (472, 364, 34, "6df416626bce7aeab2486854e64884030eb1fcea1c09f55e65db07dd990bbab6"),
    "E2-n4-cap0": (920, 710, 44, "9d0dc7c0297a970a81088d863cc8bfcae88c8c0a2010655bab5610f54b07dddb"),
    "E2-n4-cap3": (920, 710, 44, "45d11bbd91975f56ddff2e9f50cc23796cf2816dd946c88385e05ae9c7d8e569"),
    "E2-n4-shape2": (920, 710, 511, "9e6c4bb8a7d9838f8aa23378dd0591eba1bb8a91bb032121c56a54d1aab39194"),
    "E2-n4-shape3": (920, 710, 336, "bea39933de20ad27c988a92a63c904fd98532f7536f65335c1b35771950d91dd"),
    "E2-n5": (1588, 1226, 54, "c27872f32e0e0228157996bc41ec1a02907445a2293d582d4ae44e0a60632b43"),
    "seed_1e31eacfe4c2": (160, 100, 44, "bb0d644c55c1167d85a57e59504b183ac191ee1dcbaeb2d14f7c04eabf232525"),
    "seed_1e31eacfe4c2-soak_plus_one": (None, None, None, "486ae4bfd34cc70648883bcdca1f9a5a1043c71e42a018c5aa9a0987103f7427"),
    "seed_2c6a5806697e": (96, 60, 26, "1c1ba105b637bff65e4f1ca900f550f63464ffa7f67d46ff50dc859fd41e226d"),
    "seed_2c6a5806697e-soak_plus_one": (None, None, None, "def9e23861039d799b2ae604c4721a97229b973584e1cfbe1501cfdf910813ea"),
    "seed_7551259922cb": (172, 110, 46, "63d34f5a17b1568f746c9643134bf7b168c0ad793c363b6bfdb896b36c9b4a54"),
    "seed_7551259922cb-soak_plus_one": (None, None, None, "0c99e6f9e1a3e14b8f488e9cc0255e2bbab717621f1a7553c85e06d1aab553a6"),
}


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_golden(case_id):
    assert run_case(case_id) == GOLDEN[case_id]


def test_hand_built_mixed_deadlock_report():
    """A bare op and a half-completed Par parked on one channel."""
    sched = Scheduler()
    c1 = sched.add_channel(Channel("c1"))
    c2 = sched.add_channel(Channel("c2"))

    def starved():
        yield Recv(c1)

    def stuck_par():
        yield Par([Send(c2, 7), Recv(c1)])

    sched.spawn("starved", starved())
    sched.spawn("stuck", stuck_par())
    with pytest.raises(DeadlockError) as info:
        sched.run()
    assert str(info.value) == (
        "deadlock: 2 process(es) cannot progress\n"
        "  starved: waiting on recv c1\n"
        "  stuck: waiting on recv c1"
    )
