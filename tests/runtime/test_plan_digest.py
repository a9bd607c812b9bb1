"""Network plans are pinned byte for byte.

Each digest is the sha256 prefix of a canonical rendering of one
:class:`NetworkPlan`: channel names, channel ends, process names and
positions, per-chain element totals and per-node amounts.  The plans are
those of the first 40 fuzz-generator seeds and of every corpus pin, each
at its instance's problem size.  A rewrite of the plan builder that
changes one channel, one process or one amount shows up here, naming the
instance it changed.

Every compute process's per-statement index environments are checked
against the repeater's own enumeration (``Repeater.enumerate_at`` plus
``SourceProgram.index_env``), so the builder runs no second enumeration.

After an intentional change to the network shape, recompute the tables
with :func:`_plan_digest`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro import compile_systolic, generate_instance
from repro.fuzz.corpus import corpus_files, load_reproducer
from repro.runtime.network import NetworkPlan, _ComputeProcess

CORPUS = Path(__file__).resolve().parent.parent / "fuzz_corpus"

FUZZ_PLAN_DIGESTS = {
    0: "89e217c9365d5882", 1: "305a2bd65bbe2ce9", 2: "52a26715e275de52",
    3: "fafff1f81b5569da", 4: "168aee3a292c7e16", 5: "c842007ecccbaf9e",
    6: "0624ce7366c097c8", 7: "111bcfd8c0232f83", 8: "69a01b2fea850894",
    9: "b3d18921236e822a", 10: "348ce347d65d9e37", 11: "e27b966a507fe220",
    12: "f38814f538b13c1a", 13: "985639d11852c039", 14: "7605e29a42d0d6fc",
    15: "12dbc97872abe81b", 16: "5db220275f6a2497", 17: "68954ce8c733c289",
    18: "df41e4beb3cbd2f6", 19: "6cc7040714d0fdae", 20: "36d6f59953583c89",
    21: "b5281431ab834a46", 22: "36a19a323f19f857", 23: "87042750271d3994",
    24: "c3fadb709a838f15", 25: "112bbec510f94e6a", 26: "f444006e9e41d8b4",
    27: "6b0428f0303c91e6", 28: "64c3ad175b97b587", 29: "c9f02fbfd592f45f",
    30: "fb9721a4e463bb26", 31: "30e4f4ea8c651cb5", 32: "47ba4e4a3753df68",
    33: "99b316f199dd3ccd", 34: "78800af3117982b6", 35: "4d149ee746fec5f6",
    36: "b50832f3a15ea94b", 37: "c14431bf3c9a969a", 38: "c725e8ae5ce0408a",
    39: "f409739ea433d47a",
}

CORPUS_PLAN_DIGESTS = {
    "seed_1e31eacfe4c2": "a711dd1086b8ec3f",
    "seed_2c6a5806697e": "8c06c48fc47dff52",
    "seed_55ecb3e253dc": "7f54a42db5804996",
    "seed_7551259922cb": "6dab5a5c7306906d",
    "seed_b5d9d9eda11f": "5143c565a185c706",
    "seed_da1eb3cbea21": "39185a7eba205d99",
}


def _pos(point) -> tuple | None:
    return None if point is None else tuple(int(c) for c in point)


def _plan_digest(plan: NetworkPlan) -> str:
    """sha256 prefix of the plan's channels, processes, totals, amounts."""
    channels = [
        (name, _pos(src), _pos(dst))
        for name, (src, dst) in zip(plan.channel_names, plan.channel_ends)
    ]
    processes = [(name, _pos(position)) for name, position, _ in plan.processes]
    totals = sorted(
        ((name, _pos(y)), total) for (name, y), total in plan.chain_totals.items()
    )
    amounts = sorted(
        (_pos(y), count, sorted(per_stream.items()))
        for y, (count, per_stream) in plan.amounts.items()
    )
    text = repr((channels, processes, totals, amounts))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plan(instance) -> NetworkPlan:
    return NetworkPlan(compile_systolic(instance.program, instance.array), instance.env)


def _check_index_envs(plan: NetworkPlan) -> None:
    sp, env = plan.sp, plan.env
    base = {k: int(v) for k, v in env.items()}
    computes = 0
    for name, position, factory in plan.processes:
        if not isinstance(factory, _ComputeProcess):
            continue
        computes += 1
        expected = [
            dict(base, **sp.source.index_env(x))
            for x in sp.repeater.enumerate_at(sp.bind(position, env))
        ]
        assert list(factory.index_envs) == expected, name
    assert computes == plan.node_counts["compute"]


def _fuzz_instances():
    for seed in FUZZ_PLAN_DIGESTS:
        yield seed, generate_instance(seed)


def test_fuzz_seed_plan_digests():
    got = {}
    for seed, inst in _fuzz_instances():
        got[seed] = None if inst is None else _plan_digest(_plan(inst))
    changed = sorted(s for s, d in got.items() if d != FUZZ_PLAN_DIGESTS[s])
    assert not changed, f"network plans changed for seeds {changed}"


@pytest.mark.parametrize("path", corpus_files(CORPUS), ids=lambda p: p.stem)
def test_corpus_plan_digest(path):
    instance, _config, _raw = load_reproducer(path)
    assert _plan_digest(_plan(instance)) == CORPUS_PLAN_DIGESTS[path.stem]


def test_index_envs_come_from_the_repeater():
    for _seed, inst in _fuzz_instances():
        if inst is not None:
            _check_index_envs(_plan(inst))
    for path in corpus_files(CORPUS):
        instance, _config, _raw = load_reproducer(path)
        _check_index_envs(_plan(instance))
