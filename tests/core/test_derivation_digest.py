"""Derived programs are pinned byte for byte.

Each digest is the sha256 prefix of ``render_paper(build_target_program(sp))``
for the four paper designs and the first 40 fuzz-generator seeds.  Any change
to guard simplification, pruning or the derivation memo that alters a single
derived case analysis shows up here, naming the program it changed.  After an
intentional change to the derived output, recompute the table with the loop
in :func:`_digest`.
"""

import hashlib

import pytest

from repro import build_target_program, compile_systolic, generate_instance, render_paper
from repro.systolic.designs import all_paper_designs

PAPER_DIGESTS = {
    "D1": "19605958b53ef24c",
    "D2": "45f77bb3469b30c2",
    "E1": "90789ed65c3c7891",
    "E2": "241648b77e27d91d",
}

FUZZ_DIGESTS = {
    0: "27e34d4c7fc33475", 1: "8fde3967eac9678e", 2: "25f39e616191d700",
    3: "f4172fc85a711a81", 4: "171d3e9aea1ae34d", 5: "ab9c66dae4b3cb3f",
    6: "413bcbd548487e40", 7: "c0ec050f4b940a00", 8: "963ed4b830b3ca1f",
    9: "614474eb98712b4b", 10: "7fc9b3d879b29c19", 11: "6759c0e3555a1f93",
    12: "3103b401ad2faefe", 13: "082cb6935b7c90f4", 14: "13b915316a5ef617",
    15: "9ff041c7b8a13bd7", 16: "ad3335d600b27c22", 17: "ed8b7880a87ea258",
    18: "f62e00edd20998ea", 19: "b07fb57f51d15eaf", 20: "530f16b2f9c2b909",
    21: "8dd97f229292e96d", 22: "30632740120da257", 23: "27b60fc85059e1e7",
    24: "4072c4f0caf84178", 25: "11d98a30fea024b4", 26: "2be8ab21b9f419fd",
    27: "d15ace01d878342d", 28: "aab2f445344f28cd", 29: "755a73c02da717e9",
    30: "fe685cbe80ee2090", 31: "dc1806b64b3ed570", 32: "84409814cf3a3e97",
    33: "7050d07930c66a57", 34: "da0c9f0e8d865646", 35: "3bfca6c9c5434b06",
    36: "7a0264a848e8e2fa", 37: "9dd0e79c2700ea12", 38: "fc9d3e52fab1100f",
    39: "284723d3d6e7f0b5",
}


def _digest(program, array) -> str:
    sp = compile_systolic(program, array)
    text = render_paper(build_target_program(sp))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PAPER_DIGESTS))
def test_paper_design_digest(name):
    designs = {n: (program, array) for n, program, array in all_paper_designs()}
    assert _digest(*designs[name]) == PAPER_DIGESTS[name]


def test_fuzz_seed_digests():
    got = {}
    for seed in FUZZ_DIGESTS:
        inst = generate_instance(seed)
        got[seed] = None if inst is None else _digest(inst.program, inst.array)
    changed = {s: d for s, d in got.items() if d != FUZZ_DIGESTS[s]}
    assert not changed, f"derived programs changed for seeds {sorted(changed)}"
