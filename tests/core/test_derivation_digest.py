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
    "D1": "dbec72c6e46d5176",
    "D2": "9cd6d98641256ea4",
    "E1": "0d1135da6e48646b",
    "E2": "92347360e1900ee7",
}

FUZZ_DIGESTS = {
    0: "d43b71aaaaf8f090", 1: "b8c2425ae71dd1ed", 2: "41fb59a634f27215",
    3: "27b198366f315dcd", 4: "e315909e36ede48f", 5: "15f734f4fada7934",
    6: "8d36bfb3463070bf", 7: "b315113e08fe64ce", 8: "02b6ec58b838110b",
    9: "b116b6d8a1ba8fec", 10: "55cade7b7fe061d0", 11: "33ab2f3730ab7a25",
    12: "d40c7a5839af851e", 13: "3b23d7b0d0ddf0d9", 14: "d00e1a14ea7dfb53",
    15: "9ff041c7b8a13bd7", 16: "83c85a6317479d41", 17: "03d2620f6d46f8ad",
    18: "5799b07d005d0935", 19: "fb1b24b18d188e88", 20: "53be54e5601525aa",
    21: "e93cd33d079aa5ab", 22: "a6c708ff2733879d", 23: "49d9359f3a50603b",
    24: "f85bfec85ca7752a", 25: "f8ab28ea49b68131", 26: "1ae4023518cb37e9",
    27: "17fab63aa2453875", 28: "73600d232480fe88", 29: "3b9e503413232827",
    30: "9bdc687d5b5dae47", 31: "7de73c945a0fafad", 32: "f7540322df9d7cdf",
    33: "f989845b661b862c", 34: "260c9366961c4686", 35: "1e7273ad4f8259b2",
    36: "86cccfa4f090d657", 37: "d9c2aad496eb94cb", 38: "e17bc405ac6fa10c",
    39: "9e51c2dd7b9e36a2",
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
