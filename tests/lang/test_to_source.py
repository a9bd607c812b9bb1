"""Round-trip tests: SourceProgram.to_source() -> parse_program."""

import json
import pathlib

import pytest

from repro import parse_program, run_sequential
from repro.systolic import (
    all_paper_designs,
    rectangular_matmul_program,
    reversed_polyprod_program,
)
from repro.verify import random_inputs


def roundtrip(prog, env):
    reparsed = parse_program(prog.to_source())
    assert reparsed.name == prog.name
    assert reparsed.loops == prog.loops
    assert [s.index_map for s in reparsed.streams] == [
        s.index_map for s in prog.streams
    ]
    assert [s.variable for s in reparsed.streams] == [
        s.variable for s in prog.streams
    ]
    inputs = random_inputs(prog, env, seed=9)
    assert run_sequential(prog, env, inputs) == run_sequential(reparsed, env, inputs)
    return reparsed


class TestRoundTrip:
    @pytest.mark.parametrize("idx", [0, 2])
    def test_paper_programs(self, idx):
        prog = all_paper_designs()[idx][1]
        roundtrip(prog, {"n": 2})

    def test_negative_step(self):
        prog = reversed_polyprod_program()
        reparsed = roundtrip(prog, {"n": 3})
        assert reparsed.loops[1].step == -1

    def test_multiple_size_symbols(self):
        prog = rectangular_matmul_program()
        reparsed = roundtrip(prog, {"l": 2, "m": 3, "p": 2})
        assert set(reparsed.size_symbols) == {"l", "m", "p"}

    def test_guarded_body(self):
        text = """
program guarded
size n
var a[0..n], b[0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
    if j == 0 -> a[i] := 0
    a[i] := a[i] + b[j]
"""
        prog = parse_program(text)
        reparsed = roundtrip(prog, {"n": 3})
        assert reparsed.body.branches[0].condition is not None

    def test_minmax_body(self):
        text = """
size n
var a[0..n], b[0..n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
    a[i] := min(a[i], b[j])
"""
        prog = parse_program(text)
        roundtrip(prog, {"n": 3})

    def test_source_is_plain_text(self):
        src = all_paper_designs()[0][1].to_source()
        assert "program polyprod" in src
        assert "var a[0..n]" in src
        assert "c[i + j] :=" in src


CORPUS = pathlib.Path(__file__).resolve().parent.parent / "fuzz_corpus"


def _programs():
    for eid, prog, _array in all_paper_designs():
        yield pytest.param(prog, id=eid)
    yield pytest.param(rectangular_matmul_program(), id="rectangular_matmul")
    for path in sorted(CORPUS.glob("*.json")):
        source = json.loads(path.read_text())["source"]
        yield pytest.param(parse_program(source), id=path.stem)


@pytest.mark.parametrize("prog", list(_programs()))
def test_all_size_symbols_covers_variable_bounds(prog):
    """Variable bounds mention no size symbol beyond the declared and
    loop-bound ones, so ``all_size_symbols`` (which adds them) binds the
    same sample sizes as a loop-bounds-only union would."""
    loop_syms = set(prog.size_symbols).union(
        *(lp.lower.free_symbols | lp.upper.free_symbols for lp in prog.loops)
    )
    assert prog.all_size_symbols == tuple(sorted(loop_syms))
