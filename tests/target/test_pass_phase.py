"""The pass phases of a computation process: one node, one order.

A :class:`~repro.target.ast.PassPhase` holds the moving streams' soak (or
drain) amounts, and ``_round_robin`` is the one expansion of it into a
pass order: the simulator runs it, and pygen splices its source into the
generated runner.  The paper and occam renderings state a pass phase as a
``par``/``PAR`` of per-stream passes; the C, which cannot say ``PAR``,
calls its round-robin helper once per pass phase.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import compile_systolic
from repro.fuzz.corpus import load_reproducer
from repro.target import (
    build_target_program,
    render_c,
    render_occam,
    render_paper,
    render_python,
)
from repro.target.ast import LoadPhase, PassPhase, _round_robin
from repro.target.pygen import module_for
from repro.verify.mutations import apply_mutation

CORPUS = Path(__file__).resolve().parent.parent / "fuzz_corpus"
#: the corpus pins that deadlock at capacity 1 when the passes run one
#: stream at a time (``ROUND_ROBIN_PINS`` of the kill matrix)
ROUND_ROBIN_PINS = ("seed_1e31eacfe4c2", "seed_7551259922cb")

IO = [("a", "a.in", "a.out"), ("b", "b.in", "b.out"), ("c", "c.in", "c.out")]
A, B, C = (io[1:] for io in IO)


class TestRoundRobin:
    def test_zero_amounts_pass_nothing(self):
        assert _round_robin(IO[:1], [0]) == []
        assert _round_robin(IO, [0, 0, 0]) == []

    def test_a_single_stream_passes_its_amount(self):
        assert _round_robin(IO[1:2], [3]) == [B, B, B]

    def test_unequal_amounts(self):
        """Round r passes every stream whose amount exceeds r."""
        assert _round_robin(IO, [2, 0, 3]) == [A, C, A, C, C]
        assert _round_robin(IO, [1, 3, 2]) == [A, B, C, B, C, B]

    def test_equal_amounts_alternate(self):
        assert _round_robin(IO[:2], [2, 2]) == [A, B, A, B]


@pytest.fixture(scope="module", params=ROUND_ROBIN_PINS)
def pin(request):
    instance, _config, _raw = load_reproducer(CORPUS / f"{request.param}.json")
    return compile_systolic(instance.program, instance.array)


def _moving(sp) -> list[str]:
    return [p.name for p in sp.streams if not p.stationary]


def _stationary(sp) -> list[str]:
    return [p.name for p in sp.streams if p.stationary]


class TestNode:
    def test_one_soak_and_one_drain_phase_over_the_moving_streams(self, pin):
        phases = build_target_program(pin).compute.phases
        passes = [p for p in phases if isinstance(p, PassPhase)]
        assert [p.kind for p in passes] == ["soak", "drain"]
        moving = _moving(pin)
        assert len(moving) == 2
        for phase in passes:
            assert [s for s, _ in phase.passes] == moving
        soak, drain = passes
        assert [a for _, a in soak.passes] == [pin.plan(s).soak for s in moving]
        assert [a for _, a in drain.passes] == [pin.plan(s).drain for s in moving]

    def test_arranged_once_per_instance(self, pin):
        assert build_target_program(pin) is build_target_program(pin)

    def test_a_mutant_arranges_its_own_amounts(self, pin):
        """A planted mutant shares its original's fingerprint, yet renders
        its own amounts."""
        mutant = apply_mutation(pin, "soak_plus_one")
        assert mutant.fingerprint == pin.fingerprint
        tp, mutant_tp = build_target_program(pin), build_target_program(mutant)
        assert mutant_tp is not tp
        soak = next(p for p in mutant_tp.compute.phases if isinstance(p, PassPhase))
        assert [a for _, a in soak.passes] == [
            mutant.plan(s).soak for s in _moving(mutant)
        ]
        assert render_paper(mutant_tp) != render_paper(tp)


class TestRenderings:
    def test_paper_states_each_pass_phase_as_one_par(self, pin):
        text = render_paper(build_target_program(pin))
        compute = text.split("-- Input Processes")[0]
        blocks = re.findall(r"\n    par\n((?:      pass .*\n)+)    end par", compute)
        streams = [re.findall(r"pass (\w+),", block) for block in blocks]
        assert streams == [_moving(pin)] * 2

    def test_occam_states_each_pass_phase_as_one_par(self, pin):
        text = render_occam(build_target_program(pin))
        compute = text[text.index("PROC compute") : text.index("PROC input.")]
        blocks = re.findall(r"\n    PAR\n((?:      pass\.elems .*\n)+)", compute)
        streams = [re.findall(r"pass\.elems \((\w+)\.(\w+),", b) for b in blocks]
        moving = _moving(pin)
        assert streams == [[(s, "soak") for s in moving], [(s, "drain") for s in moving]]

    def test_c_calls_the_round_robin_helper_once_per_pass_phase(self, pin):
        text = render_c(build_target_program(pin))
        assert text.count("static void pass_round_robin(") == 1
        compute = text[text.index("void compute(") :]
        compute = compute[: compute.index("\n}\n")]
        calls = [
            (int(m), re.findall(r"amt\((\w+)\(", counts))
            for m, counts in re.findall(
                r"pass_round_robin\((\d+), \(long\[\]\)\{([^}]*)\}", compute
            )
        ]
        moving, stationary = _moving(pin), _stationary(pin)
        assert calls == [
            *((1, [f"{s}_load_passes"]) for s in stationary),
            (2, [f"{s}_soak" for s in moving]),
            (2, [f"{s}_drain" for s in moving]),
            *((1, [f"{s}_recover_passes"]) for s in stationary),
        ]

    def test_pygen_tables_list_the_phase_streams(self, pin):
        module = module_for(render_python(pin))
        phases = build_target_program(pin).compute.phases
        assert [s for s, _ in module["SOAK"]] == _moving(pin)
        assert [s for s, _ in module["DRAIN"]] == _moving(pin)
        assert [s for s, _ in module["LOADS"]] == [
            p.stream for p in phases if isinstance(p, LoadPhase)
        ]
        assert [s for s, _ in module["RECOVERS"]] == _stationary(pin)
