"""The four target renderers on the four paper designs.

Snapshot-style stability: rendering is a pure function of the compiled
program, so rendering twice (from independently compiled programs) must
give byte-identical text, and the text must carry the structural markers
of the paper's generated programs.
"""

import pytest

from repro import compile_systolic
from repro.systolic import all_paper_designs
from repro.target import (
    build_target_program,
    render_c,
    render_occam,
    render_paper,
    render_python,
)

ALL = list(all_paper_designs())
IDS = [exp for exp, _, _ in ALL]


@pytest.fixture(scope="module", params=range(len(ALL)), ids=IDS)
def design(request):
    exp, prog, arr = ALL[request.param]
    return exp, prog, arr, compile_systolic(prog, arr)


class TestRenderStability:
    def test_stable_across_recompiles(self, design):
        """Same design, compiled twice -> byte-identical renderings."""
        exp, prog, arr, sp = design
        sp2 = compile_systolic(prog, arr)
        tp, tp2 = build_target_program(sp), build_target_program(sp2)
        assert render_paper(tp) == render_paper(tp2)
        assert render_occam(tp) == render_occam(tp2)
        assert render_c(tp) == render_c(tp2)
        assert render_python(sp) == render_python(sp2)


class TestPaperNotation:
    def test_structure(self, design):
        exp, _, _, sp = design
        text = render_paper(build_target_program(sp))
        assert text.strip()
        assert "par" in text and "parfor" in text
        assert "Input Processes" in text and "Output Processes" in text
        assert "Buffer Processes" in text
        for plan in sp.streams:
            assert plan.name in text

    def test_repeater_notation(self, design):
        """Repeaters are written {first last increment} on i/o processes."""
        exp, _, _, sp = design
        text = render_paper(build_target_program(sp))
        for plan in sp.streams:
            assert f"in {plan.name} : {{" in text
            assert f"out {plan.name} : {{" in text


class TestOccam:
    def test_structure(self, design):
        exp, _, _, sp = design
        text = render_occam(build_target_program(sp))
        assert "PROC compute" in text
        assert "PROC pass.elems" in text
        assert "PAR" in text and "SEQ" in text
        for plan in sp.streams:
            assert f"PROC input.{plan.name}" in text
            assert f"PROC output.{plan.name}" in text


class TestC:
    def test_structure(self, design):
        exp, _, _, sp = design
        text = render_c(build_target_program(sp))
        assert "void compute(" in text
        assert "chan_send" in text and "chan_recv" in text
        assert "static long count_steps(" in text
        for plan in sp.streams:
            assert f"void input_{plan.name}(" in text
            assert f"void output_{plan.name}(" in text

    def test_closed_forms_lowered(self, design):
        """Every soak/drain/pass amount becomes a guarded flat function."""
        exp, _, _, sp = design
        text = render_c(build_target_program(sp))
        for plan in sp.streams:
            assert f"{plan.name}_pass_amount(" in text


class TestPygenSource:
    def test_compiles(self, design):
        exp, _, _, sp = design
        source = render_python(sp)
        compile(source, f"<pygen:{exp}>", "exec")

    def test_standalone(self, design):
        """The emitted module imports nothing outside the stdlib."""
        exp, _, _, sp = design
        source = render_python(sp)
        for line in source.splitlines():
            if line.startswith(("import ", "from ")):
                mod = line.split()[1]
                assert mod in {"fractions", "collections"}

    def test_interface(self, design):
        exp, _, _, sp = design
        source = render_python(sp)
        assert "def run(sizes, inputs):" in source
        namespace = {}
        exec(compile(source, f"<pygen:{exp}>", "exec"), namespace)
        assert namespace["COORDS"] == sp.coords
        assert len(namespace["STREAMS"]) == len(sp.streams)
