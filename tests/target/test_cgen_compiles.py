"""The emitted C compiles cleanly.

``render_c`` output for the four paper designs, every corpus pin and fuzz
seed 0 (whose basic statement reads the loop index ``k``) is handed to the
system C compiler with ``-std=c99 -Wall -Wshadow -Werror``: an unused
variable, a step counter shadowing a loop index, an implicit declaration
or a type mismatch fails the test.  The channel primitives are ``extern``
declarations, so ``-fsyntax-only`` checks the whole file without a link.
Skipped when no ``cc`` is on PATH.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

from repro import compile_systolic, generate_instance
from repro.fuzz.corpus import corpus_files, load_reproducer
from repro.systolic import all_paper_designs
from repro.target import build_target_program, render_c

CC = shutil.which("cc")
CORPUS = Path(__file__).resolve().parent.parent / "fuzz_corpus"
CASES = {eid: (prog, arr) for eid, prog, arr in all_paper_designs()}
_seed0 = generate_instance(0)
CASES["fuzz_seed_0"] = (_seed0.program, _seed0.array)
for _path in corpus_files(CORPUS):
    _instance, _config, _raw = load_reproducer(_path)
    CASES[_path.stem] = (_instance.program, _instance.array)

pytestmark = pytest.mark.skipif(CC is None, reason="no C compiler (cc) on PATH")


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiles_with_all_warnings_as_errors(case, tmp_path):
    prog, arr = CASES[case]
    source = tmp_path / f"{case}.c"
    source.write_text(render_c(build_target_program(compile_systolic(prog, arr))))
    result = subprocess.run(
        [CC, "-fsyntax-only", "-std=c99", "-Wall", "-Wshadow", "-Werror", str(source)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
