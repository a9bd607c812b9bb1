"""The documented numbers and test citations cannot go stale.

Every table of EXPERIMENTS.md is regenerated by
``tools/generate_experiment_data.py`` and compared with the document's
fenced block of the same header, character for character.  Every
``tests/...py::Name::name`` citation in the prose documents must name a
file, class and function that exist.
"""

import ast
import pathlib
import re
import runpy

import pytest

from repro.analysis import format_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
CITATION = re.compile(r"tests/[\w/]+\.py(?:::\w+)*")


def _fenced_blocks(text: str) -> list[str]:
    return re.findall(r"^```\w*\n(.*?)^```", text, re.S | re.M)


def test_experiment_tables_are_current():
    tool = runpy.run_path(str(ROOT / "tools" / "generate_experiment_data.py"))
    blocks = _fenced_blocks((ROOT / "EXPERIMENTS.md").read_text())
    for title, rows in tool["experiment_tables"]().items():
        header, _rule, *body = format_table(rows).splitlines()
        expected = "\n".join([header, *body]) + "\n"
        found = [b for b in blocks if b.splitlines()[:1] == [header]]
        assert found == [expected], f"EXPERIMENTS.md table {title!r} is stale"


def _names(body) -> dict:
    return {
        node.name: node
        for node in body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _resolves(citation: str) -> bool:
    path, *names = citation.split("::")
    file = ROOT / path
    if not file.is_file():
        return False
    scope = _names(ast.parse(file.read_text()).body)
    for name in names:
        node = scope.get(name)
        if node is None:
            return False
        scope = _names(node.body) if isinstance(node, ast.ClassDef) else {}
    return True


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name)
def test_cited_tests_exist(document):
    cited = sorted(set(CITATION.findall(document.read_text())))
    missing = [c for c in cited if not _resolves(c)]
    assert not missing, f"{document.name} cites tests that do not exist: {missing}"
