"""Knob census: every ``REPRO_*`` environment variable is documented.

The library reads only the knobs below.  A new one fails this test until
it is added here and to the "Knobs" table of ``docs/performance.md``, so
no knob lands by accident.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")

KNOBS = {"REPRO_PROFILE", "REPRO_DISABLE_MEMO"}


def _source_knobs() -> set[str]:
    return {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in KNOB.findall(path.read_text())
    }


def _documented_knobs() -> set[str]:
    text = (ROOT / "docs" / "performance.md").read_text()
    table = text.split("## Knobs", 1)[1].split("\n\n", 2)[1]
    return {
        KNOB.search(row).group()
        for row in table.splitlines()
        if row.startswith("| `REPRO_")
    }


def test_source_reads_exactly_the_known_knobs():
    assert _source_knobs() == KNOBS


def test_every_knob_is_documented():
    assert _documented_knobs() == KNOBS
