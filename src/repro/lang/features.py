"""Grammar-coverage tags of a source program.

The fuzz generator stratifies its campaigns by these tags
(``generate_instance(feature=...)``, ``repro fuzz --feature``); the
campaign summary counts them per instance (see ``docs/fuzzing.md``).  They
live here, beside the language, so the CLI can offer them without loading
the fuzz stack.
"""

from __future__ import annotations

from repro.lang.program import SourceProgram
from repro.symbolic.minmax import Extremum

__all__ = ["FEATURES", "program_features"]

#: strata a campaign can be restricted to (`generate_instance(feature=...)`)
FEATURES = ("negative_step", "all_negative", "minmax_bound", "multi_branch")


def program_features(program: SourceProgram) -> frozenset[str]:
    """The grammar-coverage tags of one program (see ``docs/fuzzing.md``)."""
    tags = set()
    steps = [lp.step for lp in program.loops]
    if any(s < 0 for s in steps):
        tags.add("negative_step")
    if all(s < 0 for s in steps):
        tags.add("all_negative")
    if any(
        isinstance(b, Extremum)
        for lp in program.loops
        for b in (lp.lower, lp.upper)
    ):
        tags.add("minmax_bound")
    if len(program.body.streams_written()) > 1:
        tags.add("multi_branch")
    return frozenset(tags)
