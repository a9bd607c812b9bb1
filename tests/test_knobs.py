"""Knob census: every ``REPRO_*`` environment variable is documented, and
the run entry points take exactly the keyword options listed here.

The library reads only the knobs below.  A new one fails this test until
it is added here and to the "Knobs" table of ``docs/performance.md``, so
no knob lands by accident.  Likewise a new run-mode switch on an engine
entry point fails :func:`test_run_entry_points_take_exactly_the_known_options`
until it is added to :data:`RUN_OPTIONS`, and a new fuzz harness field or
``repro fuzz`` flag fails until it is added to :data:`HARNESS_FIELDS` or
:data:`FUZZ_FLAGS`.
"""

import dataclasses
import inspect
import pathlib
import re

from repro.analysis.wavefront import wavefront_schedule
from repro.cli import build_parser
from repro.compilation import Compilation
from repro.extensions.partition import partitioned_schedule
from repro.fuzz.driver import fuzz_run
from repro.fuzz.harness import HarnessConfig
from repro.parallel import sweep_designs
from repro.runtime.network import NetworkPlan, execute
from repro.runtime.scheduler import Scheduler
from repro.target.npgen import execute_numpy_batch
from repro.verify.equivalence import run_backend

ROOT = pathlib.Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")

KNOBS = {"REPRO_PROFILE"}

#: entry point -> its parameters that have a default (the settable options)
RUN_OPTIONS = {
    execute: {"inputs", "channel_capacity", "fold", "max_rounds"},
    NetworkPlan.instantiate: {"inputs", "channel_capacity", "fold"},
    Scheduler.run: {"max_rounds"},
    run_backend: {"backend", "shape", "channel_capacity", "rendered"},
    Compilation.run: {
        "backend",
        "seed",
        "batch",
        "inputs",
        "shape",
        "channel_capacity",
        "check",
    },
    execute_numpy_batch: {"shape"},
    wavefront_schedule: set(),
    partitioned_schedule: set(),
    fuzz_run: {
        "seed",
        "iterations",
        "time_budget",
        "jobs",
        "config",
        "shrink",
        "max_shrink_steps",
        "corpus_dir",
        "max_failures",
        "feature",
        "log",
    },
    sweep_designs: {"bound", "limit", "jobs"},
}

HARNESS_FIELDS = {
    "seed",
    "mutate",
    "input_sets",
    "check_npgen",
    "check_capacity",
    "check_partition",
    "max_mismatches",
}

#: ``repro fuzz`` options, by argparse destination
FUZZ_FLAGS = {
    "seed",
    "iterations",
    "time_budget",
    "jobs",
    "input_seed",
    "mutate",
    "input_sets",
    "no_shrink",
    "max_shrink_steps",
    "corpus_dir",
    "feature",
    "summary_out",
}


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


def test_run_entry_points_take_exactly_the_known_options():
    for fn, options in RUN_OPTIONS.items():
        params = inspect.signature(fn).parameters.values()
        found = {p.name for p in params if p.default is not p.empty}
        assert found == options, fn.__qualname__


def test_harness_config_has_exactly_the_known_fields():
    assert {f.name for f in dataclasses.fields(HarnessConfig)} == HARNESS_FIELDS


def test_fuzz_command_takes_exactly_the_known_flags():
    args = vars(build_parser().parse_args(["fuzz"]))
    assert set(args) - {"command", "func"} == FUZZ_FLAGS
