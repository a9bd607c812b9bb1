"""Replay every checked-in reproducer in ``tests/fuzz_corpus/``.

Each corpus file becomes one pytest case.  ``"expect": "pass"`` files are
regression pins: instances the harness once exercised (or minimized
reproducers of since-fixed bugs) that must stay green forever.
``"expect": "fail"`` files would be open bugs -- the campaign writes them
but they are only checked in deliberately; replaying them red keeps an
open bug visible until it is fixed and the file flipped to ``"pass"``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fuzz.corpus import corpus_files, load_reproducer
from repro.fuzz.harness import run_instance

CORPUS = Path(__file__).resolve().parent.parent / "fuzz_corpus"


def test_retired_harness_field_still_loads(tmp_path):
    """A reproducer naming a retired check flag (``check_threaded``, whose
    thread-per-process engine is gone, or ``check_pool``, whose
    pool-vs-serial sweep caught nothing) loads and replays on the checks
    that remain."""
    raw = json.loads((CORPUS / "seed_1e31eacfe4c2.json").read_text())
    raw["harness"]["check_threaded"] = True
    raw["harness"]["check_pool"] = True
    path = tmp_path / "old.json"
    path.write_text(json.dumps(raw))
    instance, config, _raw = load_reproducer(path)
    assert run_instance(instance, config).ok


def test_corpus_is_not_empty():
    assert corpus_files(CORPUS), (
        f"no reproducers under {CORPUS}; the checked-in pins are gone"
    )


@pytest.mark.parametrize(
    "path", corpus_files(CORPUS), ids=lambda p: p.stem
)
def test_pin_declares_expectation(path):
    _, _, raw = load_reproducer(path)
    expect = raw.get("expect")
    assert expect in ("pass", "fail"), (
        f"{path.name}: every pin must declare \"expect\": \"pass\"|\"fail\""
    )
    if expect == "fail":
        assert raw.get("failure", {}).get("checks"), (
            f"{path.name}: expect-fail pins must record the failing check "
            "set under failure.checks"
        )


@pytest.mark.parametrize(
    "path", corpus_files(CORPUS), ids=lambda p: p.stem
)
def test_replay(path):
    instance, config, raw = load_reproducer(path)
    report = run_instance(instance, config)
    if raw.get("expect") == "pass":
        assert report.ok, f"{path.name}: regression pin went red: {report}"
    else:
        expected = set(raw.get("failure", {}).get("checks", []))
        assert not report.ok, (
            f"{path.name}: expected-fail reproducer now passes; "
            "flip it to \"expect\": \"pass\""
        )
        # The pinned failure-kind set is the bug's signature: replay must
        # fail for exactly the recorded reasons, or the file is stale.
        assert report.failed_checks == expected, (
            f"{path.name}: fails differently from its pin "
            f"({sorted(report.failed_checks)} vs pinned {sorted(expected)})"
        )
