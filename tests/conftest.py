"""Shared pytest configuration: Hypothesis profiles.

CI runs with ``--hypothesis-profile=ci`` (see ``.github/workflows/ci.yml``):
derandomized, so every property suite draws the same examples on every run
and a red build is always reproducible locally with the same flag.  Any
other run loads the ``dev`` profile: random exploration with no per-example
deadline, since a shared or loaded machine can stretch one example past
Hypothesis's default 200 ms without anything being wrong.
"""

from __future__ import annotations

try:
    from hypothesis import settings
except ImportError:  # property suites are skipped without hypothesis
    settings = None

if settings is not None:
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        print_blob=True,
    )
    settings.register_profile("dev", deadline=None)


def pytest_configure(config):
    if settings is not None and not config.getoption(
        "--hypothesis-profile", None
    ):
        settings.load_profile("dev")
