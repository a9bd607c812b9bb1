"""Reproducer (de)serialization: the ``tests/fuzz_corpus/`` format.

A reproducer is a single JSON document holding everything needed to replay
one instance deterministically:

* ``source`` -- the program in concrete syntax (``SourceProgram.to_source``
  round-trips through :func:`repro.lang.parser.parse_program`);
* ``design`` -- exact ``step``/``place`` rows and loading vectors, the same
  shape the ``repro compile`` design-spec files use;
* ``env`` -- the concrete problem-size binding;
* ``harness`` -- every ``HarnessConfig`` field the failure was observed
  under (older files hold only some; a missing one takes its default);
* ``expect`` -- ``"pass"`` for checked-in regression pins (the bug the file
  minimizes is fixed in-tree), ``"fail"`` for freshly minimized output.

File names embed a content hash, so re-minimizing the same bug overwrites
the same file instead of accumulating near-duplicates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from pathlib import Path

from repro.geometry.linalg import Matrix
from repro.geometry.point import Point
from repro.lang.parser import parse_program
from repro.systolic.spec import SystolicArray

FORMAT_VERSION = 1

#: default location of checked-in reproducers, relative to the repo root
CORPUS_DIR = "tests/fuzz_corpus"


def instance_to_json(instance) -> dict:
    """A picklable/serializable snapshot of one instance."""
    array = instance.array
    return {
        "format": FORMAT_VERSION,
        "seed": instance.seed,
        "source": instance.program.to_source(),
        "design": {
            "step": [list(r) for r in array.step.rows],
            "place": [list(r) for r in array.place.rows],
            "loading": {
                name: [int(c) for c in vec]
                for name, vec in sorted(array.loading_vectors.items())
            },
            "name": array.name,
        },
        "env": {k: int(v) for k, v in sorted(instance.env.items())},
    }


def instance_from_json(data: dict):
    """Rebuild a :class:`~repro.fuzz.generator.FuzzInstance` from JSON."""
    from repro.fuzz.generator import FuzzInstance

    program = parse_program(data["source"])
    design = data["design"]
    array = SystolicArray(
        step=Matrix([tuple(r) for r in design["step"]]),
        place=Matrix([tuple(r) for r in design["place"]]),
        loading_vectors={
            name: Point(vec) for name, vec in (design.get("loading") or {}).items()
        },
        name=design.get("name", "corpus"),
    )
    env = {k: int(v) for k, v in data["env"].items()}
    return FuzzInstance(
        program=program, array=array, env=env, seed=int(data.get("seed", -1))
    )


def reproducer_name(data: dict, prefix: str = "minimized") -> str:
    """Deterministic, content-addressed file name for a reproducer."""
    canon = json.dumps(
        {k: data[k] for k in ("source", "design", "env")}, sort_keys=True
    )
    digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
    return f"{prefix}_{digest}.json"


def write_reproducer(
    instance,
    report,
    corpus_dir,
    *,
    config=None,
    prefix: str = "minimized",
    expect: str = "fail",
) -> Path:
    """Serialize a (usually shrunk) failing instance; returns the path."""
    from repro.fuzz.harness import HarnessConfig

    data = instance_to_json(instance)
    data["expect"] = expect
    data["harness"] = asdict(config or HarnessConfig())
    if report is not None and report.failures:
        data["failure"] = {
            "checks": sorted({f.check for f in report.failures}),
            "messages": [f"{f.check}: {f.message}" for f in report.failures[:4]],
        }
    root = Path(corpus_dir)
    root.mkdir(parents=True, exist_ok=True)
    path = root / reproducer_name(data, prefix)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def load_reproducer(path):
    """Read a reproducer file back: ``(instance, harness_config, raw dict)``."""
    from repro.fuzz.harness import HarnessConfig

    data = json.loads(Path(path).read_text())
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported reproducer format {data.get('format')!r}")
    harness = data.get("harness") or {}
    known = {f.name for f in fields(HarnessConfig)}
    config = HarnessConfig(**{k: v for k, v in harness.items() if k in known})
    return instance_from_json(data), config, data


def corpus_files(corpus_dir) -> list[Path]:
    """All reproducer files under a corpus directory, sorted by name."""
    root = Path(corpus_dir)
    if not root.is_dir():
        return []
    return sorted(root.glob("*.json"))


def find_reproducer(ref: str, corpus_dir=CORPUS_DIR) -> Path:
    """Resolve a reproducer reference to its corpus file.

    ``ref`` is content-addressed: the 12-hex-digit digest embedded in the
    file name (``seed_2c6a5806697e`` and ``2c6a5806697e`` both resolve
    ``seed_2c6a5806697e.json``), a full file name, or a unique digest
    prefix of at least four characters.  Raises :class:`ReproError` naming
    the reference when nothing (or more than one file) matches, so the
    service's ``/fuzz-replay`` endpoint reports a clean 400 instead of a
    stack trace.
    """
    from repro.util.errors import ReproError

    ref = ref.strip()
    if not ref:
        raise ReproError("empty fuzz-replay reference")
    files = corpus_files(corpus_dir)
    by_name = {p.name: p for p in files}
    for candidate in (ref, f"{ref}.json"):
        if candidate in by_name:
            return by_name[candidate]
    digest = ref.rpartition("_")[2].removesuffix(".json")
    if len(digest) < 4:
        raise ReproError(
            f"fuzz-replay reference {ref!r} is too short; give at least "
            "4 hex digits of the corpus digest or a full file name"
        )
    matches = [p for p in files if p.stem.rpartition("_")[2].startswith(digest)]
    if not matches:
        raise ReproError(
            f"no reproducer matching {ref!r} under {corpus_dir} "
            f"({len(files)} corpus file(s) present)"
        )
    if len(matches) > 1:
        names = ", ".join(p.name for p in matches[:4])
        raise ReproError(
            f"ambiguous fuzz-replay reference {ref!r}: matches {names}"
        )
    return matches[0]
