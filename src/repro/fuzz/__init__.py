"""Differential conformance fuzzing.

The scheme's whole value is that every derived quantity (repeaters, i/o
endpoints, soak/drain, buffers) is *exact* -- and after several rounds of
aggressive caching (interning, cross-design memoization, compiled guard
closures, module caches) the realistic risk is a cache layer silently
diverging on a program shape nobody hand-wrote.  This package generates
those shapes:

* :mod:`repro.fuzz.generator` -- seeded random *valid* source programs
  (perfect r-in-{2,3} loop nests, affine bounds, rank-(r-1) constant-free
  index maps, randomized guarded bodies) plus consistent ``step``/``place``
  designs drawn from the bounded synthesis space;
* :mod:`repro.fuzz.harness` -- a differential harness that runs each
  instance through the sequential oracle, the coroutine simulator, the
  compiled Python backend and the enumerative cross-check, checks that a
  pickle round-trip re-interns to the same program, and optionally runs
  the NumPy engine (unfolded and folded onto 2 bands) and a larger
  channel capacity;
* :mod:`repro.fuzz.shrink` -- a greedy shrinker that minimizes failing
  instances (drop loops, shrink bounds and sizes, drop branches/streams,
  simplify expressions) and writes deterministic reproducers;
* :mod:`repro.fuzz.corpus` -- JSON (de)serialization of instances and the
  ``tests/fuzz_corpus/`` reproducer format;
* :mod:`repro.fuzz.driver` -- the ``repro fuzz`` campaign loop (seeds,
  iteration/time budgets, one ordered worker fan-out, shrinking,
  summaries).
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "CheckFailure",
    "FuzzInstance",
    "FuzzSummary",
    "HarnessConfig",
    "InstanceReport",
    "MUTATIONS",
    "apply_mutation",
    "fuzz_run",
    "generate_design",
    "generate_instance",
    "generate_program",
    "instance_from_json",
    "instance_to_json",
    "load_reproducer",
    "run_instance",
    "shrink_instance",
    "write_reproducer",
]

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.fuzz.corpus": (
            "instance_from_json",
            "instance_to_json",
            "load_reproducer",
            "write_reproducer",
        ),
        "repro.fuzz.driver": ("FuzzSummary", "fuzz_run"),
        "repro.fuzz.generator": (
            "FuzzInstance",
            "generate_design",
            "generate_instance",
            "generate_program",
        ),
        "repro.fuzz.harness": (
            "CheckFailure",
            "HarnessConfig",
            "InstanceReport",
            "run_instance",
        ),
        "repro.fuzz.shrink": ("shrink_instance",),
        "repro.verify.mutations": ("MUTATIONS", "apply_mutation"),
    },
)
