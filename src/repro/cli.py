"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------

``compile``     parse a source file + design spec, print the derived program
                (summary, paper notation, occam or C flavour);
``verify``      compile, execute on the simulator at given sizes and compare
                against the sequential oracle;
``execute``     compile and run on a chosen backend (``sim`` simulator,
                ``pygen`` rendered Python module, ``npgen`` vectorized
                NumPy wavefronts) with optional batching, checking results
                against the oracle unless ``--no-check``;
``synthesize``  derive step/place candidates from the dependences and print
                the design space;
``designs``     list the built-in catalogue;
``fuzz``        differential conformance fuzzing: random programs + designs
                through oracle / simulator / compiled backend / enumerative
                cross-check, with shrinking of any failure;
``serve``       run the asyncio compile-service daemon: HTTP/JSON endpoints
                (compile / explore / execute / verify / fuzz-replay) over a
                content-addressed design store with request coalescing
                and per-request timeouts.

A *design spec* is a JSON file::

    {
      "step":  [[2, 1]],
      "place": [[1, 0]],
      "loading": {"a": [1]},     // loading & recovery vectors (optional)
      "name": "D.1"              // optional
    }

Problem sizes are given as ``name=value`` pairs, e.g. ``-s n=8``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from repro.compilation import EMITTERS, Compilation
from repro.lang.parser import parse_program
from repro.lang.program import SourceProgram
from repro.systolic.schedule import makespan, synthesize_places, synthesize_step
from repro.systolic.spec import array_from_spec
from repro.util.errors import ReproError
from repro.verify.equivalence import verify_design


def _read(path: str) -> str:
    """A file's text; an unreadable file is a :class:`ReproError`."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ReproError(f"cannot read {path!r}: {reason}") from None


def _program(args: argparse.Namespace) -> SourceProgram:
    return parse_program(_read(args.source))


def _compilation(args: argparse.Namespace) -> Compilation:
    """Compile ``args.source`` under the design-spec file ``args.design``."""
    program = _program(args)
    try:
        spec = json.loads(_read(args.design))
    except json.JSONDecodeError as exc:
        raise ReproError(f"design spec {args.design!r} is not JSON: {exc}") from None
    array = array_from_spec(spec, default_name=Path(args.design).stem)
    return Compilation.compile(program, array)


def parse_size_pair(pair: str) -> tuple[str, int]:
    """``"n=4"`` -> ``("n", 4)``; a malformed pair raises :class:`ReproError`."""
    name, sep, value = pair.partition("=")
    try:
        if sep:
            return name.strip(), int(value)
    except ValueError:
        pass
    raise ReproError(f"size must be name=value with an integer value, got {pair!r}")


def parse_sizes(pairs: list[str]) -> dict[str, int]:
    return dict(map(parse_size_pair, pairs))


def parse_array_shape(text: str) -> tuple[int, ...]:
    """``"3"`` -> ``(3,)``; ``"2x2"`` (or ``2×2``) -> ``(2, 2)``."""
    parts = text.lower().replace("×", "x").split("x")
    try:
        shape = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise ReproError(
            f"array shape must be P or PxQ (integers), got {text!r}"
        ) from None
    if not shape or any(s < 1 for s in shape):
        raise ReproError(f"array shape must be positive, got {text!r}")
    return shape


def parse_size_sweep(pairs: list[str]) -> list[dict[str, int]]:
    """``name=value`` pairs -> one env per size combination.

    Repeating a name sweeps it: ``-s n=4 -s n=8`` yields ``[{n: 4},
    {n: 8}]``; with several swept names the cartesian product is taken in
    first-appearance order.
    """
    values: dict[str, list[int]] = {}
    for pair in pairs:
        name, v = parse_size_pair(pair)
        bucket = values.setdefault(name, [])
        if v not in bucket:
            bucket.append(v)
    envs: list[dict[str, int]] = [{}]
    for name, options in values.items():
        envs = [dict(env, **{name: v}) for env in envs for v in options]
    return envs


def cmd_compile(args: argparse.Namespace) -> int:
    handle = _compilation(args)
    print(handle.sp.summary())
    if args.emit != "none":
        print()
        print(handle.emit(args.emit))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    handle = _compilation(args)
    report = verify_design(
        handle.program,
        handle.array,
        parse_sizes(args.size),
        compiled=handle.sp,
        seed=args.seed,
        channel_capacity=args.capacity,
        raise_on_mismatch=False,
    )
    print(report)
    for mismatch in report.mismatches[:10]:
        print(" ", mismatch)
    return 0 if report.matched else 1


def cmd_execute(args: argparse.Namespace) -> int:
    handle = _compilation(args)
    env = parse_sizes(args.size)
    shape = parse_array_shape(args.array) if args.array else None
    done = handle.run(
        env,
        backend=args.backend,
        seed=args.seed,
        batch=args.batch,
        shape=shape,
        check=not args.no_check,
    )
    array_note = ""
    if shape is not None:
        from repro.extensions.partition import partitioned_schedule

        schedule = partitioned_schedule(handle.sp, env, shape)
        array_note = f", array {'x'.join(str(s) for s in schedule.shape)}"
    print(
        f"execute[{args.backend}] {env}: batch {args.batch}, "
        f"{done.elements} elements/run{array_note}, {done.seconds:.3f}s"
    )
    if shape is not None:
        print(schedule.summary())
    if args.no_check:
        return 0
    if done.mismatched:
        print(f"MISMATCH: {done.mismatched} element(s) disagree with the oracle")
        return 1
    print("oracle check: OK (bit-identical)")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    program = _program(args)
    steps = synthesize_step(program, bound=args.bound)
    env = {s: 4 for s in program.all_size_symbols}
    if not steps:
        raise ReproError(
            f"no minimal-makespan step candidate at bound {args.bound}; "
            "raise --bound"
        )
    print(f"{len(steps)} minimal-makespan step candidate(s) at bound {args.bound}:")
    for step in steps:
        print(f"  step {step.rows[0]}  makespan {makespan(program, step, env)}")
    step = steps[0]
    places = synthesize_places(program, step, bound=1)
    print(f"\n{len(places)} compatible place(s) for step {step.rows[0]} at bound 1")
    for place in places[: args.limit]:
        print(f"  place rows {place.rows}")
    if len(places) > args.limit:
        print(f"  ... and {len(places) - args.limit} more (raise --limit)")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.parallel import resolve_jobs, sweep_designs

    program = _program(args)
    steps = synthesize_step(program, bound=args.bound)
    if not steps:
        raise ReproError(
            f"no minimal-makespan step candidate at bound {args.bound}; "
            "raise --bound"
        )
    step = steps[0]
    if args.size:
        envs = parse_size_sweep(args.size)
    else:
        envs = [{s: 4 for s in program.all_size_symbols}]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = sweep_designs(
            program, step, envs, bound=1, limit=args.limit, jobs=args.jobs
        )
    t = result.timings
    requested = resolve_jobs(args.jobs)
    if t.jobs < requested:
        reason = "; ".join(str(w.message) for w in caught) or (
            f"only {t.candidates} candidate(s)"
        )
        print(
            f"note: --jobs {requested} reduced to {t.jobs} ({reason})",
            file=sys.stderr,
        )
    for env, costs in result.by_size:
        print(f"step {step.rows[0]}, costs at {env}:")
        print(format_table([c.row() for c in costs]))
    print(
        f"timings: synthesis {t.synthesis_s:.3f}s + compile/cost "
        f"{t.cost_s:.3f}s = total {t.total_s:.3f}s "
        f"({t.candidates} candidates, {t.compiled} compilable, "
        f"{len(result.by_size)} size(s), jobs {t.jobs})"
    )
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import HarnessConfig, fuzz_run
    from repro.parallel import resolve_jobs

    config = HarnessConfig(
        seed=args.input_seed, mutate=args.mutate, input_sets=args.input_sets
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        summary = fuzz_run(
            seed=args.seed,
            iterations=args.iterations,
            time_budget=args.time_budget,
            jobs=args.jobs,
            config=config,
            shrink=not args.no_shrink,
            max_shrink_steps=args.max_shrink_steps,
            corpus_dir=args.corpus_dir,
            feature=args.feature,
            batch_size=args.batch_size,
            log=lambda message: print(message, file=sys.stderr),
        )
    requested = resolve_jobs(args.jobs)
    if summary.jobs < requested:
        reason = "; ".join(str(w.message) for w in caught) or "few iterations"
        print(
            f"note: --jobs {requested} reduced to {summary.jobs} ({reason})",
            file=sys.stderr,
        )
    print(summary)
    if summary.phase_seconds:
        phases = ", ".join(
            f"{name} {seconds:.3f}s"
            for name, seconds in sorted(summary.phase_seconds.items())
        )
        print(f"phases: {phases}")
    if summary.check_counts:
        counts = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(summary.check_counts.items())
        )
        print(f"checks: {counts}")
    for failure in summary.failures:
        print(f"FAILURE at iteration {failure.iteration} "
              f"(instance seed {failure.instance_seed}): {failure.checks}")
        for message in failure.messages[:4]:
            print(f"  {message}")
        if failure.reproducer:
            print(f"  minimized reproducer: {failure.reproducer}")
    if args.summary_out:
        artifact = {
            **summary.row(),
            "check_counts": dict(sorted(summary.check_counts.items())),
            "failed_iterations": [
                {
                    "iteration": f.iteration,
                    "instance_seed": f.instance_seed,
                    "checks": f.checks,
                    "reproducer": f.reproducer,
                }
                for f in summary.failures
            ],
        }
        Path(args.summary_out).write_text(
            json.dumps(artifact, indent=2, sort_keys=True) + "\n"
        )
        print(f"summary artifact: {args.summary_out}", file=sys.stderr)
    return 0 if summary.ok else 1


def validate_serve_args(args: argparse.Namespace) -> None:
    """Fail fast with a :class:`ReproError` naming the offending flag."""
    if not (0 <= args.port <= 65535):
        raise ReproError(
            f"--port must be in 0..65535 (0 = ephemeral), got {args.port}"
        )
    if not args.timeout > 0:  # NaN compares false both ways
        raise ReproError(f"--timeout must be positive, got {args.timeout:g}")
    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    if args.max_designs < 1:
        raise ReproError(f"--max-designs must be >= 1, got {args.max_designs}")


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import CompileService, ServiceConfig

    validate_serve_args(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        timeout_s=args.timeout,
        workers=args.workers,
        max_designs=args.max_designs,
        corpus_dir=args.corpus_dir,
    )
    service = CompileService(config)

    async def run() -> None:
        await service.start()
        print(
            f"repro compile service on http://{config.host}:{service.port} "
            f"(workers {config.workers}, timeout {config.timeout_s:g}s)",
            file=sys.stderr,
        )
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        snapshot = service.metrics.snapshot()
        store = service.store.snapshot()
        print(
            f"served {service.requests_served} request(s), "
            f"{store['designs']} design(s) cached "
            f"(hits {store['hits']}, misses {store['misses']}, "
            f"coalesced {store['coalesced']}); "
            f"timeouts {snapshot['timeouts']}",
            file=sys.stderr,
        )
        for name, metrics in sorted(snapshot["endpoints"].items()):
            latency = metrics["latency"]
            print(
                f"  /{name}: {metrics['requests']} requests "
                f"(4xx {metrics['errors_4xx']}, 5xx {metrics['errors_5xx']}), "
                f"p50 {latency['p50_s'] * 1000:.1f}ms, "
                f"p95 {latency['p95_s'] * 1000:.1f}ms",
                file=sys.stderr,
            )
    return 0


def cmd_designs(args: argparse.Namespace) -> int:
    from repro.systolic.designs import all_paper_designs

    for exp_id, program, array in all_paper_designs():
        print(f"{exp_id}: {program.name}  --  {array.name}")
        print(f"    step {array.step.rows[0]}, place rows {array.place.rows}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Systolizing compilation scheme (Barnett & Lengauer 1991)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile and print a systolic program")
    p.add_argument("source", help="source program file")
    p.add_argument("design", help="design-spec JSON file")
    p.add_argument(
        "--emit",
        choices=[*EMITTERS, "none"],
        default="paper",
        help="target notation (default: paper)",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="execute on the simulator vs the oracle")
    p.add_argument("source")
    p.add_argument("design")
    p.add_argument(
        "-s", "--size", action="append", default=[], help="problem size name=value"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capacity", type=int, default=1, help="channel capacity")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "execute", help="run a design on a chosen backend, check vs oracle"
    )
    p.add_argument("source")
    p.add_argument("design")
    p.add_argument(
        "-s", "--size", action="append", default=[], help="problem size name=value"
    )
    p.add_argument(
        "--backend",
        choices=["sim", "pygen", "npgen"],
        default="npgen",
        help="execution engine (default: npgen, needs the NumPy extra)",
    )
    p.add_argument(
        "--batch",
        type=int,
        default=1,
        help="independent input sets to run (npgen executes them in one pass)",
    )
    p.add_argument("--seed", type=int, default=0, help="input value seed")
    p.add_argument(
        "--array",
        default=None,
        metavar="PxQ",
        help="fold onto a fixed physical array, e.g. 3 (bands) or 2x2 "
        "(tiles): sim runs the partitioned network, npgen the banded "
        "executor (pygen has no partitioned mode)",
    )
    p.add_argument(
        "--no-check",
        action="store_true",
        help="skip the sequential-oracle comparison (timing runs)",
    )
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("synthesize", help="derive step/place candidates")
    p.add_argument("source")
    p.add_argument("--bound", type=int, default=2, help="coefficient bound")
    p.add_argument("--limit", type=int, default=8, help="places to print")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("explore", help="cost the bounded place design space")
    p.add_argument("source")
    p.add_argument("--bound", type=int, default=2, help="step coefficient bound")
    p.add_argument(
        "-s",
        "--size",
        action="append",
        default=[],
        help="problem size name=value; repeat a name to sweep it",
    )
    p.add_argument("--limit", type=int, default=12, help="rows to print")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU, default 1 = serial)",
    )
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "fuzz", help="differential conformance fuzzing with shrinking"
    )
    p.add_argument("--seed", type=int, default=0, help="campaign base seed")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="stop after this many seconds (checked between batches)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU, default 1 = serial)",
    )
    p.add_argument(
        "--input-seed", type=int, default=0, help="stream input value seed"
    )
    from repro.fuzz.harness import MUTATIONS

    p.add_argument(
        "--mutate",
        choices=sorted(MUTATIONS),
        default=None,
        help="plant a known bug (harness self-test; the run must fail)",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="pin the pool fan-out size (default: adapt to measured "
        "per-instance cost)",
    )
    p.add_argument(
        "--input-sets",
        type=int,
        default=1,
        metavar="K",
        help="differential input sets per instance (seeds input-seed..+K-1)",
    )
    p.add_argument(
        "--no-shrink", action="store_true", help="skip minimizing failures"
    )
    p.add_argument("--max-shrink-steps", type=int, default=96)
    p.add_argument(
        "--corpus-dir",
        default="tests/fuzz_corpus",
        help="where minimized reproducers are written",
    )
    from repro.fuzz.generator import FEATURES

    p.add_argument(
        "--feature",
        choices=FEATURES,
        default=None,
        help="restrict the campaign to one generator stratum",
    )
    p.add_argument(
        "--summary-out",
        default=None,
        metavar="PATH",
        help="write the campaign summary as a JSON artifact",
    )
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "serve", help="run the compile-service daemon (HTTP/JSON)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 = ephemeral)"
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request timeout in seconds (the derivation itself is "
        "never cancelled, so a retry picks up the cached result)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="executor threads for pipeline stages",
    )
    p.add_argument("--max-designs", type=int, default=512)
    p.add_argument(
        "--corpus-dir",
        default="tests/fuzz_corpus",
        help="corpus served by /fuzz-replay",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("designs", help="list the built-in catalogue")
    p.set_defaults(func=cmd_designs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # piping into head etc.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
