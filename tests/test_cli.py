"""Tests for the command-line interface."""

import json
import os
import pathlib

import pytest

from repro.cli import main, parse_size_sweep, parse_sizes
from repro.systolic.spec import array_from_spec
from repro.util.errors import ReproError

SPECS = pathlib.Path(__file__).resolve().parent.parent / "examples" / "specs"
SOURCE = str(SPECS / "polyprod.src")
DESIGN = str(SPECS / "d1.json")


class TestHelpers:
    def test_parse_sizes(self):
        assert parse_sizes(["n=4", "m=2"]) == {"n": 4, "m": 2}

    def test_parse_sizes_bad(self):
        with pytest.raises(ReproError):
            parse_sizes(["n:4"])

    def test_parse_size_sweep_single(self):
        assert parse_size_sweep(["n=4"]) == [{"n": 4}]

    def test_parse_size_sweep_repeated_name(self):
        assert parse_size_sweep(["n=4", "n=8"]) == [{"n": 4}, {"n": 8}]

    def test_parse_size_sweep_dedupes(self):
        assert parse_size_sweep(["n=4", "n=4"]) == [{"n": 4}]

    def test_parse_size_sweep_cartesian(self):
        assert parse_size_sweep(["n=2", "m=1", "n=3"]) == [
            {"n": 2, "m": 1},
            {"n": 3, "m": 1},
        ]

    def test_parse_size_sweep_empty(self):
        assert parse_size_sweep([]) == [{}]

    def test_parse_size_sweep_bad(self):
        with pytest.raises(ReproError):
            parse_size_sweep(["n:4"])

    @pytest.mark.parametrize("parse", [parse_sizes, parse_size_sweep])
    @pytest.mark.parametrize("pair", ["n=4.5", "n=abc", "n=", "n=1e3"])
    def test_non_integer_size_is_a_named_error(self, parse, pair):
        with pytest.raises(ReproError, match=repr(pair)):
            parse([pair])

    def test_load_design(self):
        array = array_from_spec(json.loads(pathlib.Path(DESIGN).read_text()))
        assert array.step.rows[0] == (2, 1)
        assert array.name == "D.1 place=(i)"
        assert "a" in array.loading_vectors

    def test_load_design_without_loading(self):
        spec = {"step": [[1, 1, 1]], "place": [[1, 0, -1], [0, 1, -1]]}
        array = array_from_spec(spec, default_name="e2")
        assert array.name == "e2"
        assert not array.loading_vectors


    @pytest.mark.parametrize(
        "spec",
        [
            {"step": [[2.5, 1]], "place": [[1, 0]]},
            {"step": [["2", 1]], "place": [[1, 0]]},
            {"step": [[2, True]], "place": [[1, 0]]},
            {"step": [[2, 1]], "place": [[1, 0]], "loading": {"a": [1.0]}},
            {"step": [[2, 1]], "place": [[1, 0]], "loading": [[1]]},
        ],
        ids=["float", "string", "bool", "float-loading", "loading-list"],
    )
    def test_array_from_spec_refuses_non_integers(self, spec):
        with pytest.raises(ReproError, match="design spec"):
            array_from_spec(spec)


class TestCommands:
    def test_compile(self, capsys):
        assert main(["compile", SOURCE, DESIGN]) == 0
        out = capsys.readouterr().out
        assert "systolic program" in out
        assert "parfor col" in out

    def test_compile_emit_c(self, capsys):
        assert main(["compile", SOURCE, DESIGN, "--emit", "c"]) == 0
        assert "void compute(" in capsys.readouterr().out

    def test_compile_emit_none(self, capsys):
        assert main(["compile", SOURCE, DESIGN, "--emit", "none"]) == 0
        assert "parfor" not in capsys.readouterr().out

    def test_verify_ok(self, capsys):
        assert main(["verify", SOURCE, DESIGN, "-s", "n=4"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_capacity_zero(self, capsys):
        assert main(["verify", SOURCE, DESIGN, "-s", "n=3", "--capacity", "0"]) == 0

    def test_synthesize(self, capsys):
        assert main(["synthesize", SOURCE, "--bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "step candidate" in out
        assert "compatible place" in out

    def test_designs(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for exp in ("D1", "D2", "E1", "E2"):
            assert exp in out

    def test_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"step": [[1, 0]], "place": [[1, 0]]}))
        # step vanishes on null.place: compile must fail with code 2
        assert main(["compile", SOURCE, str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, needle",
        [
            ("missing-design", "cannot read"),
            ("design-not-json", "is not JSON"),
            ("design-without-step", "missing the 'step' rows"),
            ("missing-source", "cannot read"),
        ],
    )
    def test_unreadable_inputs_fail_by_name(self, case, needle, tmp_path, capsys):
        source, design = SOURCE, DESIGN
        if case == "missing-design":
            design = str(tmp_path / "absent.json")
        elif case == "design-not-json":
            design = str(tmp_path / "design.json")
            pathlib.Path(design).write_text("step = [[2, 1]]\n")
        elif case == "design-without-step":
            design = str(tmp_path / "design.json")
            pathlib.Path(design).write_text(json.dumps({"place": [[1, 0]]}))
        else:
            source = str(tmp_path / "absent.src")
        assert main(["compile", source, design]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert "Traceback" not in err

    def test_incompatible_design_verify(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"step": [[1, 1]], "place": [[1, 0]]}))
        # step (1,1) maps c's dependence (1,-1) to 0: rejected
        assert main(["verify", SOURCE, str(bad), "-s", "n=2"]) == 2


class TestExplore:
    def test_explore(self, capsys):
        assert main(["explore", SOURCE, "-s", "n=4", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "procs" in out and "total" in out
        assert "timings:" in out

    def test_explore_size_sweep(self, capsys):
        assert main(
            ["explore", SOURCE, "-s", "n=3", "-s", "n=5", "--limit", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "costs at {'n': 3}" in out
        assert "costs at {'n': 5}" in out
        assert "2 size(s)" in out

    def test_explore_jobs_matches_serial(self, capsys):
        assert main(["explore", SOURCE, "-s", "n=3", "--limit", "6"]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["explore", SOURCE, "-s", "n=3", "--limit", "6", "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        parallel = captured.out
        # identical ranked tables; only the timings line may differ
        strip = lambda text: [
            l for l in text.splitlines() if not l.startswith("timings:")
        ]
        assert strip(serial) == strip(parallel)
        if os.cpu_count() == 1:
            # single-CPU fallback: the sweep runs serially and says so
            assert "jobs 1" in parallel
            assert "reduced to 1" in captured.err
        else:
            assert "jobs 2" in parallel

    def test_explore_without_step_candidates_exits_cleanly(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "synthesize_step", lambda *a, **k: [])
        assert main(["explore", SOURCE, "-s", "n=3"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "step candidate" in err


class TestSynthesizeGuard:
    def test_synthesize_without_step_candidates_exits_cleanly(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "synthesize_step", lambda *a, **k: [])
        assert main(["synthesize", SOURCE]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "step candidate" in err


class TestExecute:
    @pytest.mark.parametrize(
        "options",
        [
            ["-s", "n=16", "--array", "3", "--backend", "sim"],
            ["-s", "n=64", "--array", "4", "--backend", "npgen", "--batch", "4"],
            ["-s", "n=64", "--backend", "npgen", "--batch", "8"],
        ],
        ids=["sim-3-bands", "npgen-4-bands-batch-4", "npgen-batch-8"],
    )
    def test_execute_matches_the_oracle(self, options, capsys):
        if "npgen" in options:
            pytest.importorskip("numpy")
        assert main(["execute", SOURCE, DESIGN, *options]) == 0
        assert "oracle check: OK" in capsys.readouterr().out


class TestExecuteErrorPaths:
    """Regression tests for CLI error paths that previously had none."""

    @pytest.mark.parametrize("shape", ["0x2", "2x0", "-1", "0"])
    def test_invalid_array_shape_nonpositive(self, shape, capsys):
        assert main(
            ["execute", SOURCE, DESIGN, "-s", "n=2", "--array", shape]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "array shape must be positive" in err
        assert repr(shape) in err

    @pytest.mark.parametrize("shape", ["2xq", "axb", "2x"])
    def test_invalid_array_shape_noninteger(self, shape, capsys):
        assert main(
            ["execute", SOURCE, DESIGN, "-s", "n=2", "--array", shape]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "array shape must be P or PxQ" in err
        assert repr(shape) in err

    def test_array_with_pygen_backend_refused(self, capsys):
        assert main(
            ["execute", SOURCE, DESIGN, "-s", "n=2",
             "--backend", "pygen", "--array", "2"]
        ) == 2
        err = capsys.readouterr().err
        assert "pygen" in err and "partitioned" in err

    def test_npgen_without_numpy_names_the_extra(self, monkeypatch, capsys):
        import sys as _sys

        monkeypatch.setitem(_sys.modules, "numpy", None)
        assert main(
            ["execute", SOURCE, DESIGN, "-s", "n=2", "--backend", "npgen"]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "repro[np]" in err

    def test_bad_size_pair(self, capsys):
        assert main(["execute", SOURCE, DESIGN, "-s", "n:2"]) == 2
        err = capsys.readouterr().err
        assert "name=value" in err

    @pytest.mark.parametrize("pair", ["n=4.5", "n=abc"])
    @pytest.mark.parametrize("command", ["execute", "verify"])
    def test_non_integer_size_exits_2(self, command, pair, capsys):
        assert main([command, SOURCE, DESIGN, "-s", pair]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(pair) in err
        assert "Traceback" not in err


class TestFuzzFlagValidation:
    """A campaign that would check nothing is refused, not reported clean."""

    @pytest.mark.parametrize(
        "flags, needle",
        [(["--iterations", "-1"], "--iterations"),
         (["--input-sets", "0"], "--input-sets")],
    )
    def test_vacuous_campaign_exits_2(self, flags, needle, capsys):
        assert main(["fuzz", "--seed", "0", "--no-shrink", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err


class TestServeFlagValidation:
    """``repro serve`` flag validation: exit 2 naming the offending flag."""

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--port", "65536"], "--port"),
            (["--timeout", "nan"], "--timeout"),
            (["--timeout", "0"], "--timeout"),
            (["--timeout", "-3"], "--timeout"),
            (["--workers", "0"], "--workers"),
            (["--workers", "-1"], "--workers"),
            (["--max-designs", "0"], "--max-designs"),
            (["--port", "70000"], "--port"),
            (["--port", "-1"], "--port"),
        ],
    )
    def test_invalid_serve_flags(self, flags, needle, capsys):
        assert main(["serve", *flags]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert needle in err

    def test_validate_serve_args_accepts_defaults(self):
        from repro.cli import build_parser, validate_serve_args

        args = build_parser().parse_args(["serve"])
        validate_serve_args(args)  # must not raise
