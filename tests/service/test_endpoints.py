"""Endpoint round-trips and HTTP error mapping for the compile service."""

from __future__ import annotations

import json

import pytest

from repro.core.scheme import compile_systolic
from repro.service.daemon import state_to_json
from repro.systolic.designs import all_paper_designs
from repro.target.npgen import HAVE_NUMPY
from repro.verify.equivalence import random_inputs

from tests.service.conftest import paper_requests

SIZES = {"D1": {"n": 4}, "D2": {"n": 4}, "E1": {"n": 3}, "E2": {"n": 3}}


class TestPaperDesignRoundTrips:
    @pytest.mark.parametrize(
        "exp_id, source, design",
        paper_requests(),
        ids=[exp_id for exp_id, _, _ in paper_requests()],
    )
    def test_compile_summary_matches_library(
        self, service_run, exp_id, source, design
    ):
        _, program, array = next(
            t for t in all_paper_designs() if t[0] == exp_id
        )
        expected = compile_systolic(program, array).summary()

        async def scenario(client, service):
            status, payload = await client.compile(source, design)
            assert status == 200
            assert payload["summary"] == expected
            assert payload["cached"] is False
            # the fingerprint round-trips: a bare-fingerprint compile hits
            status, again = await client.compile(
                fingerprint=payload["fingerprint"]
            )
            assert status == 200
            assert again["summary"] == expected
            assert again["cached"] is True
            return payload["fingerprint"]

        fingerprint = service_run(scenario)
        assert len(fingerprint) == 64

    def test_cold_compile_parses_and_hashes_once(self, service_run, monkeypatch):
        from repro.service import store
        from repro.target import pygen

        calls = {"parse": 0, "hash": 0}

        def spy(module, name, key):
            real = getattr(module, name)

            def counting(*args):
                calls[key] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)

        spy(store, "parse_program", "parse")
        spy(store, "fingerprint_of", "hash")
        spy(pygen, "fingerprint_of", "hash")
        _, source, design = paper_requests()[0]

        async def scenario(client, service):
            status, payload = await client.compile(source, design)
            assert status == 200 and payload["cached"] is False
            assert len(payload["fingerprint"]) == 64

        service_run(scenario)
        assert calls == {"parse": 1, "hash": 1}

    @pytest.mark.parametrize(
        "exp_id, source, design",
        paper_requests(),
        ids=[exp_id for exp_id, _, _ in paper_requests()],
    )
    def test_execute_bit_identical_to_library_path(
        self, service_run, exp_id, source, design
    ):
        from repro.verify.equivalence import run_backend

        _, program, array = next(
            t for t in all_paper_designs() if t[0] == exp_id
        )
        env = SIZES[exp_id]
        sp = compile_systolic(program, array)
        inputs = random_inputs(program, env, seed=0)
        [(final, _)] = run_backend(sp, env, [inputs], backend="sim")
        expected = state_to_json(final)

        async def scenario(client, service):
            status, payload = await client.execute(
                source=source, design=design, sizes=env, backend="sim"
            )
            assert status == 200
            assert payload["matched"] is True
            assert payload["results"] == [expected]

        service_run(scenario)

    @pytest.mark.parametrize(
        "exp_id, source, design",
        paper_requests(),
        ids=[exp_id for exp_id, _, _ in paper_requests()],
    )
    def test_verify_matches(self, service_run, exp_id, source, design):
        async def scenario(client, service):
            status, payload = await client.verify(
                source=source, design=design, sizes=SIZES[exp_id]
            )
            assert status == 200
            assert payload["matched"] is True
            assert payload["mismatch_count"] == 0
            assert payload["makespan"] > 0

        service_run(scenario)


class TestEmit:
    def test_emit_variants_match_cli_renderers(self, service_run):
        from repro.target.build import build_target_program
        from repro.target.cgen import render_c
        from repro.target.occam import render_occam
        from repro.target.pretty import render_paper

        exp_id, source, design = paper_requests()[0]
        _, program, array = all_paper_designs()[0]
        target = build_target_program(compile_systolic(program, array))
        expected = {
            "paper": render_paper(target),
            "occam": render_occam(target),
            "c": render_c(target),
        }

        async def scenario(client, service):
            for emit, text in expected.items():
                status, payload = await client.compile(
                    source, design, emit=emit
                )
                assert status == 200
                assert payload["emitted"] == text

        service_run(scenario)

    def test_unknown_emit_is_400(self, service_run):
        _, source, design = paper_requests()[0]

        async def scenario(client, service):
            status, payload = await client.compile(source, design, emit="ada")
            assert status == 400
            assert "emit" in payload["error"]

        service_run(scenario)


class TestErrorMapping:
    def test_malformed_json_body_is_400(self, service_run):
        import asyncio

        async def scenario(client, service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(
                b"POST /compile HTTP/1.1\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            await writer.drain()
            status_line = await reader.readline()
            assert b"400" in status_line
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            body = await reader.readexactly(int(headers["content-length"]))
            assert b"malformed JSON" in body
            writer.close()
            # the daemon keeps serving afterwards
            status, payload = await client.healthz()
            assert status == 200
            assert service.metrics.malformed == 1

        service_run(scenario)

    def test_parser_error_maps_to_400_with_diagnostic(self, service_run):
        async def scenario(client, service):
            status, payload = await client.compile(
                "size n\nvar a[0..n]\nfor i = 0 <- 1 -> n\n  a[i] := b[i]",
                {"step": [[1]], "place": [[1]]},
            )
            assert status == 400
            # the PR-5 parser diagnostic comes through verbatim
            assert "undeclared variable 'b'" in payload["error"]
            assert payload["type"] == "SourceProgramError"

        service_run(scenario)

    def test_inconsistent_design_maps_to_400_family(self, service_run):
        _, source, _ = paper_requests()[0]

        async def scenario(client, service):
            status, payload = await client.compile(
                source, {"step": [[1, 1]], "place": [[1, 0]]}
            )
            assert status in (400, 422)
            assert payload["type"].endswith("Error") or payload["type"].endswith("Violation")

        service_run(scenario)

    def test_missing_design_fields_400(self, service_run):
        _, source, _ = paper_requests()[0]

        async def scenario(client, service):
            status, payload = await client.compile(source, {"step": [[2, 1]]})
            assert status == 400
            assert "place" in payload["error"]

        service_run(scenario)

    def test_unknown_fingerprint_400(self, service_run):
        async def scenario(client, service):
            status, payload = await client.execute(
                fingerprint="f" * 64, sizes={"n": 2}
            )
            assert status == 400
            assert "unknown design fingerprint" in payload["error"]

        service_run(scenario)

    def test_unknown_route_404_and_wrong_method_405(self, service_run):
        async def scenario(client, service):
            status, payload = await client.request("POST", "/nope", {})
            assert status == 404
            assert "/compile" in json.dumps(payload)
            status, payload = await client.request("GET", "/compile")
            assert status == 405
            assert payload["allowed"] == ["POST"]

        service_run(scenario)

    def test_missing_sizes_400(self, service_run):
        _, source, design = paper_requests()[0]

        async def scenario(client, service):
            status, payload = await client.execute(source=source, design=design)
            assert status == 400
            assert "sizes" in payload["error"]

        service_run(scenario)

    def test_bad_backend_400(self, service_run):
        _, source, design = paper_requests()[0]

        async def scenario(client, service):
            status, payload = await client.execute(
                source=source, design=design, sizes={"n": 2}, backend="cuda"
            )
            assert status == 400
            assert "backend" in payload["error"]
            assert service.store.snapshot()["misses"] == 0

        service_run(scenario)

    @pytest.mark.parametrize(
        "array", [[2.5], ["2"], [True], [2, 2, 2], [0], [], "2"]
    )
    def test_bad_array_shape_400(self, service_run, array):
        """A non-integral extent once ran a truncated fold (200), and more
        axes than D1's 1-d process space once answered 500."""
        _, source, design = paper_requests()[0]  # D1

        async def scenario(client, service):
            status, payload = await client.execute(
                source=source, design=design, sizes={"n": 3}, array=array
            )
            assert status == 400, payload
            assert "array shape" in payload["error"]
            if array != [2, 2, 2]:  # only the axis count needs the design
                assert service.store.snapshot()["misses"] == 0

        service_run(scenario)

    def test_array_with_pygen_422_before_compile(self, service_run):
        """The refusal does not depend on the design, so nothing is
        compiled or stored for it."""
        _, source, design = paper_requests()[0]

        async def scenario(client, service):
            status, payload = await client.execute(
                source=source, design=design, sizes={"n": 3},
                backend="pygen", array=[2]
            )
            assert status == 422, payload
            assert "no partitioned execution mode" in payload["error"]
            snapshot = service.store.snapshot()
            assert snapshot["designs"] == 0
            assert snapshot["misses"] == 0

        service_run(scenario)

    @pytest.mark.parametrize(
        "backend",
        [
            "sim",
            pytest.param(
                "npgen",
                marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy"),
            ),
        ],
    )
    def test_array_shape_folds_without_changing_results(
        self, service_run, backend
    ):
        _, source, design = paper_requests()[0]

        async def scenario(client, service):
            results = []
            for array in (None, [2]):
                extra = {} if array is None else {"array": array}
                status, payload = await client.execute(
                    source=source, design=design, sizes={"n": 3},
                    backend=backend, batch=2, **extra
                )
                assert status == 200, payload
                assert payload["matched"] is True
                results.append(payload["results"])
            assert payload["array"] == [2]
            assert results[0] == results[1]

        service_run(scenario)

    @pytest.mark.parametrize(
        "endpoint, field, value",
        [
            ("verify", "capacity", -1),
            ("verify", "capacity", "x"),
            ("verify", "seed", "x"),
            ("execute", "seed", "x"),
            ("execute", "batch", "x"),
            # check is a boolean: "false" once ran the oracle anyway
            ("execute", "check", "false"),
            ("execute", "check", 0),
            ("explore", "bound", "x"),
            ("explore", "limit", "x"),
            # only a JSON integer: each of these once ran coerced by int() (200)
            ("execute", "seed", 2.5),
            ("execute", "batch", True),
            ("execute", "seed", "2"),
            ("verify", "capacity", 1.9),
        ],
    )
    def test_bad_integer_field_400(self, service_run, endpoint, field, value):
        _, source, design = paper_requests()[0]

        async def scenario(client, service):
            call = getattr(client, endpoint)
            status, payload = await call(
                source=source, design=design, sizes={"n": 2}, **{field: value}
            )
            assert status == 400
            assert field in payload["error"]
            # every field is checked before the design is compiled
            store = service.store.snapshot()
            assert (store["designs"], store["misses"]) == (0, 0)

        service_run(scenario)

    @pytest.mark.parametrize("endpoint", ["execute", "verify", "explore"])
    @pytest.mark.parametrize("value", [4.5, True, "x", None])
    def test_non_integer_size_400(self, service_run, endpoint, value):
        """A fractional or boolean size once ran silently at int(value)."""
        _, source, design = paper_requests()[0]

        async def scenario(client, service):
            call = getattr(client, endpoint)
            status, payload = await call(
                source=source, design=design, sizes={"n": value}
            )
            assert status == 400
            assert "sizes" in payload["error"]
            assert service.store.snapshot()["misses"] == 0

        service_run(scenario)

    def test_zero_capacity_still_verifies(self, service_run):
        _, source, design = paper_requests()[0]

        async def scenario(client, service):
            status, payload = await client.verify(
                source=source, design=design, sizes={"n": 2}, capacity=0
            )
            assert status == 200
            assert payload["matched"] is True

        service_run(scenario)

    def test_oversized_body_413(self, service_run):
        async def scenario(client, service):
            status, payload = await client.request(
                "POST", "/compile", {"source": "x" * 4096}
            )
            assert status == 413
            assert "limit" in payload["error"]

        service_run(scenario, max_body_bytes=2048)


class TestOperationalEndpoints:
    def test_healthz_and_stats_shape(self, service_run):
        _, source, design = paper_requests()[0]

        async def scenario(client, service):
            status, health = await client.healthz()
            assert status == 200
            assert health["status"] == "ok"
            assert health["designs"] == 0
            await client.compile(source, design)
            status, stats = await client.stats()
            assert status == 200
            assert stats["store"]["designs"] == 1
            assert stats["store"]["misses"] == 1
            endpoint = stats["service"]["endpoints"]["compile"]
            assert endpoint["requests"] == 1
            assert endpoint["latency"]["count"] == 1
            assert endpoint["latency"]["p95_s"] >= endpoint["latency"]["p50_s"]
            assert set(stats) == {"service", "store", "counters", "stages"}
            assert stats["counters"]["design_store"] == stats["store"]
            assert stats["counters"]["derivation_memo"]["misses"] > 0
            plans = stats["counters"]["network_plans"]
            assert set(plans) == {"builds", "reuses", "evictions", "size"}
            assert plans["size"] <= 64

        service_run(scenario)

    def test_every_cache_is_reported(self, service_run):
        """Every bounded cache and memo and the design store are read from
        the one registry, in-process and via /stats; each cache reports
        exactly the BoundedLRU ``stats()`` keys."""
        import importlib

        from repro import profiling

        for module in (
            "repro.analysis.wavefront",
            "repro.extensions.partition",
            "repro.geometry.linalg",
            "repro.geometry.polyhedron",
            "repro.lang.parser",
            "repro.runtime.network",
            "repro.service.store",
            "repro.systolic.flow",
            "repro.systolic.schedule",
            "repro.target.pygen",
        ):
            importlib.import_module(module)
        caches = {
            "pygen_modules",
            "wavefront_schedules",
            "partition_schedules",
            "fm_feasible",
            "linalg_rank",
            "linalg_null",
            "linalg_inverse",
            "stream_flows",
            "place_searches",
            "parsed_programs",
        }
        lru_keys = {"capacity", "size", "hits", "misses", "evictions"}

        async def scenario(client, service):
            status, stats = await client.stats()
            assert status == 200
            for counters in (profiling.snapshot()["counters"], stats["counters"]):
                assert caches | {"network_plans", "design_store"} <= set(counters)
                for name in caches:
                    assert set(counters[name]) == lru_keys, name

        service_run(scenario)

    def test_explore_matches_serial_sweep(self, service_run):
        from repro.lang.parser import parse_program
        from repro.parallel import sweep_designs
        from repro.systolic.schedule import synthesize_step

        _, source, _ = paper_requests()[0]
        program = parse_program(source)
        step = synthesize_step(program, bound=2)[0]
        expected = sweep_designs(program, step, [{"n": 4}], bound=1, limit=4)

        async def scenario(client, service):
            status, payload = await client.explore(
                source=source, sizes={"n": 4}, limit=4
            )
            assert status == 200
            assert payload["step"] == [list(r) for r in step.rows]
            rows = payload["tables"][0]["rows"]
            assert rows == [c.row() for c in expected.by_size[0][1]]

        service_run(scenario)

    def test_fuzz_replay_known_pin(self, service_run):
        async def scenario(client, service):
            status, payload = await client.fuzz_replay("2c6a5806697e")
            assert status == 200
            assert payload["file"] == "seed_2c6a5806697e.json"
            assert payload["expect"] == "pass"
            assert payload["ok"] is True
            assert payload["checks_run"]

        service_run(scenario)

    def test_fuzz_replay_ignores_a_request_corpus_dir(self, service_run, tmp_path):
        """Only the configured corpus is served: a ``corpus_dir`` field in
        the request neither lists nor runs another directory."""
        (tmp_path / "seed_2c6a5806697e.json").write_text("{}")

        async def scenario(client, service):
            for corpus_dir in (str(tmp_path), 5):
                status, payload = await client.fuzz_replay(
                    "2c6a5806697e", corpus_dir=corpus_dir
                )
                assert status == 200, payload
                assert payload["ok"] is True and payload["checks_run"]

        service_run(scenario)

    def test_fuzz_replay_unknown_ref_400(self, service_run):
        async def scenario(client, service):
            status, payload = await client.fuzz_replay("deadbeef")
            assert status == 400
            assert "no reproducer matching" in payload["error"]

        service_run(scenario)
