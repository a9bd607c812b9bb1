"""Cross-boundary parity: the CLI, the service and the library agree.

For each paper design at ``n=4`` and input seed 0, ``repro execute``
(through ``main``), the service's ``/execute`` and :func:`verify_design`
must report the same element count and the same number of mismatched
elements on every backend.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.systolic.designs import all_paper_designs
from repro.verify.equivalence import verify_design
from tests.service.conftest import design_payload

ENV = {"n": 4}
DESIGNS = {eid: (program, array) for eid, program, array in all_paper_designs()}


def cli_counts(program, array, backend, tmp_path, capsys) -> tuple[int, int]:
    source = tmp_path / "program.src"
    design = tmp_path / "design.json"
    source.write_text(program.to_source())
    design.write_text(json.dumps(design_payload(array)))
    status = main(
        ["execute", str(source), str(design), "-s", "n=4", "--backend", backend]
    )
    out = capsys.readouterr().out
    elements = int(re.search(r"(\d+) elements/run", out).group(1))
    mismatch = re.search(r"MISMATCH: (\d+) element", out)
    assert status == (1 if mismatch else 0)
    return elements, int(mismatch.group(1)) if mismatch else 0


def service_counts(program, array, backend, service_run) -> tuple[int, int]:
    async def scenario(client, service):
        status, payload = await client.execute(
            source=program.to_source(),
            design=design_payload(array),
            sizes=ENV,
            backend=backend,
            seed=0,
        )
        assert status == 200, payload
        return payload["elements"], payload["mismatched_elements"]

    return service_run(scenario)


@pytest.mark.parametrize("backend", ["sim", "pygen", "npgen"])
@pytest.mark.parametrize("eid", sorted(DESIGNS))
def test_execute_agrees_across_boundaries(
    eid, backend, tmp_path, capsys, service_run
):
    if backend == "npgen":
        pytest.importorskip("numpy")
    program, array = DESIGNS[eid]
    report = verify_design(
        program, array, ENV, seed=0, backend=backend, raise_on_mismatch=False
    )
    library = report.elements, len(report.mismatches)
    assert library[0] > 0
    assert cli_counts(program, array, backend, tmp_path, capsys) == library
    assert service_counts(program, array, backend, service_run) == library
