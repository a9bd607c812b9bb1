"""Planted mutations: known bugs that prove the checks catch them.

Each mutation corrupts one derived quantity of a compiled
:class:`~repro.core.program.SystolicProgram` -- e.g. every stream's drain
count off by one -- or, for ``map_shear``, the source program under it.
The differential fuzz harness plants them (``repro fuzz --mutate``,
:class:`~repro.fuzz.harness.HarnessConfig`), and the kill matrix
(``tests/fuzz/test_kill_matrix.py``) counts which check catches which.
This module imports no engine, so the CLI can list the mutations without
loading the fuzz stack.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.program import SystolicProgram
from repro.core.scheme import compile_systolic
from repro.geometry.linalg import Matrix
from repro.lang.program import SourceProgram
from repro.lang.stream import Stream
from repro.lang.variables import IndexedVariable
from repro.symbolic.piecewise import Piecewise
from repro.util.errors import ReproError

__all__ = ["MUTATIONS", "apply_mutation"]


def _bump(pw: Piecewise) -> Piecewise:
    """Add one to every non-null scalar leaf of a piecewise quantity."""
    return pw.map_values(lambda v: v if v is None else v + 1)


def _mutate_plans(sp: SystolicProgram, fn) -> SystolicProgram:
    return replace(sp, streams=tuple(fn(plan) for plan in sp.streams))


def _drain_plus_one(sp: SystolicProgram) -> SystolicProgram:
    return _mutate_plans(sp, lambda p: replace(p, drain=_bump(p.drain)))


def _soak_plus_one(sp: SystolicProgram) -> SystolicProgram:
    return _mutate_plans(sp, lambda p: replace(p, soak=_bump(p.soak)))


def _count_plus_one(sp: SystolicProgram) -> SystolicProgram:
    return replace(sp, count=_bump(sp.count))


def _pass_plus_one(sp: SystolicProgram) -> SystolicProgram:
    return _mutate_plans(sp, lambda p: replace(p, pass_amount=_bump(p.pass_amount)))


def _map_shear(sp: SystolicProgram) -> SystolicProgram:
    """Corrupt one index-map coefficient and recompile.

    Unlike the derived-quantity bumps above, this plants a *frontend*
    bug: the engines follow the sheared map while the oracle still
    interprets the original source.  Coefficients are tried in a fixed
    order and the first shear that still validates and compiles wins, so
    the mutation is deterministic; a program where no shear compiles is
    returned unchanged (a miss, as with the other mutations on
    degenerate designs).
    """
    from repro.fuzz.generator import variable_bounds_for  # fuzz imports verify

    src = sp.source
    for si, s in enumerate(src.streams):
        rows = tuple(tuple(r) for r in s.index_map.rows)
        for i in range(len(rows)):
            for j in range(len(rows[i])):
                for delta in (1, -1):
                    row = list(rows[i])
                    row[j] += delta
                    if not any(row):
                        continue
                    new_rows = rows[:i] + (tuple(row),) + rows[i + 1 :]
                    try:
                        var = IndexedVariable(
                            s.name, variable_bounds_for(new_rows, src.loops)
                        )
                        streams = (
                            src.streams[:si]
                            + (Stream(var, Matrix(new_rows)),)
                            + src.streams[si + 1 :]
                        )
                        sheared = SourceProgram(
                            loops=src.loops,
                            streams=streams,
                            body=src.body,
                            size_symbols=src.size_symbols,
                            name=src.name,
                        )
                        return compile_systolic(sheared, sp.array)
                    except ReproError:
                        continue
    return sp


#: name -> SystolicProgram transformer planting one specific bug
MUTATIONS = {
    "drain_plus_one": _drain_plus_one,
    "soak_plus_one": _soak_plus_one,
    "count_plus_one": _count_plus_one,
    "pass_plus_one": _pass_plus_one,
    "map_shear": _map_shear,
}


def apply_mutation(sp: SystolicProgram, name: str | None) -> SystolicProgram:
    """Plant the named bug into a compiled program (no-op for ``None``)."""
    if name is None:
        return sp
    try:
        fn = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; choose from {sorted(MUTATIONS)}"
        ) from None
    return fn(sp)
