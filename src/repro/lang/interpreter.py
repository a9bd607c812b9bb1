"""Sequential reference interpreter -- the verification oracle.

Runs a source program exactly as its sequential reading prescribes
(Section 3.1: positive-step loops from left to right bound, negative-step
loops from right to left), on dense arrays of exact values.  The systolic
programs generated by the compilation scheme are verified against this
interpreter's results (``repro.verify``).
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping

from repro.geometry.point import Point
from repro.lang.expr import RuntimeValue
from repro.lang.program import SourceProgram
from repro.symbolic.affine import Numeric
from repro.util.errors import SourceProgramError

#: Variable contents: name -> {element point -> value}.
VariableState = dict[str, dict[Point, RuntimeValue]]


def initial_state(
    program: SourceProgram,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
) -> VariableState:
    """Build a full variable state at problem size ``env``.

    ``inputs`` may give, per variable, either a mapping from element points
    to values or a single fill value; unmentioned variables are zero-filled
    and a name the program does not declare is refused.  Every element of
    every variable space must be given exactly once, at exact (``int`` or
    integral ``Fraction``) coordinates.  Each variable's elements come back
    keyed by space points in the row-major order of its space, which is the
    order of :class:`~repro.analysis.wavefront.VariableLayout`'s storage.
    """
    inputs = dict(inputs or {})
    undeclared = set(inputs) - {var.name for var in program.variables}
    if undeclared:
        raise SourceProgramError(
            f"inputs for undeclared variable(s) {sorted(map(str, undeclared))}"
        )
    state: VariableState = {}
    for var in program.variables:
        space = var.space(env)
        spec = inputs.get(var.name, 0)
        if not isinstance(spec, Mapping):
            state[var.name] = dict.fromkeys(space, spec)
            continue
        if not set(map(type, chain.from_iterable(spec))) <= {int}:
            spec = {Point(k): v for k, v in spec.items()}
        points = list(space)
        try:
            values = dict(zip(points, map(spec.__getitem__, points)))
        except KeyError:
            missing = [p for p in points if p not in spec]
            raise SourceProgramError(
                f"variable {var.name}: missing values for {missing[:3]}..."
            ) from None
        if len(values) != len(spec):
            extra = [k for k in spec if k not in space]
            raise SourceProgramError(
                f"variable {var.name}: values outside its space: {extra[:3]}..."
            )
        state[var.name] = values
    return state


def run_sequential(
    program: SourceProgram,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
) -> VariableState:
    """Execute the program sequentially; returns the final variable state."""
    state = initial_state(program, env, inputs)
    streams = {s.name: s for s in program.streams}
    for x in program.iter_index_points_sequential(env):
        indices = program.index_env(x)
        indices.update({k: int(v) for k, v in env.items()})
        elements = {name: s.element_of(x) for name, s in streams.items()}
        current = {name: state[name][el] for name, el in elements.items()}
        updated = program.body.execute(current, indices)
        for name, el in elements.items():
            state[name][el] = updated[name]
    return state
