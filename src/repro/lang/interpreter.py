"""Sequential reference interpreter -- the verification oracle.

Runs a source program exactly as its sequential reading prescribes
(Section 3.1: positive-step loops from left to right bound, negative-step
loops from right to left), on dense arrays of exact values.  The systolic
programs generated by the compilation scheme are verified against this
interpreter's results (``repro.verify``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, product
from operator import eq
from typing import Mapping

from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle
from repro.lang.expr import RuntimeValue
from repro.lang.program import SourceProgram
from repro.symbolic.affine import Numeric
from repro.util.errors import SourceProgramError

#: Variable contents: name -> {element point -> value}.
VariableState = dict[str, dict[Point, RuntimeValue]]


def checked_values(
    program: SourceProgram,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
) -> dict[str, list[RuntimeValue]]:
    """Check ``inputs`` at problem size ``env``; each variable's values in
    the row-major order of its space.

    ``inputs`` may give, per variable, either a mapping from element points
    to values or a single fill value; unmentioned variables are zero-filled
    and a name the program does not declare is refused.  Every element of
    every variable space must be given exactly once, at exact (``int`` or
    integral ``Fraction``) coordinates.  The row-major order is the order
    of :class:`~repro.analysis.wavefront.VariableLayout`'s storage, so a
    dense backend loads each list as it is.
    """
    return {name: values for name, _space, values, _ in _checked(program, env, inputs)}


def _checked(
    program: SourceProgram,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None,
) -> Iterator[
    tuple[str, Rectangle, list[RuntimeValue], Mapping[Point, RuntimeValue] | None]
]:
    """:func:`checked_values` with each variable's space, which costs a
    bound evaluation per variable, so it is worked out once, and the
    caller's mapping when its keys are already the space's ``Point`` keys
    in row-major order (else ``None``)."""
    inputs = dict(inputs or {})
    undeclared = set(inputs) - {var.name for var in program.variables}
    if undeclared:
        raise SourceProgramError(
            f"inputs for undeclared variable(s) {sorted(map(str, undeclared))}"
        )
    for var in program.variables:
        space = var.space(env)
        spec = inputs.get(var.name, 0)
        if not isinstance(spec, Mapping):
            yield var.name, space, [spec] * space.size, None
            continue
        try:
            exact = set(map(type, chain.from_iterable(spec))) <= {int}
        except TypeError:
            raise SourceProgramError(
                f"variable {var.name}: element keys must be index tuples, "
                f"got {next(k for k in spec if not isinstance(k, Iterable))!r}"
            ) from None
        # Fast path: int keys given in row-major order need no lookup.
        if (
            exact
            and len(spec) == space.size
            and all(map(eq, spec, product(*space.ranges())))
        ):
            points = spec if all(type(k) is Point for k in spec) else None
            yield var.name, space, list(spec.values()), points
            continue
        if not exact:
            spec = {Point(k): v for k, v in spec.items()}
        try:
            values = list(map(spec.__getitem__, product(*space.ranges())))
        except KeyError:
            missing = [p for p in space if p not in spec]
            raise SourceProgramError(
                f"variable {var.name}: missing values for {missing[:3]}..."
            ) from None
        if len(values) != len(spec):
            extra = [k for k in spec if k not in space]
            raise SourceProgramError(
                f"variable {var.name}: values outside its space: {extra[:3]}..."
            )
        yield var.name, space, values, None


def initial_state(
    program: SourceProgram,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
) -> VariableState:
    """Build a full variable state at problem size ``env``.

    The inputs are checked as :func:`checked_values` checks them; each
    variable's elements come back keyed by space points in the row-major
    order of its space.  A variable given with ``Point`` keys in that
    order (as :func:`~repro.verify.equivalence.random_inputs` gives them)
    is a copy of the caller's mapping, keys and all.
    """
    return {
        name: dict(zip(space, values)) if points is None else dict(points)
        for name, space, values, points in _checked(program, env, inputs)
    }


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
