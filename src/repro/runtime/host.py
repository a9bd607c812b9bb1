"""The host: variable storage outside the processor network.

Inside the systolic array a stream element is just a value; its identity
lives only in the host (Section 4.2).  The :class:`Host` owns the dense
contents of every indexed variable, hands input processes the values of the
elements their repeaters enumerate, and receives output values back into
the (separate) result arrays.
"""

from __future__ import annotations

from typing import Mapping

from repro.geometry.point import Point
from repro.lang.expr import RuntimeValue
from repro.lang.interpreter import VariableState, initial_state
from repro.lang.program import SourceProgram
from repro.symbolic.affine import Numeric
from repro.util.errors import RuntimeSimulationError


class Host:
    """Initial and final variable state for one execution."""

    def __init__(
        self,
        program: SourceProgram,
        env: Mapping[str, Numeric],
        inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
    ) -> None:
        self.program = program
        self.env = dict(env)
        self.initial: VariableState = initial_state(program, env, inputs)
        # Results start as a copy; output processes overwrite every element
        # their repeaters cover (for written streams that is all of them).
        self.final: VariableState = {
            name: dict(values) for name, values in self.initial.items()
        }
        self._written: dict[str, set[Point]] = {name: set() for name in self.initial}

    # ------------------------------------------------------------------
    def read_element(self, variable: str, element: Point) -> RuntimeValue:
        try:
            return self.initial[variable][element]
        except KeyError:
            raise RuntimeSimulationError(
                f"input process asked for undefined element {variable}{element}"
            ) from None

    def write_element(self, variable: str, element: Point, value: RuntimeValue) -> None:
        if element not in self.final[variable]:
            raise RuntimeSimulationError(
                f"output process wrote outside {variable}'s space: {element}"
            )
        if element in self._written[variable]:
            raise RuntimeSimulationError(
                f"output process wrote {variable}{element} twice"
            )
        self._written[variable].add(element)
        self.final[variable][element] = value

    def check_full_recovery(self, variable: str) -> None:
        """Every element must have come back exactly once."""
        space = set(self.final[variable])
        missing = space - self._written[variable]
        if missing:
            raise RuntimeSimulationError(
                f"{len(missing)} element(s) of {variable} never recovered, "
                f"e.g. {sorted(missing)[:3]}"
            )
