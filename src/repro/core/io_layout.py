"""The i/o process layout (Sections 6.3 and 7.3).

A stream enters the process space like a wave: i/o processes sit on every
boundary of ``PS`` that is *not parallel* to the stream's flow -- one set
per non-zero component of ``flow.s`` (Eq. 5).  If ``flow.s.i > 0`` the
input processes lie on the ``PS_min.i`` face and the output processes on
the ``PS_max.i`` face; a negative component reverses the two.

When a flow has several non-zero components the sets overlap at corners;
following Section 7.3 the sets are derived in increasing dimension order
and duplicates are omitted from later sets (see Appendix E.2.3 for stream
``c`` of the Kung-Leiserson design).

Stationary streams use their loading & recovery vector in place of the flow
(Section 4.2), so loading/recovery happens at the boundary the compiler was
told to use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle
from repro.util.errors import CompilationError


def io_axes(transport: Point) -> list[int]:
    """Dimensions in which i/o processes are created (non-zero components)."""
    return [i for i, c in enumerate(transport) if c != 0]


def io_boundary_sides(transport: Point, axis: int) -> tuple[str, str]:
    """``(input_side, output_side)``, each ``"lo"`` or ``"hi"``."""
    c = transport[axis]
    if c == 0:
        raise CompilationError(f"axis {axis} is parallel to the transport {transport}")
    return ("lo", "hi") if c > 0 else ("hi", "lo")


@dataclass(frozen=True)
class IOPoint:
    """One concrete i/o process: its boundary position and role."""

    position: Point  # the same coordinates as the PS process it talks to
    axis: int        # the dimension whose boundary it lies on
    role: str        # "input" | "output"


def io_process_count(space: Rectangle, transport: Point) -> int:
    """``len(concrete_io_points(space, transport))``, without enumerating.

    Per role the i/o processes are the union of one face per i/o axis, and
    faces of distinct axes always meet.  Inclusion-exclusion counts that
    union as the sum over non-empty axis sets ``S`` of
    ``(-1)^(|S|+1) * prod_{j not in S} extent_j``, which adds up to
    ``|PS|`` less the points on no face:
    ``prod_{j in axes} (extent_j - 1) * prod_{j not in axes} extent_j``.
    The input and output faces of an axis have the same extent, so both
    roles count the same.
    """
    off_faces = 1
    for c, lo, hi in zip(transport, space.lo, space.hi):
        off_faces *= hi - lo if c else hi - lo + 1
    return 2 * (space.size - off_faces)


def concrete_io_points(
    space: Rectangle, transport: Point
) -> list[IOPoint]:
    """All i/o processes for one stream at a concrete process space.

    Sets are produced in increasing dimension order with duplicates omitted
    (input and output sides deduplicate independently -- a corner point can
    legitimately host an input process of one axis and an output process of
    another only if it is not already claimed for that role).
    """
    out: list[IOPoint] = []
    seen: dict[str, set[Point]] = {"input": set(), "output": set()}
    for axis in io_axes(transport):
        in_side, out_side = io_boundary_sides(transport, axis)
        for role, side in (("input", in_side), ("output", out_side)):
            coord = space.lo[axis] if side == "lo" else space.hi[axis]
            for p in space:
                if p[axis] != coord:
                    continue
                if p in seen[role]:
                    continue
                seen[role].add(p)
                out.append(IOPoint(position=p, axis=axis, role=role))
    return out
