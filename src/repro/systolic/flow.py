"""Stream flow: direction and distance travelled per step (Section 3.2).

For a stream ``s`` with index map ``M``, pick any element and two distinct
statements ``op0``, ``op1`` accessing it; then

    flow.s = (place.op1 - place.op0) / (step.op1 - step.op0).

Theorem 10 shows the choice is immaterial: with ``d`` the spanning vector of
``null.M``, ``flow.s = place.d / step.d``.  A zero flow means the stream is
*stationary*; its movement during loading/recovery is governed by the
loading & recovery vector instead.
"""

from __future__ import annotations

from fractions import Fraction

from repro import profiling
from repro.geometry.point import Point
from repro.lang.program import SourceProgram
from repro.lang.stream import Stream
from repro.systolic.spec import SystolicArray
from repro.util.cache import BoundedLRU
from repro.util.errors import RequirementViolation, SystolicSpecError

#: cross-design flow memo: every sweep candidate shares `step` and the
#: stream index maps, so the flow of a stream only depends on the key
#: below.  (Not core.memo's MEMO: systolic.flow loads before the core
#: package and must not import it.)  Failures are never cached -- an
#: inconsistent design raises afresh each time.
FLOW_CACHE = BoundedLRU(4096)
profiling.register("stream_flows", FLOW_CACHE.stats)


def stream_flow(array: SystolicArray, stream: Stream) -> Point:
    """``flow.s`` as an exact rational vector in ``Q^{r-1}``."""
    return FLOW_CACHE.get_or_build(
        (array.step.rows, array.place.rows, stream.index_map.rows),
        lambda: _derive_flow(array, stream),
    )


def _derive_flow(array: SystolicArray, stream: Stream) -> Point:
    d = stream.null_direction()
    denominator = array.step.apply_point(d)[0]
    if denominator == 0:
        raise SystolicSpecError(
            f"stream {stream.name}: step maps its null direction {d} to 0 -- "
            "two accesses of one element would share a step (Eq. 1 violated)"
        )
    return array.place_of(d) / denominator


def all_flows(array: SystolicArray, program: SourceProgram) -> dict[str, Point]:
    """Flow of every stream of the program."""
    return {s.name: stream_flow(array, s) for s in program.streams}


def is_stationary(flow: Point) -> bool:
    """A stream is stationary iff its flow is the zero vector."""
    return flow.is_zero


def flow_denominator(flow: Point) -> int:
    """The ``n`` with ``flow = y / n``, ``y`` integral and ``nb.y``.

    The neighbour requirement of Appendix A.1 demands each moving stream's
    flow have this shape: every non-zero component must be ``+-1/n`` for one
    positive integer ``n`` (a stream element takes ``n`` asynchronous hops
    -- through ``n - 1`` interposed buffers -- to reach the neighbouring
    process).  Raises :class:`RequirementViolation` otherwise.  For the zero
    flow (stationary stream) the denominator is 1.
    """
    magnitudes = {abs(c) for c in flow if c != 0}
    if not magnitudes:
        return 1
    if len(magnitudes) != 1:
        raise RequirementViolation(
            f"flow {flow} has mixed component magnitudes; it cannot be written "
            "as y/n with nb.y"
        )
    mag = Fraction(next(iter(magnitudes)))
    if mag.numerator != 1:
        raise RequirementViolation(
            f"flow {flow} has component magnitude {mag}; the neighbour "
            "requirement needs magnitudes of the form 1/n"
        )
    return mag.denominator
