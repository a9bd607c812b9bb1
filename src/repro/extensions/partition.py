"""Partitioning onto a fixed number of physical processors.

The abstract systolic program spawns one process per process-space point --
fine for the paper's idealisation, impossible on a 4-node transputer box.
Moldovan & Fortes's partitioning (the paper's reference [23]) folds the
virtual array onto a fixed machine.  This module implements the fold in
one step and two execution paths:

* **the fold** (:func:`partitioned_schedule`): for a fixed ``p`` (band) or
  ``p x q`` (tile) physical array and one problem size, the band edges of
  the tiled place coordinates, the streams that cross band boundaries and
  the inter-band buffer capacity are read off the derived program ``sp``
  -- a few integers, cheaper to recompute than to key a cross-size memo
  on -- into one :class:`PartitionedSchedule`, cached per
  ``(design fingerprint, shape, sizes)``.  Its per-band wavefront
  activity (soak / busy / drain) is binned only when first read, so a
  fold used only for execution never enumerates the index space.

* two **partitioned execution** paths, both bit-identical to the unbounded
  oracle: the simulator fold (:func:`partitioned_execute` -- the one
  :func:`repro.runtime.network.execute` body with the
  :class:`PartitionedSchedule` as its ``fold``: every process is pinned to
  the worker its plan position folds onto, every channel crossing a band
  boundary becomes an inter-band buffer, and each worker is serialized),
  and the banded vectorized path
  (:func:`repro.target.npgen.execute_numpy_batch` with ``shape=`` -- at
  every wavefront step each band of :attr:`PartitionedSchedule.lead_edges`
  computes the columns it owns).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from repro import profiling
from repro.core.program import SystolicProgram
from repro.geometry.point import Point
from repro.runtime.network import execute
from repro.runtime.scheduler import SchedulerStats
from repro.symbolic.affine import Numeric
from repro.util.cache import BoundedLRU, size_key
from repro.util.errors import RuntimeSimulationError, SystolicSpecError


# ----------------------------------------------------------------------
# the band splitter
# ----------------------------------------------------------------------
def band_edges(lo: int, hi: int, bands: int) -> tuple[int, ...]:
    """Cut the integer interval ``[lo, hi]`` into near-equal contiguous
    bands; band ``k`` is ``[edges[k], edges[k+1] - 1]``.

    ``bands`` is clamped to the interval's span, and the first
    ``span % bands`` bands get one extra column.
    """
    if bands < 1:
        raise RuntimeSimulationError("need at least one band")
    if lo > hi:
        raise RuntimeSimulationError(f"empty band interval [{lo}, {hi}]")
    span = hi - lo + 1
    bands = min(bands, span)
    q, r = divmod(span, bands)
    edges = [lo]
    for k in range(bands):
        edges.append(edges[-1] + q + (1 if k < r else 0))
    return tuple(edges)


def band_of(edges: tuple[int, ...], coordinate: int) -> int:
    """The band a leading coordinate falls in, clamping outside points.

    I/o and external-buffer processes can sit outside the computation
    cells' coordinate range (e.g. ``IN:a(-3, 1)``); they are folded onto
    the nearest band so every process lands on a real worker.
    """
    if coordinate < edges[0]:
        return 0
    if coordinate >= edges[-1]:
        return len(edges) - 2
    return bisect_right(edges, coordinate) - 1


# ----------------------------------------------------------------------
# per-band wavefront activity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TileBand:
    """One contiguous band of the leading place coordinate.

    ``active_steps[s]`` says whether any cell of the band executes a basic
    statement at wavefront step ``s`` of the schedule; ``work[s]`` counts
    how many.  Together the bands tile the whole process space, so for
    every step the band works sum to the wavefront's width.
    """

    index: int
    lo: int
    hi: int  # inclusive
    active_steps: tuple[bool, ...]
    work: tuple[int, ...]

    @property
    def total_work(self) -> int:
        return sum(self.work)

    @property
    def busy_steps(self) -> int:
        return sum(1 for a in self.active_steps if a)

    @property
    def soak(self) -> int:
        """Steps the band idles before its first basic statement."""
        for s, a in enumerate(self.active_steps):
            if a:
                return s
        return len(self.active_steps)

    @property
    def drain(self) -> int:
        """Steps the band idles after its last basic statement."""
        for s in range(len(self.active_steps) - 1, -1, -1):
            if self.active_steps[s]:
                return len(self.active_steps) - 1 - s
        return 0

    def __str__(self) -> str:
        return (
            f"band {self.index} [{self.lo}, {self.hi}]: "
            f"{self.total_work} statements over {self.busy_steps}/"
            f"{len(self.active_steps)} steps"
        )


def array_extents(shape) -> tuple[int, ...]:
    """``shape`` as a tuple of positive ints, before any design is known.

    A non-integer extent (``2.5``, ``"2"``, ``True``) would otherwise be
    truncated into a fold the caller never asked for.  Raises
    :class:`SystolicSpecError` naming the shape.
    """
    try:
        dims = tuple(shape)
    except TypeError:
        dims = ()
    if not dims or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 1 for s in dims
    ):
        raise SystolicSpecError(
            f"array shape must be a sequence of positive integers, got {shape!r}"
        )
    return dims


def _checked_shape(sp: SystolicProgram, shape) -> tuple[int, ...]:
    """``shape`` as ``(p,)`` or ``(p, q)`` positive ints that fit ``sp``.

    The one validation of a physical-array shape, run before any cache key
    is formed.  Raises :class:`SystolicSpecError` naming the shape.
    """
    dims = array_extents(shape)
    axes = min(2, len(sp.coords))  # p bands or p x q tiles
    if len(dims) > axes:
        raise SystolicSpecError(
            f"array shape {dims} does not fit a {len(sp.coords)}-d "
            f"process space {sp.coords} (at most {axes} axes)"
        )
    return dims


# ----------------------------------------------------------------------
# the fold (one design + shape + problem size)
# ----------------------------------------------------------------------
def _coordinate_range(
    row: tuple[int, ...], lows: list[int], highs: list[int]
) -> tuple[int, int]:
    """The range of ``row . x`` over the loop box: the extrema of an affine
    form over a box sit at corners chosen per coefficient by sign."""
    lo = sum(min(g * a, g * b) for g, a, b in zip(row, lows, highs))
    hi = sum(max(g * a, g * b) for g, a, b in zip(row, lows, highs))
    return int(lo), int(hi)


@dataclass(frozen=True)
class PartitionedSchedule:
    """A design folded onto a fixed physical array at one problem size.

    Carries the concrete band edges, the streams crossing band boundaries
    with the inter-band buffer capacity, and the worker map that folds
    every process-space point onto the array.  The per-band wavefront
    activity (:attr:`bands`, reusing :class:`TileBand`) is binned on first
    read.
    """

    sp: SystolicProgram = field(repr=False, compare=False)
    sizes: tuple[tuple[str, int], ...]
    lead_edges: tuple[int, ...]
    second_edges: tuple[int, ...] | None
    #: streams whose one-hop vector has a non-zero leading component: every
    #: channel they own between neighbouring bands is an inter-band buffer
    crossing: tuple[str, ...]
    #: buffer slots given to every boundary-crossing channel: a full link
    #: of the deepest crossing stream (its flow denominator) + 1, at least 2
    interband_capacity: int

    @property
    def shape(self) -> tuple[int, ...]:
        """The *effective* shape after clamping to the coordinate spans."""
        bands = len(self.lead_edges) - 1
        if self.second_edges is None:
            return (bands,)
        return (bands, len(self.second_edges) - 1)

    @property
    def workers(self) -> int:
        out = 1
        for s in self.shape:
            out *= s
        return out

    @cached_property
    def _activity(self) -> tuple[tuple[TileBand, ...], int, int]:
        """``(bands, steps, statements)``: the synchronous wavefronts binned
        by the band of their leading coordinate."""
        from repro.analysis.wavefront import synchronous_wavefronts

        fronts = synchronous_wavefronts(self.sp, dict(self.sizes))
        edges = self.lead_edges
        works = [[0] * len(fronts) for _ in range(len(edges) - 1)]
        for s, cells in enumerate(fronts.values()):
            for cell in cells:
                works[band_of(edges, int(cell[0]))][s] += 1
        bands = tuple(
            TileBand(
                index=k,
                lo=edges[k],
                hi=edges[k + 1] - 1,
                active_steps=tuple(w > 0 for w in work),
                work=tuple(work),
            )
            for k, work in enumerate(works)
        )
        return bands, len(fronts), sum(len(cells) for cells in fronts.values())

    @property
    def bands(self) -> tuple[TileBand, ...]:
        return self._activity[0]

    @property
    def n_steps(self) -> int:
        return self._activity[1]

    @property
    def total_work(self) -> int:
        return self._activity[2]

    @property
    def soak(self) -> tuple[int, ...]:
        return tuple(b.soak for b in self.bands)

    @property
    def drain(self) -> tuple[int, ...]:
        return tuple(b.drain for b in self.bands)

    def worker_of(self, point: Point) -> int:
        """The physical worker a process-space point folds onto."""
        lead_band = band_of(self.lead_edges, int(point[0]))
        if self.second_edges is None:
            return lead_band
        q = len(self.second_edges) - 1
        second = int(point[1]) if len(point) > 1 else self.second_edges[0]
        return lead_band * q + band_of(self.second_edges, second)

    def summary(self) -> str:
        shape = "x".join(str(s) for s in self.shape)
        lines = [
            f"partition {shape} ({self.workers} workers), "
            f"{self.n_steps} steps, {self.total_work} statements",
        ]
        for b in self.bands:
            lines.append(f"  {b} (soak {b.soak}, drain {b.drain})")
        lines.append(
            f"  crossing streams: {', '.join(self.crossing) or 'none'}"
            f" (inter-band buffer capacity {self.interband_capacity})"
        )
        return "\n".join(lines)


def _fold(
    sp: SystolicProgram, env: Mapping[str, Numeric], shape: tuple[int, ...]
) -> PartitionedSchedule:
    ienv = {k: int(v) for k, v in env.items()}
    lows = [lp.lower.evaluate_int(ienv) for lp in sp.source.loops]
    highs = [lp.upper.evaluate_int(ienv) for lp in sp.source.loops]
    if any(a > b for a, b in zip(lows, highs)):
        raise RuntimeSimulationError(
            f"empty loop range at size {ienv}: {list(zip(lows, highs))}"
        )
    edges = [
        band_edges(
            *_coordinate_range(
                tuple(int(c) for c in sp.array.place.rows[axis]), lows, highs
            ),
            extent,
        )
        for axis, extent in enumerate(shape)
    ]
    crossing = [plan for plan in sp.streams if plan.hop[0] != 0]
    deepest = max((plan.denominator for plan in crossing), default=1)
    return PartitionedSchedule(
        sp=sp,
        sizes=tuple(sorted(ienv.items())),
        lead_edges=edges[0],
        second_edges=edges[1] if len(edges) == 2 else None,
        crossing=tuple(plan.name for plan in crossing),
        interband_capacity=max(2, deepest + 1),
    )


#: folds keyed by (design fingerprint, shape, sizes)
PARTITION_CACHE = BoundedLRU(32)
profiling.register("partition_schedules", PARTITION_CACHE.stats)


def partitioned_schedule(
    sp: SystolicProgram,
    env: Mapping[str, Numeric],
    shape: tuple[int, ...],
) -> PartitionedSchedule:
    """The (cached) fold of ``sp`` onto a fixed array at size ``env``."""
    shape = _checked_shape(sp, shape)
    from repro.target.pygen import design_fingerprint  # lazy: import cycle

    return PARTITION_CACHE.get_or_build(
        (design_fingerprint(sp), shape, size_key(env)),
        lambda: _fold(sp, env, shape),
    )


# ----------------------------------------------------------------------
# partitioned execution on the simulator
# ----------------------------------------------------------------------
def partitioned_execute(
    sp: SystolicProgram,
    env: Mapping[str, Numeric],
    inputs,
    shape: tuple[int, ...],
    *,
    channel_capacity: int = 1,
) -> tuple[dict, SchedulerStats]:
    """Run a compiled design folded onto a fixed ``(p,)`` or ``(p, q)``
    physical array.

    The one :func:`repro.runtime.network.execute` body runs it, with the
    cached :class:`PartitionedSchedule` as the fold: the plan is validated
    (conservation pre-flight), every process is pinned to the worker its
    plan position folds onto, and every channel crossing a band boundary
    is built as an inter-band buffer.  Results are identical to the
    unbounded run (the fold changes timing, never semantics); the returned
    stats carry the folded makespan.
    """
    return execute(
        sp,
        env,
        inputs,
        channel_capacity=channel_capacity,
        fold=partitioned_schedule(sp, env, shape),
    )
