"""Partitioning onto a fixed number of physical processors.

The abstract systolic program spawns one process per process-space point --
fine for the paper's idealisation, impossible on a 4-node transputer box.
Moldovan & Fortes's partitioning (the paper's reference [23]) folds the
virtual array onto a fixed machine.  This module implements the fold in
two layers:

* a **symbolic partitioned compilation** (:func:`compile_partition`): for a
  fixed ``p`` (band) or ``p x q`` (tile) physical array the fold is derived
  *once per design* -- the tiled place-coordinate rows, the per-stream
  boundary-crossing analysis (which streams move across band boundaries,
  with how many interposed latches), and the inter-band buffer capacity --
  and memoized in the cross-design memo (:data:`repro.core.memo.MEMO`)
  keyed by ``(design_fingerprint, shape)``, exactly like the unbounded
  closed forms.  Specializing to a concrete problem size
  (:func:`partitioned_schedule`) only evaluates the cached formulas and
  bins the wavefronts: no per-band derivation is re-run, so a warm
  symbolic compilation serves any problem size in milliseconds.

* two **partitioned execution** paths, both bit-identical to the unbounded
  oracle: the simulator fold (:func:`partitioned_execute` -- the one
  :func:`repro.runtime.network.execute` body with the
  :class:`PartitionedSchedule` as its ``fold``: every process is pinned to
  the worker its plan position folds onto, every channel crossing a band
  boundary becomes an inter-band buffer, and each worker is serialized),
  and the banded vectorized path
  (:func:`repro.target.npgen.execute_numpy_batch` with ``shape=`` -- the
  per-band activity masks of the :class:`PartitionedSchedule` drive banded
  batched wavefront steps).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping

from repro import profiling
from repro.core.memo import MEMO
from repro.core.program import SystolicProgram
from repro.geometry.point import Point
from repro.runtime.network import execute
from repro.runtime.scheduler import SchedulerStats
from repro.symbolic.affine import Numeric
from repro.util.cache import BoundedLRU, size_key
from repro.util.errors import RuntimeSimulationError, SystolicSpecError

#: cross-design memo table holding the symbolic partitioned compilations
PARTITION_MEMO_TABLE = "partition_symbolic"


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


# ----------------------------------------------------------------------
# the symbolic partitioned compilation (compile once per design + shape)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamFold:
    """Size-independent fold analysis of one stream.

    A stream whose one-hop vector has a non-zero leading component moves
    *across* band boundaries: every channel it owns between neighbouring
    bands becomes an inter-band buffer.  ``denominator`` is the stream's
    flow denominator (``denominator - 1`` interposed latches per link),
    which bounds the elements in flight on one link.
    """

    name: str
    lead_hop: int
    denominator: int
    stationary: bool

    @property
    def crosses(self) -> bool:
        return self.lead_hop != 0


@dataclass(frozen=True)
class SymbolicPartition:
    """Everything the fold derives that does *not* depend on problem size.

    Memoized per ``(design_fingerprint, shape)`` in the cross-design memo;
    :meth:`specialize` turns it into a concrete
    :class:`PartitionedSchedule` for one problem size by evaluating the
    stored formulas -- it never re-derives them.
    """

    fingerprint: str
    #: ``(p,)`` for a band fold, ``(p, q)`` for a p x q tile fold
    shape: tuple[int, ...]
    coords: tuple[str, ...]
    #: integer place-matrix rows of the tiled coordinates (leading row
    #: always present; second row only for a 2-d shape)
    tiled_rows: tuple[tuple[int, ...], ...]
    streams: tuple[StreamFold, ...]
    #: buffer slots given to every boundary-crossing channel: enough for a
    #: full link of the deepest crossing stream (denominator latches) + 1
    interband_capacity: int

    def coordinate_range(
        self, row: tuple[int, ...], lows: list[int], highs: list[int]
    ) -> tuple[int, int]:
        """Closed-form range of ``row . x`` over the loop box.

        The extrema of an affine form over a box sit at box corners chosen
        per-coefficient by sign -- the formula the symbolic compilation
        derived; specialization just plugs in the concrete loop bounds.
        """
        lo = sum(min(g * a, g * b) for g, a, b in zip(row, lows, highs))
        hi = sum(max(g * a, g * b) for g, a, b in zip(row, lows, highs))
        return int(lo), int(hi)

    def specialize(
        self, sp: SystolicProgram, env: Mapping[str, Numeric]
    ) -> PartitionedSchedule:
        """Instantiate the fold at one problem size (pure evaluation)."""
        from repro.analysis.wavefront import synchronous_wavefronts

        ienv = {k: int(v) for k, v in env.items()}
        lows = [lp.lower.evaluate_int(ienv) for lp in sp.source.loops]
        highs = [lp.upper.evaluate_int(ienv) for lp in sp.source.loops]
        if any(a > b for a, b in zip(lows, highs)):
            raise RuntimeSimulationError(
                f"empty loop range at size {ienv}: {list(zip(lows, highs))}"
            )
        lead_lo, lead_hi = self.coordinate_range(self.tiled_rows[0], lows, highs)
        lead_edges = band_edges(lead_lo, lead_hi, self.shape[0])
        second_edges: tuple[int, ...] | None = None
        if len(self.shape) == 2:
            lo2, hi2 = self.coordinate_range(self.tiled_rows[1], lows, highs)
            second_edges = band_edges(lo2, hi2, self.shape[1])

        fronts = synchronous_wavefronts(sp, ienv)
        n_bands = len(lead_edges) - 1
        works = [[0] * len(fronts) for _ in range(n_bands)]
        for s, cells in enumerate(fronts.values()):
            for cell in cells:
                works[band_of(lead_edges, int(cell[0]))][s] += 1
        return PartitionedSchedule(
            symbolic=self,
            sizes=tuple(sorted(ienv.items())),
            lead_edges=lead_edges,
            second_edges=second_edges,
            bands=tuple(
                TileBand(
                    index=k,
                    lo=lead_edges[k],
                    hi=lead_edges[k + 1] - 1,
                    active_steps=tuple(w > 0 for w in work),
                    work=tuple(work),
                )
                for k, work in enumerate(works)
            ),
            total_work=sum(len(cells) for cells in fronts.values()),
        )


def _derive_partition(sp: SystolicProgram, shape: tuple[int, ...]) -> SymbolicPartition:
    from repro.target.pygen import design_fingerprint  # lazy: import cycle

    rows = [tuple(int(c) for c in sp.array.place.rows[axis]) for axis in range(len(shape))]
    folds = tuple(
        StreamFold(
            name=plan.name,
            lead_hop=int(plan.hop[0]),
            denominator=plan.denominator,
            stationary=plan.stationary,
        )
        for plan in sp.streams
    )
    deepest = max((f.denominator for f in folds if f.crosses), default=1)
    return SymbolicPartition(
        fingerprint=design_fingerprint(sp),
        shape=shape,
        coords=tuple(sp.coords),
        tiled_rows=tuple(rows),
        streams=folds,
        interband_capacity=max(2, deepest + 1),
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


def compile_partition(
    sp: SystolicProgram, shape: tuple[int, ...]
) -> SymbolicPartition:
    """The symbolic partitioned compilation of ``sp`` for a fixed array.

    Derived once per ``(design_fingerprint, shape)`` and memoized in the
    cross-design memo (table :data:`PARTITION_MEMO_TABLE`) -- compiling a
    design for a ``3``-band or ``2x2`` machine happens exactly once, after
    which every problem size specializes from the cached result.  The
    memo's per-table hit counters (``MEMO.table_counters``) prove the
    reuse.
    """
    from repro.target.pygen import design_fingerprint  # lazy: import cycle

    shape = _checked_shape(sp, shape)
    key = (design_fingerprint(sp), shape)
    return MEMO.get(
        PARTITION_MEMO_TABLE, key, lambda: _derive_partition(sp, shape)
    )


# ----------------------------------------------------------------------
# the specialized schedule (one design + shape + problem size)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionedSchedule:
    """A symbolic partition specialized to one problem size.

    Carries the concrete band edges, the per-band wavefront activity
    (soak / busy / drain, reusing :class:`TileBand`) and the worker map
    that folds every process-space point onto the fixed physical array.
    """

    symbolic: SymbolicPartition
    sizes: tuple[tuple[str, int], ...]
    lead_edges: tuple[int, ...]
    second_edges: tuple[int, ...] | None
    bands: tuple[TileBand, ...]
    total_work: int

    @property
    def shape(self) -> tuple[int, ...]:
        """The *effective* shape after clamping to the coordinate spans."""
        if self.second_edges is None:
            return (len(self.bands),)
        return (len(self.bands), len(self.second_edges) - 1)

    @property
    def workers(self) -> int:
        out = 1
        for s in self.shape:
            out *= s
        return out

    @property
    def n_steps(self) -> int:
        return len(self.bands[0].active_steps) if self.bands else 0

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
        crossing = [f.name for f in self.symbolic.streams if f.crosses]
        lines.append(
            f"  crossing streams: {', '.join(crossing) if crossing else 'none'}"
            f" (inter-band buffer capacity {self.symbolic.interband_capacity})"
        )
        return "\n".join(lines)


#: specialized partitioned schedules keyed by (design fingerprint, shape,
#: sizes).  The symbolic stage underneath is memoized separately (per design
#: + shape, size-free), so a miss on a *new size* is a pure specialization --
#: formula evaluation plus wavefront binning -- never a re-derivation.
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
        lambda: compile_partition(sp, shape).specialize(sp, env),
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
