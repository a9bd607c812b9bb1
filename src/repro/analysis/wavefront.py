"""Execution wavefronts: text visualisation and the vectorized schedule.

Two layers share the same mathematics (group the index space by
``step . x``):

* **Visualisation** -- :func:`synchronous_wavefronts` and the ASCII
  renderers show which processes of a 1-d/2-d array execute a basic
  statement at each step, like the paper's own figures would have.
* **The wavefront schedule** -- :func:`wavefront_schedule` emits the same
  grouping as packed integer arrays: for every logical time step, the
  active index points, the active cells of ``PS``, and one precomputed
  *gather/scatter index row* (every stream's affine index map ``M . x``
  lowered to flat positions in one dense buffer that holds all variables
  back to back).  This is the
  execution plan of the vectorized NumPy backend
  (:mod:`repro.target.npgen`): Kahn determinism plus the dependence-respect
  check (``step`` strictly increases along every dependence) guarantee that
  all statements of one wavefront are independent, so each step can run as
  one batched array operation.  Schedules are cached per
  ``(design_fingerprint, problem size)`` in a bounded LRU, mirroring the
  pygen module cache, so sweeps and batch executions amortize the build.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping

from repro import profiling
from repro.core.program import SystolicProgram
from repro.geometry.point import Point
from repro.runtime.trace import Trace
from repro.symbolic.affine import Numeric
from repro.target import pygen  # noqa: F401 -- defines sp.fingerprint, the cache key
from repro.util import require_numpy
from repro.util.cache import BoundedLRU, size_key
from repro.util.errors import CompilationError, ReproError


def synchronous_wavefronts(
    sp: SystolicProgram, env: Mapping[str, Numeric]
) -> dict[int, list[Point]]:
    """step value -> processes executing a basic statement at that step."""
    out: dict[int, list[Point]] = defaultdict(list)
    for x in sp.source.index_space(env):
        out[int(sp.array.step_of(x))].append(sp.array.place_of(x))
    return {k: sorted(v) for k, v in sorted(out.items())}


def render_wavefront_grid(
    sp: SystolicProgram, env: Mapping[str, Numeric], step: int
) -> str:
    """An ASCII picture of a 1-d or 2-d process space at one step.

    ``#`` executes a basic statement at this step, ``.`` is idle
    computation space, `` `` (blank) is outside the computation space.
    """
    dim = len(sp.coords)
    if dim not in (1, 2):
        raise ReproError(f"can only draw 1-d or 2-d process spaces, got {dim}-d")
    active = set(synchronous_wavefronts(sp, env).get(step, []))
    space = sp.process_space(env)
    lines: list[str] = []
    if dim == 1:
        row_chars = []
        for c in range(int(space.lo[0]), int(space.hi[0]) + 1):
            y = Point.of(c)
            if y in active:
                row_chars.append("#")
            elif sp.in_computation_space(y, env):
                row_chars.append(".")
            else:
                row_chars.append(" ")
        lines.append("".join(row_chars))
    else:
        for r in range(int(space.hi[1]), int(space.lo[1]) - 1, -1):
            row_chars = []
            for c in range(int(space.lo[0]), int(space.hi[0]) + 1):
                y = Point.of(c, r)
                if y in active:
                    row_chars.append("#")
                elif sp.in_computation_space(y, env):
                    row_chars.append(".")
                else:
                    row_chars.append(" ")
            lines.append("".join(row_chars))
    return "\n".join(lines)


def render_wavefront_film(
    sp: SystolicProgram, env: Mapping[str, Numeric], *, max_frames: int = 6
) -> str:
    """Several consecutive wavefront frames, labelled by step number.

    When there are more steps than frames the film is stride-sampled, but
    the final wavefront is always shown: the last frame is pinned to the
    last step, so the film never cuts off before the computation ends.
    """
    fronts = synchronous_wavefronts(sp, env)
    steps = list(fronts)
    if len(steps) > max_frames:
        stride = max(1, len(steps) // max_frames)
        sampled = steps[::stride][:max_frames]
        sampled[-1] = steps[-1]
        steps = sampled
    blocks = []
    for s in steps:
        blocks.append(f"step {s}:")
        blocks.append(render_wavefront_grid(sp, env, s))
    return "\n".join(blocks)


# ----------------------------------------------------------------------
# the size-parameterized wavefront schedule (vectorized execution plan)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VariableLayout:
    """Dense row-major storage layout of one variable space ``VS.v``:
    its elements sit at ``base .. base + size - 1`` of the schedule's one
    dense buffer."""

    name: str
    lo: tuple[int, ...]
    shape: tuple[int, ...]
    strides: tuple[int, ...]
    size: int
    base: int


@dataclass(frozen=True)
class WavefrontStep:
    """Everything one logical time step needs to execute as array ops.

    ``points`` is the ``(r, W)`` matrix of active index points, ``cells``
    the ``((r-1), W)`` matrix of active ``PS`` cells (the wavefront
    picture), and ``rows`` the ``(S * W,)`` buffer positions of the
    elements the statements read/write: the ``W`` positions of the ``k``-th
    stream of :attr:`WavefrontSchedule.streams` at ``rows[k*W:(k+1)*W]``.
    The same row serves gather (inputs) and scatter (outputs).
    """

    t: int
    points: object  # np.ndarray (r, W) int64
    cells: object  # np.ndarray (r-1, W) int64
    rows: object  # np.ndarray (S * W,) int64, a view into one schedule array

    @property
    def width(self) -> int:
        return int(self.points.shape[1])


@dataclass
class WavefrontSchedule:
    """The complete vectorized execution plan of a design at one size.

    Built once per ``(design fingerprint, problem size)`` and cached; the
    NumPy backend attaches its compiled per-dtype body plans under
    ``runtime_cache`` so repeated (and batched) executions reuse both the
    geometry and the lowered basic statement.
    """

    fingerprint: str
    sizes: tuple[tuple[str, int], ...]
    coords: tuple[str, ...]
    indices: tuple[str, ...]
    layouts: dict[str, VariableLayout]
    #: every stream, in the order of each step's index row
    streams: tuple[str, ...]
    streams_read: tuple[str, ...]
    streams_written: tuple[str, ...]
    steps: tuple[WavefrontStep, ...]
    total_points: int
    #: backend-owned memo (e.g. compiled body plans per dtype)
    runtime_cache: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def max_width(self) -> int:
        return max((s.width for s in self.steps), default=0)

    @property
    def elements(self) -> int:
        """Length of the dense buffer holding every variable."""
        return sum(layout.size for layout in self.layouts.values())

    def env_of(self) -> dict[str, int]:
        return dict(self.sizes)


def _layout_of(variable, env, base: int) -> VariableLayout:
    space = variable.space(env)
    lo = tuple(int(c) for c in space.lo)
    hi = tuple(int(c) for c in space.hi)
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    strides = [1] * len(shape)
    for axis in range(len(shape) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * shape[axis + 1]
    return VariableLayout(
        name=variable.name,
        lo=lo,
        shape=shape,
        strides=tuple(strides),
        size=space.size,
        base=base,
    )


def build_wavefront_schedule(
    sp: SystolicProgram, env: Mapping[str, Numeric]
) -> WavefrontSchedule:
    """Group the whole index space by ``step . x`` into packed arrays.

    Pure construction (no caching); most callers want
    :func:`wavefront_schedule`.  Raises :class:`CompilationError` when two
    statements of one wavefront would touch the same element of a written
    stream -- impossible for designs that pass the dependence-respect
    check, so hitting it means the design (or this scheduler) is broken.
    """
    np = require_numpy("the wavefront schedule")
    sizes = tuple(sorted((k, int(v)) for k, v in env.items()))
    ienv = dict(sizes)
    source = sp.source

    lo = [lp.lower.evaluate_int(ienv) for lp in source.loops]
    hi = [lp.upper.evaluate_int(ienv) for lp in source.loops]
    if any(l > h for l, h in zip(lo, hi)):
        raise CompilationError(
            f"empty loop range at size {ienv}: {list(zip(lo, hi))}"
        )
    extents = tuple(h - l + 1 for l, h in zip(lo, hi))
    r = len(extents)

    # (r, N) matrix of every index point, then the wavefront order.
    x = np.indices(extents, dtype=np.int64).reshape(r, -1)
    x += np.asarray(lo, dtype=np.int64)[:, None]
    step_row = np.asarray(
        [int(c) for c in sp.array.step.rows[0]], dtype=np.int64
    )
    t = step_row @ x
    order = np.argsort(t, kind="stable")
    x = x[:, order]
    t = t[order]

    place_rows = np.asarray(
        [[int(c) for c in row] for row in sp.array.place.rows], dtype=np.int64
    )
    cells = place_rows @ x

    layouts = {}
    base = 0
    for v in source.variables:
        layouts[v.name] = _layout_of(v, ienv, base)
        base += layouts[v.name].size
    written = tuple(sorted(source.body.streams_written()))
    read = tuple(sorted(source.body.streams_read()))
    ordered = sorted(source.streams, key=lambda s: s.name)
    streams = tuple(s.name for s in ordered)

    # (S, N) buffer positions of every stream's element at every point.
    flat = np.empty((len(streams), x.shape[1]), dtype=np.int64)
    for k, s in enumerate(ordered):
        name, layout = s.name, layouts[s.name]
        rows = np.asarray(
            [[int(c) for c in row] for row in s.index_map.rows], dtype=np.int64
        )
        elements = rows @ x  # (dim, N)
        flat[k] = layout.base
        for axis in range(elements.shape[0]):
            coords = elements[axis]
            low, high = int(coords.min()), int(coords.max())
            if low < layout.lo[axis] or high > layout.lo[axis] + layout.shape[axis] - 1:
                raise CompilationError(
                    f"stream {name}: accessed elements [{low}, {high}] fall "
                    f"outside the variable space on axis {axis} at size {ienv}"
                )
            flat[k] += (coords - layout.lo[axis]) * layout.strides[axis]

    # Cut the sorted positions into per-step index rows.  The rows are laid
    # out step-major in one array, so each is a contiguous slice of it.
    uniq, starts = np.unique(t, return_index=True)
    bounds = np.append(starts, t.shape[0]).tolist()
    n_streams = len(streams)
    packed = np.empty(flat.size, dtype=np.int64)
    steps = []
    slots = [streams.index(name) for name in written]
    for tv, a, b in zip(uniq.tolist(), bounds, bounds[1:]):
        w = b - a
        row = packed[n_streams * a : n_streams * b]
        row.reshape(n_streams, w)[:] = flat[:, a:b]
        for name, k in zip(written, slots):
            idx = row[k * w : (k + 1) * w]
            if np.unique(idx).shape[0] != w:
                raise CompilationError(
                    f"wavefront t={tv} touches an element of written "
                    f"stream {name} twice: the design violates dependence "
                    "respect (step must separate same-element accesses)"
                )
        steps.append(
            WavefrontStep(t=tv, points=x[:, a:b], cells=cells[:, a:b], rows=row)
        )

    return WavefrontSchedule(
        fingerprint=sp.fingerprint,
        sizes=sizes,
        coords=tuple(sp.coords),
        indices=tuple(source.indices),
        layouts=layouts,
        streams=streams,
        streams_read=read,
        streams_written=written,
        steps=tuple(steps),
        total_points=int(x.shape[1]),
    )


#: wavefront schedules keyed by (design fingerprint, sizes)
SCHEDULE_CACHE = BoundedLRU(32)
profiling.register("wavefront_schedules", SCHEDULE_CACHE.stats)


def wavefront_schedule(
    sp: SystolicProgram, env: Mapping[str, Numeric]
) -> WavefrontSchedule:
    """The (cached) vectorized execution plan of ``sp`` at size ``env``."""
    return SCHEDULE_CACHE.get_or_build(
        (sp.fingerprint, size_key(env)),
        lambda: build_wavefront_schedule(sp, env),
    )


def activity_histogram(trace: Trace, *, width: int = 60, bins: int = 20) -> str:
    """Events per virtual-time bin, as an ASCII bar chart."""
    if not trace.events:
        return "(no events)"
    span = max(1, trace.makespan)
    counts = [0] * bins
    for e in trace.events:
        idx = min(bins - 1, (e.clock - 1) * bins // span)
        counts[idx] += 1
    peak = max(counts)
    lines = []
    for i, c in enumerate(counts):
        bar = "#" * (c * width // peak if peak else 0)
        lo = i * span // bins
        lines.append(f"t={lo:>4} |{bar} {c}")
    return "\n".join(lines)
