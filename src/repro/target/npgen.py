"""The vectorized NumPy backend: execute whole wavefronts as array ops.

Where :mod:`repro.target.pygen` runs the generated process network one
scalar channel operation at a time, this backend exploits two facts the
compilation scheme already guarantees:

* the network is a **Kahn process network**, so the final variable
  contents depend only on the per-channel value sequences -- never on
  scheduling -- and are exactly the sequential oracle's results;
* the dependence-respect check makes ``step`` strictly increase along
  every dependence, so all basic statements with the same ``step . x``
  are independent and may execute *simultaneously*.

Execution therefore reduces to the wavefront schedule of
:mod:`repro.analysis.wavefront`.  Every variable lives in one dense
``(elements, B)`` buffer, and for each logical time step the backend
**gathers** the current element of every stream with one ``take`` of the
step's precomputed index row (the affine maps ``M . x`` lowered to buffer
positions), applies the basic statement **once** as vectorized ufuncs over
the whole wavefront (guards become boolean masks, index expressions
become precomputed integer arrays), and **scatters** each written stream
back.  Soak/drain phases and ``PS \\ CS`` pass-through processes move values
without changing them, so on the dense buffer they are the identity and
vanish entirely -- the buffer *is* the pipe contents at every instant.

A trailing **batch axis** amortizes one schedule across ``B`` independent
input sets (:func:`execute_numpy_batch`): index values and masks are
``(W, 1)`` columns that broadcast against stream values of shape
``(W, B)``, so batching costs one extra array dimension, not another
pass.

Values are lowered to ``int64`` when a magnitude bound on every value
the run can produce (interval propagation of the basic statement over the
schedule's steps) fits in it, and to exact ``object`` arrays otherwise, so
results never wrap.  Inputs come from
:func:`~repro.lang.interpreter.checked_values` already in each variable's
row-major layout order, so loading the buffer is one ``fromiter`` and
unloading a batch entry one ``zip`` per variable.  Programs outside the
backend's value domain -- fractional constants or index-expression
coefficients -- raise :class:`~repro.util.errors.BackendUnsupportedError`
so callers can fall back to pygen.  NumPy itself is an optional extra (``pip install
repro[np]``); importing this module without it is fine, calling into it
raises a :class:`~repro.util.errors.MissingDependencyError` with the
install hint.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Mapping, Sequence

from repro.core.program import SystolicProgram
from repro.lang.expr import RELATIONS, BinOp, Body, Const, Expr, IndexExpr, StreamRead
from repro.lang.interpreter import checked_values
from repro.symbolic.affine import Numeric
from repro.symbolic.compile import lower_affine_int
from repro.util import require_numpy
from repro.util.errors import BackendUnsupportedError, CompilationError

try:  # NumPy is optional: keep the module importable without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

#: True when NumPy is importable; callers use this for graceful skips.
HAVE_NUMPY = _np is not None

__all__ = [
    "HAVE_NUMPY",
    "execute_numpy_batch",
    "schedule_cache_stats",
]


# ----------------------------------------------------------------------
# basic-statement lowering: expressions -> array closures
# ----------------------------------------------------------------------
def _np_ops():
    return {
        "+": operator.add,
        "-": operator.sub,
        "*": operator.mul,
        "min": _np.minimum,
        "max": _np.maximum,
    }


def _const_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise BackendUnsupportedError(
            f"npgen cannot lower constant {value!r} (exact integers only)"
        )
    f = Fraction(value)
    if f.denominator != 1:
        raise BackendUnsupportedError(
            f"npgen cannot lower fractional constant {value!r}; "
            "use the pygen backend for exact rational programs"
        )
    return int(f)


def _compile_expr(e: Expr, affine_ix: dict, ops) -> object:
    """Lower one expression tree into ``fn(cur, aff) -> array``.

    ``cur`` maps stream names to their gathered current values (``(W, B)``),
    ``aff`` is the list of precomputed index-expression columns (``(W, 1)``)
    of the wavefront being executed.
    """
    if isinstance(e, Const):
        v = _const_int(e.value)
        return lambda cur, aff: v
    if isinstance(e, StreamRead):
        name = e.name
        return lambda cur, aff: cur[name]
    if isinstance(e, IndexExpr):
        i = affine_ix[e.affine]
        return lambda cur, aff: aff[i]
    if isinstance(e, BinOp):
        fn_l = _compile_expr(e.left, affine_ix, ops)
        fn_r = _compile_expr(e.right, affine_ix, ops)
        op = ops[e.op]
        return lambda cur, aff: op(fn_l(cur, aff), fn_r(cur, aff))
    raise BackendUnsupportedError(f"npgen cannot lower expression {e!r}")


_INT64_MAX = 2**63 - 1


def _bound_op(combine):
    """``combine`` on operand magnitudes; refuses to leave ``int64``."""

    def op(a, b):
        a, b = abs(a), abs(b)
        c = combine(a, b)
        if max(a, b, c) > _INT64_MAX:
            raise OverflowError(c)
        return c

    return op


#: Magnitude bounds: |a±b| <= A+B, |a*b| <= A*B, |min/max(a, b)| <= max(A, B).
_BOUND_OPS = {
    "+": _bound_op(operator.add),
    "-": _bound_op(operator.add),
    "*": _bound_op(operator.mul),
    "min": _bound_op(max),
    "max": _bound_op(max),
}


class _BodyPlan:
    """The basic statement, lowered once per schedule.

    ``branches`` holds ``(branch_index, [(stream, closure), ...])`` in
    source order; ``step_affs[s]`` / ``step_masks[s]`` hold, for wavefront
    ``s``, the precomputed ``(W, 1)`` index-expression value columns and
    the per-branch guard masks (``None`` for unconditional branches).
    ``read`` / ``written`` pair each stream the body reads / writes with
    its slot in the step's index row.  ``bound_fns`` holds every
    assignment again, lowered onto magnitude bounds (``_BOUND_OPS``).
    """

    __slots__ = (
        "branches", "bound_fns", "step_affs", "step_masks", "active", "read",
        "written", "int64_fits",
    )

    def __init__(self, schedule, body: Body) -> None:
        ops = _np_ops()
        env = schedule.env_of()
        order = schedule.indices

        affines: list = []
        affine_ix: dict = {}

        def note(affine) -> None:
            if affine not in affine_ix:
                affine_ix[affine] = len(affines)
                affines.append(affine)

        def walk(e: Expr) -> None:
            if isinstance(e, IndexExpr):
                note(e.affine)
            elif isinstance(e, BinOp):
                walk(e.left)
                walk(e.right)

        for branch in body.branches:
            if branch.condition is not None:
                note(branch.condition.affine)
            for a in branch.assigns:
                walk(a.expr)

        lowered = []
        for affine in affines:
            coeffs, const, den = lower_affine_int(affine, order, env)
            if den != 1:
                raise BackendUnsupportedError(
                    f"npgen cannot lower {affine} (fractional coefficients); "
                    "use the pygen backend"
                )
            lowered.append((_np.asarray(coeffs, dtype=_np.int64), const))

        self.branches = [
            (
                bi,
                [
                    (a.stream, _compile_expr(a.expr, affine_ix, ops))
                    for a in branch.assigns
                ],
            )
            for bi, branch in enumerate(body.branches)
        ]
        self.active = tuple(
            sorted(set(schedule.streams_read) | set(schedule.streams_written))
        )
        slot = schedule.streams.index
        self.read = tuple((name, slot(name)) for name in self.active)
        self.written = tuple((name, slot(name)) for name in schedule.streams_written)

        self.bound_fns = [
            (a.stream, _compile_expr(a.expr, affine_ix, _BOUND_OPS))
            for branch in body.branches
            for a in branch.assigns
        ]
        self.int64_fits: dict[int, bool] = {}
        self.step_affs = []
        self.step_masks = []
        for step in schedule.steps:
            aff = [
                (coeffs @ step.points + const)[:, None] for coeffs, const in lowered
            ]
            masks = []
            for branch in body.branches:
                if branch.condition is None:
                    masks.append(None)
                else:
                    test = RELATIONS[branch.condition.relation]
                    masks.append(test(aff[affine_ix[branch.condition.affine]]))
            self.step_affs.append(aff)
            self.step_masks.append(tuple(masks))

    def fits_int64(self, bits: int) -> bool:
        """Whether every value of a run on inputs below ``2**bits`` fits int64.

        Interval propagation of the basic statement over the steps: a
        stream's bound after a step is the larger of its bound before and
        the bound of each value the step may assign it.  Cached per ``bits``.
        """
        fits = self.int64_fits.get(bits)
        if fits is None:
            bounds = dict.fromkeys(self.active, (1 << bits) - 1)
            try:
                for aff in self.step_affs:
                    aff = [int(abs(a).max()) for a in aff]
                    for name, fn in self.bound_fns:
                        bounds[name] = max(bounds[name], abs(fn(bounds, aff)))
                fits = max(bounds.values()) <= _INT64_MAX
            except OverflowError:
                fits = False
            self.int64_fits[bits] = fits
        return fits


def _plan_for(schedule, body: Body) -> _BodyPlan:
    plan = schedule.runtime_cache.get("npgen_body_plan")
    if plan is None:
        plan = _BodyPlan(schedule, body)
        schedule.runtime_cache["npgen_body_plan"] = plan
    return plan


# ----------------------------------------------------------------------
# the dense buffer <-> checked input values and final contents
# ----------------------------------------------------------------------
def _pick_dtype(plan: _BodyPlan, batch_values) -> object:
    """``int64`` when the run provably stays in range, else exact ``object``."""
    rows = [row for values in batch_values for row in values.values()]
    if set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        magnitude = max(max(max(row), -min(row)) for row in rows)
        if plan.fits_int64(magnitude.bit_length()):
            return _np.int64
    return object


def _load(schedule, batch_values, dtype) -> object:
    """The ``(elements, B)`` buffer: column ``b`` holds batch entry ``b``'s
    variables back to back in layout order."""
    names = list(schedule.layouts)
    flat = _np.fromiter(
        itertools.chain.from_iterable(
            values[name] for values in batch_values for name in names
        ),
        dtype,
        count=len(batch_values) * schedule.elements,
    )
    return flat.reshape(len(batch_values), schedule.elements).T.copy()


def _unload(schedule, buf, b: int) -> dict:
    """Batch entry ``b``'s contents, keyed by plain tuples in layout order."""
    keys = schedule.runtime_cache.get("npgen_keys")
    if keys is None:
        keys = schedule.runtime_cache["npgen_keys"] = {
            name: tuple(
                itertools.product(
                    *(range(l, l + n) for l, n in zip(layout.lo, layout.shape))
                )
            )
            for name, layout in schedule.layouts.items()
        }
    # zip stops at the end of each variable's keys without taking a value,
    # so one iterator walks the column variable by variable.
    column = iter(buf[:, b].tolist())
    return {name: dict(zip(k, column)) for name, k in keys.items()}


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def _waves(schedule, plan: _BodyPlan, partition) -> list:
    """``(index row, width, index values, masks)`` per wave, in run order.

    Each wavefront step is cut into its tile bands' slabs, mirroring how a
    fixed ``p``-band array executes a wavefront -- one band at a time, band
    ``k`` computing only the columns whose leading place coordinate lies in
    ``[lead_edges[k], lead_edges[k+1] - 1]``.  An unbanded run
    (``partition`` is ``None``) is one band owning every column, and a band
    that owns a whole step reuses the step's arrays.  Bit-identical to the
    unbanded run: within one step the written-stream scatter indices are
    globally unique (the duplicate-write guard of the schedule builder), so
    no band can write an element another band of the same step reads.
    Cached in the schedule's ``runtime_cache`` per band-edge vector.
    """
    if partition is None:
        key, bands = "npgen_waves", [None]
    else:
        edges = partition.lead_edges
        key, bands = ("npgen_band_cols", edges), list(zip(edges, edges[1:]))
    waves = schedule.runtime_cache.get(key)
    if waves is not None:
        return waves
    n_streams = len(schedule.streams)
    waves = []
    for step, aff, masks in zip(schedule.steps, plan.step_affs, plan.step_masks):
        lead = step.cells[0]
        for band in bands:
            if band is None:
                width = step.width
            else:
                cols = _np.nonzero((lead >= band[0]) & (lead < band[1]))[0]
                width = cols.shape[0]
            if width == step.width:
                waves.append((step.rows, width, aff, masks))
            elif width:
                waves.append((
                    step.rows.reshape(n_streams, -1)[:, cols].ravel(),
                    width,
                    [a[cols] for a in aff],
                    [None if m is None else m[cols] for m in masks],
                ))
    schedule.runtime_cache[key] = waves
    return waves


def _run(plan: _BodyPlan, buf, waves) -> None:
    """Execute the waves in order on the ``(elements, B)`` buffer."""
    take = buf.take
    where = _np.where
    for rows, width, aff, masks in waves:
        values = take(rows, axis=0)
        cur = {
            name: values[k * width : (k + 1) * width] for name, k in plan.read
        }
        for bi, assigns in plan.branches:
            mask = masks[bi]
            for name, fn in assigns:
                new = fn(cur, aff)
                cur[name] = new if mask is None else where(mask, new, cur[name])
        for name, k in plan.written:
            buf[rows[k * width : (k + 1) * width]] = cur[name]


def execute_numpy_batch(
    sp: SystolicProgram,
    env: Mapping[str, Numeric],
    inputs_batch: Sequence,
    *,
    shape: tuple[int, ...] | None = None,
) -> list[dict]:
    """Run ``len(inputs_batch)`` independent executions in one pass.

    Each entry of ``inputs_batch`` is an ``inputs`` mapping as accepted by
    :func:`~repro.target.pygen.execute_python` (or ``None`` for zero
    fill); the result is the list of per-input final contents, each
    ``{variable: {tuple(element): value}}`` -- bit-identical to running
    the sequential oracle on every input set separately.

    ``shape`` folds the run onto a fixed ``p``-band (or ``p x q``) array:
    the fold (:func:`repro.extensions.partition.partitioned_schedule`,
    cached per design, shape and size) supplies the band edges, and at
    every wavefront step each band computes only the columns whose leading
    place coordinate it owns.  Only the edges are read, so the fold's
    wavefront binning never runs here.  The fold changes the execution
    order within a step, never the dataflow, so results are bit-identical
    to the unbanded run.
    """
    require_numpy("the npgen backend")
    from repro.analysis.wavefront import wavefront_schedule

    if not inputs_batch:
        raise CompilationError("execute_numpy_batch needs at least one input set")
    partition = None
    if shape is not None:
        from repro.extensions.partition import partitioned_schedule

        partition = partitioned_schedule(sp, env, shape)
    schedule = wavefront_schedule(sp, env)
    batch_values = [
        checked_values(sp.source, env, inputs) for inputs in inputs_batch
    ]
    plan = _plan_for(schedule, sp.source.body)
    buf = _load(schedule, batch_values, _pick_dtype(plan, batch_values))
    _run(plan, buf, _waves(schedule, plan, partition))
    return [_unload(schedule, buf, b) for b in range(len(batch_values))]


def schedule_cache_stats() -> dict:
    """Hit/miss/eviction counters of the shared wavefront-schedule cache."""
    from repro.analysis.wavefront import SCHEDULE_CACHE

    return SCHEDULE_CACHE.stats()
