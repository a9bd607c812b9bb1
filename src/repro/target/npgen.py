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
:mod:`repro.analysis.wavefront`: for each logical time step, **gather**
the current element of every stream through the precomputed integer index
maps (the affine maps ``M . x`` lowered by
:func:`repro.symbolic.compile.lower_affine_int`), apply the basic
statement **once** as vectorized ufuncs over the whole wavefront (guards
become boolean masks, index expressions become precomputed integer
arrays), and **scatter** the written streams back.  Soak/drain phases and
``PS \\ CS`` pass-through processes move values without changing them, so
on the dense variable arrays they are the identity and vanish entirely --
the array *is* the pipe contents at every instant.

A leading **batch axis** amortizes one schedule across ``B`` independent
input sets (:func:`execute_numpy_batch`): the gather/scatter maps and
masks are shape ``(W,)`` and broadcast against value arrays of shape
``(B, W)``, so batching costs one extra array dimension, not another
pass.

Values are lowered to ``int64`` when a magnitude bound on every value
the run can produce (interval propagation of the basic statement over the
schedule's steps) fits in it, and to exact ``object`` arrays otherwise, so
results never wrap.  Inputs come from
:func:`~repro.lang.interpreter.initial_state` already in each variable's
row-major layout order, so loading and unloading a variable is one
``fromiter`` and one ``zip``.  Programs outside the backend's value
domain -- fractional constants or index-expression coefficients -- raise
:class:`~repro.util.errors.BackendUnsupportedError` so callers can fall
back to pygen.  NumPy itself is an optional extra (``pip install
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
from repro.lang.interpreter import initial_state
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

    ``cur`` maps stream names to their gathered current values,
    ``aff`` is the list of precomputed index-expression arrays of the
    wavefront being executed.
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
    ``s``, the precomputed index-expression value arrays and the per-branch
    guard masks (``None`` for unconditional branches).  ``bound_fns`` holds
    every assignment again, lowered onto magnitude bounds (``_BOUND_OPS``).
    """

    __slots__ = (
        "branches", "bound_fns", "step_affs", "step_masks", "active", "int64_fits"
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

        self.bound_fns = [
            (a.stream, _compile_expr(a.expr, affine_ix, _BOUND_OPS))
            for branch in body.branches
            for a in branch.assigns
        ]
        self.int64_fits: dict[int, bool] = {}
        self.step_affs = []
        self.step_masks = []
        for step in schedule.steps:
            aff = [coeffs @ step.points + const for coeffs, const in lowered]
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
# dense storage <-> interpreter variable states
# ----------------------------------------------------------------------
def _pick_dtype(plan: _BodyPlan, dense_states) -> object:
    """``int64`` when the run provably stays in range, else exact ``object``."""
    rows = [values.values() for state in dense_states for values in state.values()]
    if set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        magnitude = max(max(max(row), -min(row)) for row in rows)
        if plan.fits_int64(magnitude.bit_length()):
            return _np.int64
    return object


def _states_to_arrays(schedule, dense_states, dtype) -> dict:
    """Load each variable's rows; ``initial_state`` yields them in layout order."""
    batch = len(dense_states)
    return {
        name: _np.fromiter(
            itertools.chain.from_iterable(s[name].values() for s in dense_states),
            dtype,
            count=batch * layout.size,
        ).reshape(batch, layout.size)
        for name, layout in schedule.layouts.items()
    }


def _arrays_to_state(schedule, arrays, b: int) -> dict:
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
    return {name: dict(zip(k, arrays[name][b].tolist())) for name, k in keys.items()}


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def _run(schedule, plan: _BodyPlan, arrays: dict, waves) -> None:
    """Execute ``(gather, index values, masks)`` waves in order."""
    written = schedule.streams_written
    active = plan.active
    where = _np.where
    for gather, aff, masks in waves:
        cur = {name: arrays[name][:, gather[name]] for name in active}
        for bi, assigns in plan.branches:
            mask = masks[bi]
            for name, fn in assigns:
                new = fn(cur, aff)
                cur[name] = new if mask is None else where(mask, new, cur[name])
        for name in written:
            arrays[name][:, gather[name]] = cur[name]


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
    the symbolic partition (:func:`repro.extensions.partition.compile_partition`,
    memoized per design + shape) is specialized to ``env`` and at every
    wavefront step each tile band computes only the columns whose leading
    place coordinate it owns.  The fold changes the execution order within
    a step, never the dataflow, so results are bit-identical to the
    unbanded run.
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
    dense_states = [
        initial_state(sp.source, env, inputs) for inputs in inputs_batch
    ]
    plan = _plan_for(schedule, sp.source.body)
    arrays = _states_to_arrays(schedule, dense_states, _pick_dtype(plan, dense_states))
    if partition is None:
        waves = zip(
            (step.gather for step in schedule.steps), plan.step_affs, plan.step_masks
        )
    else:
        waves = _band_waves(schedule, plan, partition)
    _run(schedule, plan, arrays, waves)
    return [_arrays_to_state(schedule, arrays, b) for b in range(len(dense_states))]


def _band_waves(schedule, plan: _BodyPlan, partition) -> list:
    """The banded (LSGP) waves: each step cut into its tile bands' slabs.

    Mirrors how a fixed ``p``-band array executes a wavefront -- one band
    at a time, each computing only the columns whose leading place
    coordinate it owns.  Bit-identical to the unbanded run: within one step
    the written-stream scatter indices are globally unique (the
    duplicate-write guard of the schedule builder), so no band can write an
    element another band of the same step reads.  Cached in the schedule's
    ``runtime_cache`` per band-edge vector.
    """
    key = ("npgen_band_cols", partition.lead_edges)
    waves = schedule.runtime_cache.get(key)
    if waves is None:
        waves = []
        for step, aff, masks in zip(schedule.steps, plan.step_affs, plan.step_masks):
            lead = step.cells[0]
            for band in partition.bands:
                cols = _np.nonzero((lead >= band.lo) & (lead <= band.hi))[0]
                if cols.shape[0]:
                    waves.append((
                        {name: g[cols] for name, g in step.gather.items()},
                        [a[cols] for a in aff],
                        [None if m is None else m[cols] for m in masks],
                    ))
        schedule.runtime_cache[key] = waves
    return waves


def schedule_cache_stats() -> dict:
    """Hit/miss/eviction counters of the shared wavefront-schedule cache."""
    from repro.analysis.wavefront import SCHEDULE_CACHE

    return SCHEDULE_CACHE.stats()
