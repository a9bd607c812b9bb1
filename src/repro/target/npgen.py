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

Values are lowered to ``int64`` by default (bit-exact for every test and
benchmark workload; pass ``dtype=object`` for arbitrary-precision exact
arithmetic at reduced speed).  Programs outside the backend's value
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
from repro.lang.expr import BinOp, Body, Const, Expr, IndexExpr, StreamRead
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


_RELATION_TESTS = {
    "==": lambda v: v == 0,
    "!=": lambda v: v != 0,
    "<=": lambda v: v <= 0,
    "<": lambda v: v < 0,
    ">=": lambda v: v >= 0,
    ">": lambda v: v > 0,
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


class _BodyPlan:
    """The basic statement, lowered once per schedule.

    ``branches`` holds ``(branch_index, [(stream, closure), ...])`` in
    source order; ``step_affs[s]`` / ``step_masks[s]`` hold, for wavefront
    ``s``, the precomputed index-expression value arrays and the per-branch
    guard masks (``None`` for unconditional branches).
    """

    __slots__ = ("branches", "step_affs", "step_masks", "active")

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

        self.step_affs = []
        self.step_masks = []
        for step in schedule.steps:
            aff = [coeffs @ step.points + const for coeffs, const in lowered]
            masks = []
            for branch in body.branches:
                if branch.condition is None:
                    masks.append(None)
                else:
                    test = _RELATION_TESTS[branch.condition.relation]
                    masks.append(test(aff[affine_ix[branch.condition.affine]]))
            self.step_affs.append(aff)
            self.step_masks.append(tuple(masks))


def _plan_for(schedule, body: Body) -> _BodyPlan:
    plan = schedule.runtime_cache.get("npgen_body_plan")
    if plan is None:
        plan = _BodyPlan(schedule, body)
        schedule.runtime_cache["npgen_body_plan"] = plan
    return plan


# ----------------------------------------------------------------------
# dense storage <-> interpreter variable states
# ----------------------------------------------------------------------
def _pick_dtype(dense_states: Sequence[Mapping]) -> object:
    for state in dense_states:
        for values in state.values():
            for v in values.values():
                if isinstance(v, bool) or not isinstance(v, int):
                    return object
    return _np.int64


def _states_to_arrays(schedule, dense_states, dtype) -> dict:
    arrays = {}
    for name, layout in schedule.layouts.items():
        arr = _np.zeros((len(dense_states), layout.size), dtype=dtype)
        lo, strides = layout.lo, layout.strides
        for b, state in enumerate(dense_states):
            buf = arr[b]
            for p, v in state[name].items():
                i = 0
                for c, l, s in zip(p, lo, strides):
                    i += (int(c) - l) * s
                buf[i] = v
        arrays[name] = arr
    return arrays


def _arrays_to_state(schedule, arrays, b: int, exact: bool) -> dict:
    out = {}
    for name, layout in schedule.layouts.items():
        buf = arrays[name][b]
        ranges = [
            range(l, l + n) for l, n in zip(layout.lo, layout.shape)
        ]
        values = {}
        i = 0
        for point in itertools.product(*ranges):
            v = buf[i]
            values[point] = v if exact else int(v)
            i += 1
        out[name] = values
    return out


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def _run(schedule, plan: _BodyPlan, arrays: dict) -> None:
    written = schedule.streams_written
    active = plan.active
    where = _np.where
    for step, aff, masks in zip(schedule.steps, plan.step_affs, plan.step_masks):
        gather = step.gather
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
    dtype=None,
    use_cache: bool = True,
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

        partition = partitioned_schedule(sp, env, shape, use_cache=use_cache)
    schedule = wavefront_schedule(sp, env, use_cache=use_cache)
    dense_states = [
        initial_state(sp.source, env, inputs) for inputs in inputs_batch
    ]
    if dtype is None:
        dtype = _pick_dtype(dense_states)
    plan = _plan_for(schedule, sp.source.body)
    arrays = _states_to_arrays(schedule, dense_states, dtype)
    if partition is None:
        _run(schedule, plan, arrays)
    else:
        _run_banded(schedule, plan, arrays, _banded_cols(schedule, partition))
    exact = dtype is object
    return [
        _arrays_to_state(schedule, arrays, b, exact)
        for b in range(len(dense_states))
    ]


def _banded_cols(schedule, partition):
    """Per step, the wavefront columns each tile band owns.

    A list (one entry per step) of ``(band index, column index array)``
    pairs, restricted to non-empty bands; cached in the schedule's
    ``runtime_cache`` per band-edge vector so repeated banded runs at one
    shape reuse the slicing.
    """
    key = ("npgen_band_cols", partition.lead_edges)
    cached = schedule.runtime_cache.get(key)
    if cached is None:
        cached = []
        for step in schedule.steps:
            lead = step.cells[0]
            per = []
            for band in partition.bands:
                cols = _np.nonzero((lead >= band.lo) & (lead <= band.hi))[0]
                if cols.shape[0]:
                    per.append((band.index, cols))
            cached.append(tuple(per))
        cached = tuple(cached)
        schedule.runtime_cache[key] = cached
    return cached


def _run_banded(schedule, plan: _BodyPlan, arrays: dict, band_cols) -> None:
    """Banded (LSGP) variant of :func:`_run`: one band at a time per step.

    Mirrors how a fixed ``p``-band array executes a wavefront -- each band
    computes only its own slab of columns.  Bit-identical to the unbounded
    run: within one step the written-stream scatter indices are globally
    unique (the duplicate-write guard of the schedule builder), so no band
    can write an element another band of the same step reads.
    """
    written = schedule.streams_written
    active = plan.active
    where = _np.where
    for step, aff, masks, bands in zip(
        schedule.steps, plan.step_affs, plan.step_masks, band_cols
    ):
        gather = step.gather
        for _band_index, cols in bands:
            g = {name: gather[name][cols] for name in active}
            cur = {name: arrays[name][:, g[name]] for name in active}
            aff_band = [a[cols] for a in aff]
            for bi, assigns in plan.branches:
                mask = masks[bi]
                band_mask = None if mask is None else mask[cols]
                for name, fn in assigns:
                    new = fn(cur, aff_band)
                    cur[name] = (
                        new if band_mask is None else where(band_mask, new, cur[name])
                    )
            for name in written:
                arrays[name][:, g[name]] = cur[name]


def schedule_cache_stats() -> dict:
    """Hit/miss/eviction counters of the shared wavefront-schedule cache."""
    from repro.analysis.wavefront import SCHEDULE_CACHE

    return SCHEDULE_CACHE.stats()
