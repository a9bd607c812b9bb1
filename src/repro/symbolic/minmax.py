"""Min/max combinations of affine expressions: piecewise-affine bounds.

Loop bounds in the accepted source language may be ``min``/``max`` of
affine expressions in the size symbols (e.g. ``for i = max(0, n - m) <- 1
-> min(n, 2*m)``).  An :class:`Extremum` is such a term.  The structural
restriction that keeps every downstream derivation *conjunctive* is:

* a **lower** bound is a plain :class:`Affine` or a ``max`` form, so
  ``e >= max(a, b)`` expands to the conjunction ``e >= a  and  e >= b``;
* an **upper** bound is a plain :class:`Affine` or a ``min`` form, so
  ``e <= min(c, d)`` expands to ``e <= c  and  e <= d``.

Only at *bound-pinning* sites (the face solutions of
:mod:`repro.core.firstlast` and the i/o endpoints of
:mod:`repro.core.io_comm`, where a bound's *value* enters an affine
solution) does an extremum force a case split; :func:`bound_alternatives`
produces the selector guards for that split.

The arithmetic stays exact and closed over the two kinds:

* ``min``s add pairwise (``min_i x_i + min_j y_j = min_{i,j}(x_i+y_j)``),
  likewise ``max``;
* scaling by a negative constant flips the kind
  (``-min(a, b) = max(-a, -b)``).

Instances are hash-consed like :class:`Affine`: the smart constructor
:func:`extremum` flattens, dedupes, folds constant-offset redundancy and
sorts arguments into a canonical rendering order, so structurally equal
terms are the same object and ``str()`` is byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union
from weakref import WeakValueDictionary

from repro.symbolic.affine import Affine, AffineLike, Numeric, register_vec_passthrough
from repro.symbolic.guard import Constraint
from repro.profiling import counter
from repro.util.errors import SymbolicError

#: Anything accepted where a loop/variable bound is expected.
Bound = Union["Extremum", Affine]
BoundLike = Union["Extremum", Affine, int, Fraction]


class Extremum:
    """An immutable, hash-consed ``min``/``max`` of >= 2 affine arguments.

    Do not call the constructor directly -- use :func:`extremum` (or the
    :meth:`min_of` / :meth:`max_of` helpers), which normalizes and may
    collapse to a plain :class:`Affine`.
    """

    __slots__ = ("kind", "args", "_hash", "__weakref__")

    _intern: "WeakValueDictionary[tuple, Extremum]" = WeakValueDictionary()
    _stats = counter("extremum_intern")

    def __new__(cls, kind: str, args: tuple[Affine, ...]) -> "Extremum":
        key = (kind, args)
        stats = cls._stats
        self = cls._intern.get(key)
        if self is not None:
            stats.hits += 1
            return self
        stats.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(key))
        cls._intern[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Extremum is immutable")

    def __reduce__(self):
        # Re-intern through the smart constructor on unpickle.
        return (extremum, (self.kind, self.args))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        # Normalization folds all-constant argument lists to an Affine,
        # so a live Extremum always has a symbolic argument.
        return False

    @property
    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.free_symbols
        return out

    # ------------------------------------------------------------------
    # arithmetic (closed over the kind)
    # ------------------------------------------------------------------
    def __add__(self, other: BoundLike) -> "Bound":
        if isinstance(other, Extremum):
            if other.kind != self.kind:
                raise SymbolicError(
                    f"cannot add {self.kind} and {other.kind} forms: "
                    f"({self}) + ({other})"
                )
            # min_i x_i + min_j y_j = min_{i,j} (x_i + y_j); same for max.
            return extremum(
                self.kind, [a + b for a in self.args for b in other.args]
            )
        o = Affine.lift(other)
        return extremum(self.kind, [a + o for a in self.args])

    __radd__ = __add__

    def __sub__(self, other: BoundLike) -> "Bound":
        return self + (-_as_bound(other))

    def __rsub__(self, other: BoundLike) -> "Bound":
        return (-self) + _as_bound(other)

    def __neg__(self) -> "Extremum":
        return extremum(_flip(self.kind), [-a for a in self.args])

    def __mul__(self, other: AffineLike) -> "Bound":
        k = Affine.lift(other)
        if not k.is_constant:
            raise SymbolicError(f"non-affine product: ({self}) * ({k})")
        c = k.const
        if c == 0:
            return Affine.constant(0)
        kind = self.kind if c > 0 else _flip(self.kind)
        return extremum(kind, [a * c for a in self.args])

    __rmul__ = __mul__

    def __truediv__(self, other: AffineLike) -> "Bound":
        k = Affine.lift(other)
        if not k.is_constant or k.const == 0:
            raise SymbolicError(f"bad division: ({self}) / ({k})")
        return self * (Fraction(1) / k.const)

    # ------------------------------------------------------------------
    # substitution / evaluation
    # ------------------------------------------------------------------
    def subs(self, mapping: Mapping[str, AffineLike]) -> "Bound":
        return extremum(self.kind, [a.subs(mapping) for a in self.args])

    def evaluate(self, env: Mapping[str, Numeric]) -> Numeric:
        pick = min if self.kind == "min" else max
        return pick(a.evaluate(env) for a in self.args)

    def evaluate_int(self, env: Mapping[str, Numeric]) -> int:
        v = self.evaluate(env)
        if type(v) is not int:
            raise SymbolicError(
                f"{self} evaluates to non-integer {v} under {dict(env)}"
            )
        return v

    # ------------------------------------------------------------------
    # comparison / display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, type(self)):
            return self.kind == other.kind and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.kind}({', '.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"Extremum({self})"


register_vec_passthrough(Extremum)


def _flip(kind: str) -> str:
    return "max" if kind == "min" else "min"


def _as_bound(value: BoundLike) -> Bound:
    if isinstance(value, Extremum):
        return value
    return Affine.lift(value)


#: Public lifting helper: Extremum passes through, everything else via
#: :meth:`Affine.lift`.
as_bound = _as_bound


def extremum(kind: str, args: Iterable[BoundLike]) -> Bound:
    """Normalizing constructor: flatten, dedupe, fold, sort, intern.

    Collapses to a plain :class:`Affine` whenever only one argument
    survives normalization (including the all-constant case).
    """
    if kind not in ("min", "max"):
        raise SymbolicError(f"extremum kind must be 'min' or 'max', got {kind!r}")
    flat: list[Affine] = []
    for raw in args:
        b = _as_bound(raw)
        if isinstance(b, Extremum):
            if b.kind != kind:
                raise SymbolicError(
                    f"cannot nest a {b.kind} form inside a {kind} form: {b}"
                )
            flat.extend(b.args)
        else:
            flat.append(b)
    if not flat:
        raise SymbolicError(f"{kind}() needs at least one argument")
    # Drop arguments dominated by another with a constant offset:
    # min(a, a + 2) = a, and fold constants against each other.
    keep: list[Affine] = []
    for cand in flat:
        dominated = False
        for i, prior in enumerate(keep):
            diff = cand - prior
            if not diff.is_constant:
                continue
            better = diff.const < 0 if kind == "min" else diff.const > 0
            if better:
                keep[i] = cand
            dominated = True
            break
        if not dominated:
            keep.append(cand)
    if len(keep) == 1:
        return keep[0]
    keep.sort(key=str)
    return Extremum(kind, tuple(keep))


def min_of(*args: BoundLike) -> Bound:
    return extremum("min", args)


def max_of(*args: BoundLike) -> Bound:
    return extremum("max", args)


# ----------------------------------------------------------------------
# constraint expansion (the conjunctive lowering)
# ----------------------------------------------------------------------

def bound_args(bound: BoundLike) -> tuple[Affine, ...]:
    """The affine alternatives of a bound (singleton for a plain affine)."""
    b = _as_bound(bound)
    if isinstance(b, Extremum):
        return b.args
    return (b,)


def check_bound_kind(bound: Bound, kind: str, what: str) -> None:
    """Enforce the lower=max / upper=min structural restriction."""
    if isinstance(bound, Extremum) and bound.kind != kind:
        raise SymbolicError(
            f"{what} must be a plain affine or a {kind} form, got {bound}"
        )


def lower_bound_constraints(expr: AffineLike, bound: BoundLike) -> tuple[Constraint, ...]:
    """``expr >= bound`` as a conjunction (bound plain or max-form)."""
    b = _as_bound(bound)
    check_bound_kind(b, "max", "a lower bound")
    return tuple(Constraint.ge(expr, a) for a in bound_args(b))


def upper_bound_constraints(expr: AffineLike, bound: BoundLike) -> tuple[Constraint, ...]:
    """``expr <= bound`` as a conjunction (bound plain or min-form)."""
    b = _as_bound(bound)
    check_bound_kind(b, "min", "an upper bound")
    return tuple(Constraint.le(expr, a) for a in bound_args(b))


def bound_le_constraints(lo: BoundLike, hi: BoundLike) -> tuple[Constraint, ...]:
    """``lo <= hi`` as a conjunction (lo plain/max-form, hi plain/min-form)."""
    lo_b, hi_b = _as_bound(lo), _as_bound(hi)
    check_bound_kind(lo_b, "max", "a lower bound")
    check_bound_kind(hi_b, "min", "an upper bound")
    return tuple(
        Constraint.le(a, b) for a in bound_args(lo_b) for b in bound_args(hi_b)
    )


def bound_alternatives(bound: BoundLike) -> tuple[tuple[tuple[Constraint, ...], Affine], ...]:
    """Case-split a bound into ``(selector constraints, affine value)`` pairs.

    For ``max(a, b)`` the alternatives are ``(a >= b, a)`` and
    ``(b >= a, b)``; for ``min`` the comparisons flip.  The selector
    guards jointly cover all of parameter space (ties satisfy both and
    the values agree there), so a pinning derivation that splits on them
    needs no null default.  A plain affine yields the single alternative
    with no selector.
    """
    b = _as_bound(bound)
    if not isinstance(b, Extremum):
        return (((), b),)
    out = []
    for value in b.args:
        if b.kind == "max":
            sel = tuple(
                Constraint.ge(value, other) for other in b.args if other is not value
            )
        else:
            sel = tuple(
                Constraint.le(value, other) for other in b.args if other is not value
            )
        out.append((sel, value))
    return tuple(out)


def render_bound(bound: BoundLike, render_affine) -> str:
    """Render a bound as Python source via ``render_affine`` (an
    ``Affine -> str`` renderer); extremum forms become the ``min``/``max``
    builtins so the generated module needs no runtime support."""
    b = _as_bound(bound)
    if not isinstance(b, Extremum):
        return render_affine(b)
    inner = ", ".join(render_affine(a) for a in b.args)
    return f"{b.kind}({inner})"
