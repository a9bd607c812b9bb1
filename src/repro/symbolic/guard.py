"""Guards: conjunctions of affine inequalities.

The guards in the paper's case analyses (e.g. ``0 <= row - col <= n`` in
Appendix E.2) are conjunctions of linear inequalities over the process-space
coordinates and the problem-size symbols.  A :class:`Constraint` is the
canonical form ``expr >= 0``; a :class:`Guard` is a finite conjunction.

Feasibility (used by the optional guard-pruning optimisation pass) reduces
to rational Fourier-Motzkin over the guard's free symbols; callers supply
standing *assumptions* such as ``n >= 1``.

Both classes are hash-consed (see :mod:`repro.symbolic`): a guard's
intern key is its order-preserving constraint tuple, so printing order is
stable, and the expensive queries (:meth:`Guard.feasible`,
:meth:`Guard.implies`, :meth:`Guard.simplify`) are memoized on the one
canonical instance -- the explorer asks the same questions about the same
guards across hundreds of candidate designs.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping
from weakref import WeakValueDictionary

from repro.geometry.polyhedron import canonical_int_row, feasible_int_rows
from repro.symbolic.affine import Affine, AffineLike, Numeric
from repro.profiling import counter
from repro.util.errors import GuardError

_MISSING = object()

_FEASIBLE_STATS = counter("guard_feasible_memo")
_IMPLIES_STATS = counter("guard_implies_memo")
_SIMPLIFY_STATS = counter("guard_simplify_memo")
_CFN_STATS = counter("guard_compiled_cache")


class Constraint:
    """The inequality ``expr >= 0`` for an affine ``expr``."""

    __slots__ = ("expr", "_hash", "_introw", "__weakref__")

    _intern: "WeakValueDictionary[Affine, Constraint]" = WeakValueDictionary()
    _stats = counter("constraint_intern")

    def __new__(cls, expr: AffineLike) -> "Constraint":
        e = Affine.lift(expr)
        stats = cls._stats
        self = cls._intern.get(e)
        if self is not None:
            stats.hits += 1
            return self
        stats.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "expr", e)
        object.__setattr__(self, "_hash", hash(("Constraint", e)))
        object.__setattr__(self, "_introw", {})
        cls._intern[e] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Constraint is immutable")

    def __reduce__(self):
        return (Constraint, (self.expr,))

    # -- constructors ---------------------------------------------------
    @staticmethod
    def ge(a: AffineLike, b: AffineLike) -> "Constraint":
        """a >= b"""
        return Constraint(Affine.lift(a) - Affine.lift(b))

    @staticmethod
    def le(a: AffineLike, b: AffineLike) -> "Constraint":
        """a <= b"""
        return Constraint(Affine.lift(b) - Affine.lift(a))

    # -- queries ---------------------------------------------------------
    @property
    def free_symbols(self) -> frozenset[str]:
        return self.expr.free_symbols

    @property
    def is_trivially_true(self) -> bool:
        return self.expr.is_constant and self.expr.const >= 0

    @property
    def is_trivially_false(self) -> bool:
        return self.expr.is_constant and self.expr.const < 0

    def evaluate(self, env: Mapping[str, Numeric]) -> bool:
        return self.expr.evaluate(env) >= 0

    def subs(self, mapping: Mapping[str, AffineLike]) -> "Constraint":
        return Constraint(self.expr.subs(mapping))

    def int_row(self, symbol_order: tuple[str, ...]) -> tuple[int, ...] | bool:
        """The canonical integer row over ``symbol_order`` (or a trivial
        truth value) -- see :func:`canonical_int_row`.

        Memoized on the hash-consed constraint: distinct guards share
        constraints constantly, and rebuilding the row from ``Fraction``
        coefficients is the single hottest step of feasibility checking.
        """
        row = self._introw.get(symbol_order)
        if row is None:
            expr = self.expr
            row = canonical_int_row(
                tuple(expr.coeff(s) for s in symbol_order) + (expr.const,)
            )
            self._introw[symbol_order] = row
        return row

    def negated_int_row(self, symbol_order: tuple[str, ...]) -> tuple[int, ...] | bool:
        """The canonical row of the integer negation ``-(l*expr) - 1 >= 0``,
        where ``l`` is the lcm of the denominators of ``expr``.

        ``l*expr`` is deliberately not divided by its gcd before the 1 is
        subtracted.  That integer tightening is sound and can prove more
        implications, so it would be a different test from the one the
        derived programs are pinned with.  Cached beside :meth:`int_row`
        under ``(None, symbol_order)``.
        """
        key = (None, symbol_order)
        row = self._introw.get(key)
        if row is None:
            expr = self.expr
            entries = tuple(expr.coeff(s) for s in symbol_order) + (expr.const,)
            lcm = math.lcm(*(e.denominator for e in entries))
            row = canonical_int_row(
                tuple(-lcm * e for e in entries[:-1]) + (-lcm * entries[-1] - 1,)
            )
            self._introw[key] = row
        return row

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        # type(self), not the global name: see Affine.__eq__ (teardown).
        return isinstance(other, type(self)) and self.expr == other.expr

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.expr} >= 0"

    def __repr__(self) -> str:
        return f"Constraint({self})"


class Guard:
    """A conjunction of constraints; ``Guard.TRUE`` is the empty conjunction."""

    __slots__ = ("constraints", "_hash", "_memo", "_cfn", "__weakref__")

    TRUE: "Guard"

    _intern: "WeakValueDictionary[tuple, Guard]" = WeakValueDictionary()
    _stats = counter("guard_intern")

    def __new__(cls, constraints: Iterable[Constraint] = ()) -> "Guard":
        # Deduplicate while preserving insertion order (stable printing); the
        # intern key is the ordered tuple so rendering never changes under
        # hash-consing even though __eq__ is order-insensitive.
        seen: dict[Constraint, None] = {}
        for c in constraints:
            if not isinstance(c, Constraint):
                raise GuardError(f"expected Constraint, got {c!r}")
            if not c.is_trivially_true:
                seen.setdefault(c, None)
        key = tuple(seen)
        stats = cls._stats
        self = cls._intern.get(key)
        if self is not None:
            stats.hits += 1
            return self
        stats.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "constraints", key)
        object.__setattr__(self, "_hash", hash(("Guard", frozenset(key))))
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_cfn", None)
        cls._intern[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Guard is immutable")

    def __reduce__(self):
        return (Guard, (self.constraints,))

    # -- combinators ------------------------------------------------------
    def and_(self, other: "Guard | Constraint") -> "Guard":
        if isinstance(other, Constraint):
            other = Guard([other])
        return Guard(self.constraints + other.constraints)

    def __and__(self, other: "Guard | Constraint") -> "Guard":
        return self.and_(other)

    # -- queries ----------------------------------------------------------
    @property
    def is_true(self) -> bool:
        return not self.constraints

    @property
    def is_trivially_false(self) -> bool:
        return any(c.is_trivially_false for c in self.constraints)

    @property
    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for c in self.constraints:
            out |= c.free_symbols
        return out

    def evaluate(self, env: Mapping[str, Numeric]) -> bool:
        fn = self._cfn
        if fn is None:
            from repro.symbolic.compile import compile_guard

            fn = compile_guard(self)
            object.__setattr__(self, "_cfn", fn)
            _CFN_STATS.misses += 1
        else:
            _CFN_STATS.hits += 1
        return fn(env)

    def subs(self, mapping: Mapping[str, AffineLike]) -> "Guard":
        return Guard(c.subs(mapping) for c in self.constraints)

    def _shape(self) -> tuple[frozenset, frozenset[str], tuple[str, ...]]:
        """``(conjunct set, free-symbol set, sorted free symbols)``, cached;
        the sorted symbols are the row order of every FM query."""
        found = self._memo.get(0)
        if found is None:
            symbols = self.free_symbols
            found = (frozenset(self.constraints), symbols, tuple(sorted(symbols)))
            self._memo[0] = found
        return found

    def _int_rows(self, symbols: tuple[str, ...]) -> tuple[tuple[int, ...], ...] | None:
        """The canonical integer rows of the conjuncts over ``symbols``
        (trivially true ones dropped); ``None`` if a conjunct is trivially
        false.  Cached per symbol order on the interned guard."""
        key = (0, symbols)
        found = self._memo.get(key, _MISSING)
        if found is _MISSING:
            rows = []
            for c in self.constraints:
                row = c.int_row(symbols)
                if row is False:
                    rows = None
                    break
                if row is not True:
                    rows.append(row)
            found = self._memo[key] = None if rows is None else tuple(rows)
        return found

    def feasible(self, assumptions: "Guard | None" = None) -> bool:
        """Exact rational feasibility of this guard (with assumptions).

        Sound for pruning: an infeasible guard can never hold for any
        integral assignment either.
        """
        key = (1, assumptions)
        found = self._memo.get(key, _MISSING)
        if found is not _MISSING:
            _FEASIBLE_STATS.hits += 1
            return found
        _FEASIBLE_STATS.misses += 1
        combined = self if assumptions is None else self.and_(assumptions)
        symbols = combined._shape()[2]
        rows = combined._int_rows(symbols)
        result = rows is not None and feasible_int_rows(rows, len(symbols))
        self._memo[key] = result
        return result

    def implies(self, c: Constraint) -> bool:
        """Sound implication test: ``self => c``.

        A guard implies ``e >= 0`` over the integers iff ``self /\\
        -(l*e) - 1 >= 0`` has no integer point, where ``l`` clears the
        denominators of ``e``; the rational relaxation of that system is
        decided on the guard's cached integer rows plus the constraint's
        cached negated row.  A conjunct of the guard is implied outright:
        ``c /\\ -(l*c) - 1 >= 0`` is always infeasible, so Fourier-Motzkin
        would only confirm it.
        """
        key = (2, c)
        found = self._memo.get(key, _MISSING)
        if found is not _MISSING:
            _IMPLIES_STATS.hits += 1
            return found
        _IMPLIES_STATS.misses += 1
        conjuncts, symbols, order = self._shape()
        result = True
        if c not in conjuncts:
            if not symbols.issuperset(c.expr.coeffs):
                order = tuple(sorted(symbols | c.free_symbols))
            rows = self._int_rows(order)
            if rows is not None:  # an infeasible guard implies everything
                negation = c.negated_int_row(order)
                if negation is not False:  # a trivially true c is implied
                    if negation is not True:
                        rows += (negation,)
                    result = not feasible_int_rows(rows, len(order))
        self._memo[key] = result
        return result

    def simplify(self, assumptions: "Guard | None" = None) -> "Guard":
        """Drop constraints already implied by the standing assumptions.

        Sound: the simplified guard is equivalent to the original wherever
        the assumptions hold.  This is the mechanical counterpart of the
        paper dropping e.g. ``0 <= 2*n`` when ``n >= 0`` is given.
        """
        if assumptions is None or assumptions.is_true:
            return self
        key = (3, assumptions)
        found = self._memo.get(key, _MISSING)
        if found is not _MISSING:
            _SIMPLIFY_STATS.hits += 1
            return found
        _SIMPLIFY_STATS.misses += 1
        kept = [
            c for c in self.constraints if not assumptions.implies(c)
        ]
        result = Guard(kept)
        self._memo[key] = result
        return result

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, type(self)) and set(self.constraints) == set(
            other.constraints
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.is_true:
            return "true"
        return "  /\\  ".join(str(c) for c in self.constraints)

    def __repr__(self) -> str:
        return f"Guard({self})"


Guard.TRUE = Guard()


def interval(lo: AffineLike, mid: AffineLike, hi: AffineLike) -> Guard:
    """The paper's pervasive two-sided guard ``lo <= mid <= hi``."""
    return Guard([Constraint.ge(mid, lo), Constraint.le(mid, hi)])
