"""Piecewise values: the paper's ``if G0 -> e0 [] G1 -> e1 ... fi``.

A :class:`Piecewise` is an ordered list of :class:`Case` (guard, value)
pairs plus an optional default value (the paper's ``else -> null``
alternative, used for null processes and null communications).

Guarded-command semantics: evaluation picks *a* case whose guard holds.  The
scheme only ever produces case analyses whose overlapping alternatives agree
(the paper notes this explicitly for ``col = n`` in Appendix D.2), and
:meth:`Piecewise.check_overlaps_agree` verifies it on concrete instances.
Values may be affine expressions, affine vectors, nested piecewise values
(Appendix E.2.5's soak/drain code), or ``None`` for the paper's ``null``.

Both classes are hash-consed (see :mod:`repro.symbolic`), evaluation
routes through a compiled flat closure cached on the canonical instance
(:mod:`repro.symbolic.compile`), and :meth:`simplify`/:meth:`prune`/
:meth:`subs` are memoized on the interned identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence
from weakref import WeakValueDictionary

from repro.symbolic.affine import Affine, AffineLike, AffineVec, Numeric
from repro.symbolic.guard import Guard
from repro.profiling import counter
from repro.util.errors import SymbolicError

Value = Any  # Affine | AffineVec | Piecewise | None

_MISSING = object()

_SIMPLIFY_STATS = counter("piecewise_simplify_memo")
_PRUNE_STATS = counter("piecewise_prune_memo")
_SUBS_STATS = counter("piecewise_subs_memo")
_CFN_STATS = counter("piecewise_compiled_cache")


def _value_intern_key(value: Value):
    """Order-sensitive intern-key component for a case/default value.

    ``Guard`` and ``Piecewise`` equality deliberately ignores constraint and
    alternative *order*, but rendering does not.  Intern keys built from
    ``__eq__``/``__hash__`` would therefore silently canonicalize an
    order-variant to whichever ordering was interned first, changing how
    downstream forms print.  Interned values are keyed by identity instead
    (their own interning is order-sensitive, so structurally identical
    values in identical order share an id); ``AffineVec`` by the identity
    of its interned elements.  May return an unhashable object for exotic
    values -- callers catch ``TypeError`` and skip interning.
    """
    if value is None:
        return None
    tp = type(value)
    if tp is Affine or tp is Piecewise:
        return (tp.__name__, id(value))
    if tp is AffineVec:
        return ("AffineVec",) + tuple(map(id, value))
    return value


class Case:
    """One guarded alternative ``guard -> value`` (immutable, hash-consed).

    Values are usually hashable (:class:`Affine`, :class:`AffineVec`,
    :class:`Piecewise`, ``None``); a case over an unhashable value is
    simply not interned.
    """

    __slots__ = ("guard", "value", "_hash", "__weakref__")

    _intern: "WeakValueDictionary[tuple, Case]" = WeakValueDictionary()
    _stats = counter("case_intern")

    def __new__(cls, guard: Guard, value: Value = None) -> "Case":
        stats = cls._stats
        # Intern on the identity of the (order-sensitively interned) guard,
        # not on guard equality, which ignores constraint order -- see
        # _value_intern_key.  The instance holds a strong reference to both
        # key components, so their ids stay valid while the entry lives.
        try:
            key = (id(guard), _value_intern_key(value))
            self = cls._intern.get(key)
        except TypeError:
            key = None
            self = None
        if self is not None:
            stats.hits += 1
            return self
        stats.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "value", value)
        try:
            h = hash((guard, value))
        except TypeError:
            h = None
            key = None
        object.__setattr__(self, "_hash", h)
        if key is not None:
            cls._intern[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Case is immutable")

    def __reduce__(self):
        return (Case, (self.guard, self.value))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        # type(self), not the global name: see Affine.__eq__ (teardown).
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.guard == other.guard and self.value == other.value

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            raise TypeError(f"unhashable case value: {self.value!r}")
        return h

    def __str__(self) -> str:
        return f"{self.guard}  ->  {self.value}"

    def __repr__(self) -> str:
        return f"Case(guard={self.guard!r}, value={self.value!r})"


def _subs_value(value: Value, mapping: Mapping[str, AffineLike]) -> Value:
    if value is None:
        return None
    if isinstance(value, (Affine, AffineVec, Piecewise)):
        return value.subs(mapping)
    raise SymbolicError(f"cannot substitute into {value!r}")


def _evaluate_value(value: Value, env: Mapping[str, Numeric]) -> Any:
    if value is None:
        return None
    if isinstance(value, (Affine, AffineVec, Piecewise)):
        return value.evaluate(env)
    raise SymbolicError(f"cannot evaluate {value!r}")


def _rebuild_piecewise(cases, default, has_default):
    """Pickle helper: ``has_default`` is keyword-only in the constructor."""
    return Piecewise(cases, default, has_default=has_default)


class Piecewise:
    """An immutable, hash-consed guarded case analysis with an optional
    default."""

    __slots__ = (
        "cases", "default", "has_default", "_hash", "_memo", "_cfn", "_anyfn",
        "__weakref__",
    )

    _intern: "WeakValueDictionary[tuple, Piecewise]" = WeakValueDictionary()
    _stats = counter("piecewise_intern")

    def __new__(
        cls,
        cases: Iterable[Case],
        default: Value = None,
        *,
        has_default: bool = False,
    ) -> "Piecewise":
        case_list = tuple(cases)
        for c in case_list:
            if not isinstance(c, Case):
                raise SymbolicError(f"expected Case, got {c!r}")
        has_default = bool(has_default)
        default = default if has_default else None
        stats = cls._stats
        # Cases are interned order-sensitively, so identity per alternative
        # keys the exact ordered structure (Case equality would not: its
        # guards compare order-insensitively).  See _value_intern_key.
        try:
            key = (
                tuple(map(id, case_list)),
                _value_intern_key(default),
                has_default,
            )
            self = cls._intern.get(key)
        except TypeError:
            key = None
            self = None
        if self is not None:
            stats.hits += 1
            return self
        stats.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "cases", case_list)
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "has_default", has_default)
        object.__setattr__(self, "_hash", hash(("Piecewise", case_list, has_default)))
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_cfn", None)
        object.__setattr__(self, "_anyfn", None)
        if key is not None:
            cls._intern[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Piecewise is immutable")

    def __reduce__(self):
        return (_rebuild_piecewise, (self.cases, self.default, self.has_default))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def single(value: Value) -> "Piecewise":
        """A case analysis with one unconditional alternative."""
        return Piecewise([Case(Guard.TRUE, value)])

    @staticmethod
    def with_null_default(cases: Iterable[Case]) -> "Piecewise":
        """The paper's ``else -> null`` form (null process / communication)."""
        return Piecewise(cases, default=None, has_default=True)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for c in self.cases:
            out |= c.guard.free_symbols
            if isinstance(c.value, (Affine, AffineVec, Piecewise)):
                out |= c.value.free_symbols
        if self.has_default and isinstance(
            self.default, (Affine, AffineVec, Piecewise)
        ):
            out |= self.default.free_symbols
        return out

    def map_values(self, fn: Callable[[Value], Value]) -> "Piecewise":
        """Apply ``fn`` to every leaf value (recursing through nesting)."""
        def rec(value: Value) -> Value:
            if isinstance(value, Piecewise):
                return value.map_values(fn)
            return fn(value)

        return Piecewise(
            (Case(c.guard, rec(c.value)) for c in self.cases),
            default=rec(self.default) if self.has_default else None,
            has_default=self.has_default,
        )

    # ------------------------------------------------------------------
    # substitution / evaluation
    # ------------------------------------------------------------------
    def subs(self, mapping: Mapping[str, AffineLike]) -> "Piecewise":
        try:
            key = (4, tuple(sorted(mapping.items())))
        except TypeError:
            key = None
        if key is not None:
            found = self._memo.get(key, _MISSING)
            if found is not _MISSING:
                _SUBS_STATS.hits += 1
                return found
            _SUBS_STATS.misses += 1
        result = Piecewise(
            (Case(c.guard.subs(mapping), _subs_value(c.value, mapping)) for c in self.cases),
            default=_subs_value(self.default, mapping) if self.has_default else None,
            has_default=self.has_default,
        )
        if key is not None:
            self._memo[key] = result
        return result

    def matching_cases(self, env: Mapping[str, Numeric]) -> list[Case]:
        """All alternatives whose guard holds under ``env``."""
        return [c for c in self.cases if c.guard.evaluate(env)]

    def any_case_holds(self, env: Mapping[str, Numeric]) -> bool:
        """True iff some alternative's guard holds (compiled fast path).

        Equivalent to ``bool(self.matching_cases(env))`` without building
        the list -- this is the computation-space membership test the
        explorer runs for every point of every candidate design.
        """
        fn = self._anyfn
        if fn is None:
            from repro.symbolic.compile import compile_any_case

            fn = compile_any_case(self)
            object.__setattr__(self, "_anyfn", fn)
            _CFN_STATS.misses += 1
        else:
            _CFN_STATS.hits += 1
        return fn(env)

    def evaluate(self, env: Mapping[str, Numeric]) -> Any:
        """Evaluate under guarded-command semantics.

        Picks the first alternative whose guard holds; falls back to the
        default when no guard holds and a default exists, and raises
        otherwise (the paper's ``if .. fi`` aborts when no guard holds).

        Runs through a flat compiled closure cached on this (interned)
        instance; the interpretive walk remains as the fallback for leaf
        values the compiler does not know.
        """
        fn = self._cfn
        if fn is None:
            from repro.symbolic.compile import compile_piecewise

            fn = compile_piecewise(self)
            if fn is None:
                fn = self._evaluate_interp
            object.__setattr__(self, "_cfn", fn)
            _CFN_STATS.misses += 1
        else:
            _CFN_STATS.hits += 1
        return fn(env)

    def _evaluate_interp(self, env: Mapping[str, Numeric]) -> Any:
        """The original interpretive tree walk (compiled-path fallback)."""
        for c in self.cases:
            if c.guard.evaluate(env):
                return _evaluate_value(c.value, env)
        if self.has_default:
            return _evaluate_value(self.default, env)
        raise SymbolicError(
            f"no alternative of the case analysis holds under {dict(env)}"
        )

    def check_overlaps_agree(self, env: Mapping[str, Numeric]) -> bool:
        """True iff all alternatives whose guards hold yield equal values."""
        values = [_evaluate_value(c.value, env) for c in self.matching_cases(env)]
        return all(v == values[0] for v in values[1:])

    # ------------------------------------------------------------------
    # simplification
    # ------------------------------------------------------------------
    def prune(self, assumptions: Guard | None = None) -> "Piecewise":
        """Drop alternatives whose guards are infeasible (sound, Fourier-
        Motzkin-based -- the mechanical version of the paper's by-hand
        simplification in Appendices D/E).  Nested piecewise values are
        pruned in the context of their enclosing guard."""
        key = (5, assumptions)
        found = self._memo.get(key, _MISSING)
        if found is not _MISSING:
            _PRUNE_STATS.hits += 1
            return found
        _PRUNE_STATS.misses += 1
        new_cases: list[Case] = []
        for c in self.cases:
            ctx = c.guard if assumptions is None else c.guard.and_(assumptions)
            if not ctx.feasible():
                continue
            value = c.value
            if isinstance(value, Piecewise):
                value = value.prune(ctx)
            new_cases.append(Case(c.guard, value))
        default = self.default
        if self.has_default and isinstance(default, Piecewise):
            default = default.prune(assumptions)
        result = Piecewise(new_cases, default=default, has_default=self.has_default)
        self._memo[key] = result
        return result

    def simplify(self, assumptions: Guard | None = None) -> "Piecewise":
        """Prune infeasible alternatives and drop implied constraints.

        Combines :meth:`prune` with :meth:`Guard.simplify`, recursing into
        nested piecewise values with the enclosing guard added to the
        context; an alternative whose guard simplifies to ``true`` makes
        every later alternative (and the default) unreachable under
        first-match evaluation, so they are removed -- this is what turns
        e.g. the D.1 i/o repeater into the paper's plain ``{0 n 1}``.
        Nested single-alternative ``true`` cases collapse into their leaf.
        """
        key = (6, assumptions)
        found = self._memo.get(key, _MISSING)
        if found is not _MISSING:
            _SIMPLIFY_STATS.hits += 1
            return found
        _SIMPLIFY_STATS.misses += 1
        new_cases: list[Case] = []
        truncated = False
        for c in self.cases:
            ctx = c.guard if assumptions is None else c.guard.and_(assumptions)
            if not ctx.feasible():
                continue
            guard = c.guard.simplify(assumptions)
            value = c.value
            if isinstance(value, Piecewise):
                value = value.simplify(ctx)
                collapsed = value.collapse()
                if not isinstance(collapsed, Piecewise):
                    value = collapsed
            new_cases.append(Case(guard, value))
            if guard.is_true:
                truncated = True
                break
        default = self.default
        has_default = self.has_default and not truncated
        if has_default and isinstance(default, Piecewise):
            default = default.simplify(assumptions)
        result = Piecewise(
            new_cases,
            default=default if has_default else None,
            has_default=has_default,
        )
        self._memo[key] = result
        return result

    def collapse(self) -> Value:
        """If a single unconditional alternative remains, return its value."""
        if len(self.cases) == 1 and self.cases[0].guard.is_true:
            return self.cases[0].value
        return self

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, type(self))
            and self.cases == other.cases
            and self.has_default == other.has_default
            and self.default == other.default
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        lines = ["if"]
        for i, c in enumerate(self.cases):
            prefix = "   " if i == 0 else "[] "
            lines.append(f"  {prefix}{c.guard}  ->  {c.value}")
        if self.has_default:
            lines.append(f"  [] else  ->  {'null' if self.default is None else self.default}")
        lines.append("fi")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Piecewise(<{len(self.cases)} cases>)"
