"""Affine expressions over named symbols, with exact coefficients.

An :class:`Affine` is ``sum_i c_i * s_i + k`` for symbols ``s_i``; it is the
expression language of the paper's derived programs ("``2*n - col``",
"``row - col + n``", ...).  Every coefficient and constant is held in one
canonical exact form (:func:`~repro.geometry.point.exact`): a plain ``int``
when it is integral and a :class:`~fractions.Fraction` only when it is
not.  The scheme's coefficients are almost always small integers, so
hashing, comparing and combining them stays in machine-int arithmetic; and
since ``hash(Fraction(k)) == hash(k)`` and ``Fraction(k) == k``, intern
keys, iteration orders and renderings are those of an all-``Fraction``
representation.  :class:`AffineVec` is a fixed-length vector of
affine expressions, used for points of the index space parameterised by the
process-space coordinates (e.g. ``first = (col - row, 0, -row)``).

Multiplication is only defined when at least one operand is constant: the
scheme never needs products of two genuinely symbolic expressions, and
keeping the language affine is what makes every later step (face solving,
guard feasibility) exact and decidable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union
from weakref import WeakValueDictionary

from repro.geometry.point import Point, exact
from repro.profiling import counter
from repro.util.errors import SymbolicError

Numeric = Union[int, Fraction]
AffineLike = Union["Affine", int, Fraction]


_ZERO = 0

#: Element types :class:`AffineVec` passes through unlifted (and for which
#: :class:`Affine` arithmetic defers to the reflected operand).  Populated
#: by :mod:`repro.symbolic.minmax` to break the import cycle.
_VEC_PASSTHROUGH: tuple[type, ...] = ()


def register_vec_passthrough(tp: type) -> None:
    global _VEC_PASSTHROUGH
    if tp not in _VEC_PASSTHROUGH:
        _VEC_PASSTHROUGH = _VEC_PASSTHROUGH + (tp,)


class Affine:
    """An immutable, hash-consed affine expression ``sum coeffs[s]*s + const``.

    Construction interns: structurally equal expressions built through the
    constructor are the *same object*, so ``__eq__`` has an identity fast
    path and downstream caches can key on identity.
    """

    __slots__ = ("coeffs", "const", "_hash", "__weakref__")

    _intern: "WeakValueDictionary[tuple, Affine]" = WeakValueDictionary()
    _stats = counter("affine_intern")

    def __new__(
        cls, coeffs: Mapping[str, Numeric] | None = None, const: Numeric = 0
    ) -> "Affine":
        clean: dict[str, Numeric] = {}
        for sym, c in (coeffs or {}).items():
            if not isinstance(sym, str) or not sym:
                raise SymbolicError(f"symbol names must be non-empty strings: {sym!r}")
            c = exact(c, SymbolicError)
            if c:
                clean[sym] = c
        const = exact(const, SymbolicError)
        key = (frozenset(clean.items()), const)
        stats = cls._stats
        self = cls._intern.get(key)
        if self is not None:
            stats.hits += 1
            return self
        stats.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "_hash", hash(key))
        cls._intern[key] = self
        return self

    @classmethod
    def _make(cls, coeffs: dict[str, Numeric], const: Numeric) -> "Affine":
        """Internal interning constructor for arithmetic results.

        Callers guarantee ``coeffs`` maps symbol strings to exact numbers
        (zero values allowed, they are dropped here) and ``const`` is an
        exact number; the results of ``int``/``Fraction`` arithmetic only
        need an integral ``Fraction`` collapsed to ``int``, and skipping
        the public constructor's per-item validation matters because
        arithmetic dominates large sweeps.
        """
        clean = {
            s: c if type(c) is int else exact(c)
            for s, c in coeffs.items() if c
        }
        if type(const) is not int:
            const = exact(const)
        key = (frozenset(clean.items()), const)
        stats = cls._stats
        self = cls._intern.get(key)
        if self is not None:
            stats.hits += 1
            return self
        stats.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "_hash", hash(key))
        cls._intern[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Affine is immutable")

    def __reduce__(self):
        # Rebuild through the constructor: the immutable __setattr__ blocks
        # the default slot-restoring pickle path.
        return (Affine, (self.coeffs, self.const))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def constant(value: Numeric) -> "Affine":
        return Affine({}, value)

    @staticmethod
    def var(name: str) -> "Affine":
        return Affine({name: 1}, 0)

    @staticmethod
    def lift(value: AffineLike) -> "Affine":
        if isinstance(value, Affine):
            return value
        return Affine.constant(value)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    @property
    def is_zero(self) -> bool:
        return self.is_constant and self.const == 0

    @property
    def free_symbols(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def coeff(self, symbol: str) -> Numeric:
        return self.coeffs.get(symbol, _ZERO)

    def as_constant(self) -> Numeric:
        if not self.is_constant:
            raise SymbolicError(f"{self} is not constant")
        return self.const

    def as_int(self) -> int:
        c = self.as_constant()
        if type(c) is not int:
            raise SymbolicError(f"{self} is not an integer")
        return c

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: AffineLike) -> "Affine":
        if isinstance(other, _VEC_PASSTHROUGH):
            return NotImplemented  # defer to Extremum.__radd__
        o = Affine.lift(other)
        coeffs = dict(self.coeffs)
        for sym, c in o.coeffs.items():
            prev = coeffs.get(sym)
            coeffs[sym] = c if prev is None else prev + c
        return Affine._make(coeffs, self.const + o.const)

    __radd__ = __add__

    def __sub__(self, other: AffineLike) -> "Affine":
        if isinstance(other, _VEC_PASSTHROUGH):
            return NotImplemented  # defer to Extremum.__rsub__
        o = Affine.lift(other)
        coeffs = dict(self.coeffs)
        for sym, c in o.coeffs.items():
            prev = coeffs.get(sym)
            coeffs[sym] = -c if prev is None else prev - c
        return Affine._make(coeffs, self.const - o.const)

    def __rsub__(self, other: AffineLike) -> "Affine":
        return Affine.lift(other) - self

    def __neg__(self) -> "Affine":
        return Affine._make(
            {s: -c for s, c in self.coeffs.items()}, -self.const
        )

    def __mul__(self, other: AffineLike) -> "Affine":
        if isinstance(other, _VEC_PASSTHROUGH):
            return NotImplemented  # defer to Extremum.__rmul__
        o = Affine.lift(other)
        if o.is_constant:
            k = o.const
            return Affine._make(
                {s: c * k for s, c in self.coeffs.items()}, self.const * k
            )
        if self.is_constant:
            return o * self.const
        raise SymbolicError(f"non-affine product: ({self}) * ({o})")

    __rmul__ = __mul__

    def __truediv__(self, other: AffineLike) -> "Affine":
        o = Affine.lift(other)
        if not o.is_constant:
            raise SymbolicError(f"division by symbolic expression: ({self}) / ({o})")
        if o.const == 0:
            raise SymbolicError(f"division by zero: ({self}) / 0")
        return self * (Fraction(1) / o.const)

    # ------------------------------------------------------------------
    # substitution / evaluation
    # ------------------------------------------------------------------
    def subs(self, mapping: Mapping[str, AffineLike]) -> "Affine":
        """Substitute symbols by affine expressions or numbers."""
        result = Affine.constant(self.const)
        for sym, c in self.coeffs.items():
            replacement = mapping.get(sym)
            if replacement is None:
                result = result + Affine({sym: c})
            else:
                result = result + Affine.lift(replacement) * c
        return result

    def evaluate(self, env: Mapping[str, Numeric]) -> Numeric:
        """Fully evaluate (an ``int`` when the value is integral); every
        free symbol must be bound in ``env``."""
        total = self.const
        for sym, c in self.coeffs.items():
            if sym not in env:
                raise SymbolicError(f"unbound symbol {sym!r} in {self}")
            v = env[sym]
            total += c * (v if type(v) is int else exact(v, SymbolicError))
        return total if type(total) is int else exact(total)

    def evaluate_int(self, env: Mapping[str, Numeric]) -> int:
        v = self.evaluate(env)
        if type(v) is not int:
            raise SymbolicError(f"{self} evaluates to non-integer {v} under {dict(env)}")
        return v

    # ------------------------------------------------------------------
    # comparison / display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        # type(self) rather than the module-global class name: weak-cache
        # removal callbacks can run during interpreter teardown, after
        # globals are cleared.
        if isinstance(other, type(self)):
            # Interning makes structural equality identity for
            # constructor-built instances; the walk stays as a safety net.
            return self.coeffs == other.coeffs and self.const == other.const
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.const == other
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        parts: list[str] = []
        for sym in sorted(self.coeffs):
            c = self.coeffs[sym]
            if c == 1:
                term = sym
            elif c == -1:
                term = f"-{sym}"
            else:
                term = f"{c}*{sym}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        if self.const != 0 or not parts:
            k = self.const
            if parts:
                parts.append(f"+ {k}" if k > 0 else f"- {-k}")
            else:
                parts.append(str(k))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Affine({self})"


class AffineVec(tuple):
    """A fixed-length vector of affine expressions.

    Used for symbolic points: ``first = (col, row, 0)`` is an
    ``AffineVec`` over the process-space coordinates.
    """

    __slots__ = ()

    def __new__(cls, items: Iterable[AffineLike]) -> "AffineVec":
        return super().__new__(
            cls,
            (
                x if isinstance(x, _VEC_PASSTHROUGH) else Affine.lift(x)
                for x in items
            ),
        )

    @staticmethod
    def of(*items: AffineLike) -> "AffineVec":
        return AffineVec(items)

    @staticmethod
    def from_point(point: Sequence[Numeric]) -> "AffineVec":
        return AffineVec(Affine.constant(c) for c in point)

    @staticmethod
    def symbols(names: Sequence[str]) -> "AffineVec":
        return AffineVec(Affine.var(n) for n in names)

    @property
    def dim(self) -> int:
        return len(self)

    @property
    def free_symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self:
            out |= a.free_symbols
        return out

    @property
    def is_constant(self) -> bool:
        return all(a.is_constant for a in self)

    def _coerce(self, other: object) -> "AffineVec | None":
        if isinstance(other, AffineVec):
            vec = other
        elif isinstance(other, (tuple, list, Point)):
            vec = AffineVec(other)
        else:
            return None
        if len(vec) != len(self):
            raise SymbolicError(f"dimension mismatch: {self} vs {vec}")
        return vec

    def __add__(self, other: object) -> "AffineVec":  # type: ignore[override]
        vec = self._coerce(other)
        if vec is None:
            return NotImplemented
        return AffineVec(a + b for a, b in zip(self, vec))

    __radd__ = __add__

    def __sub__(self, other: object) -> "AffineVec":
        vec = self._coerce(other)
        if vec is None:
            return NotImplemented
        return AffineVec(a - b for a, b in zip(self, vec))

    def __rsub__(self, other: object) -> "AffineVec":
        vec = self._coerce(other)
        if vec is None:
            return NotImplemented
        return AffineVec(b - a for a, b in zip(self, vec))

    def __neg__(self) -> "AffineVec":
        return AffineVec(-a for a in self)

    def __mul__(self, scalar: object) -> "AffineVec":  # type: ignore[override]
        if not isinstance(scalar, (int, Fraction, Affine)):
            return NotImplemented
        return AffineVec(a * scalar for a in self)

    __rmul__ = __mul__

    def subs(self, mapping: Mapping[str, AffineLike]) -> "AffineVec":
        return AffineVec(a.subs(mapping) for a in self)

    def evaluate(self, env: Mapping[str, Numeric]) -> Point:
        return Point(a.evaluate(env) for a in self)

    def as_point(self) -> Point:
        """Convert a fully constant vector to a :class:`Point`."""
        return Point(a.as_constant() for a in self)

    def with_coord(self, axis: int, value: AffineLike) -> "AffineVec":
        """The paper's ``(x; i: e)`` for symbolic points."""
        if not 0 <= axis < len(self):
            raise SymbolicError(f"axis {axis} out of range for {self}")
        return AffineVec(
            Affine.lift(value) if i == axis else a for i, a in enumerate(self)
        )

    def __repr__(self) -> str:
        return "(" + ", ".join(str(a) for a in self) + ")"
