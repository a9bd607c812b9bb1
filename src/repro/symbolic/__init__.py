"""Symbolic affine engine.

The compilation scheme's outputs -- ``first``, ``last``, ``count``,
``soak``/``drain`` amounts, i/o repeaters -- are *closed forms*: affine
expressions in the problem-size symbols (e.g. ``n``) and the process-space
coordinates (e.g. ``col``, ``row``), guarded by conjunctions of affine
inequalities and combined into piecewise case analyses (the paper's
``if .. [] .. fi`` alternatives).  This package implements exactly that
expression language, with exact rational arithmetic.

All expression classes are hash-consed: each class interns its instances in
a per-class :class:`weakref.WeakValueDictionary` keyed by the structural
content, so structurally equal instances are pointer-equal (``__eq__`` is
an identity check in the common case), expensive normalization queries are
memoized on the canonical instance, and evaluation runs through compiled
flat closures (:mod:`repro.symbolic.compile`).  An entry dies with the last
external reference, so interning never pins memory.  Intern and memo
hit/miss pairs are :func:`repro.profiling.counter` instances.
"""

from repro.symbolic.affine import Affine, AffineVec
from repro.symbolic.compile import compile_guard, compile_piecewise
from repro.symbolic.guard import Constraint, Guard, interval
from repro.symbolic.piecewise import Case, Piecewise

__all__ = [
    "Affine",
    "AffineVec",
    "Constraint",
    "Guard",
    "interval",
    "Case",
    "Piecewise",
    "compile_guard",
    "compile_piecewise",
]
