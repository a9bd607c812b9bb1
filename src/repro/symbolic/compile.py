"""Compiled evaluators: lower symbolic forms into flat Python closures.

Interpreting an :class:`Affine`/:class:`Guard`/:class:`Piecewise` walks the
expression tree on every call; the explorer and the simulator evaluate the
*same* closed forms at thousands of points, so this module lowers each form
once into a single ``compile()``-d function over an ``env`` mapping --
guard chains become ``if``/``elif`` lines, affine terms become inline
arithmetic on ``env[...]`` lookups.  The compiled function is cached on the
hash-consed instance (see :mod:`repro.symbolic`), so every structural copy
of a form shares one compiled body.

The *lowering* itself (:func:`render_affine`, :func:`render_guard`,
:func:`guard_chain_lines`) is the single guard-chain implementation in the
repository: :mod:`repro.target.pygen` renders its standalone modules
through these same functions, parameterised on the numeral renderer and the
no-match behaviour, so generated-code output is byte-for-byte what the old
private renderer produced.

Semantics are preserved exactly: scalar leaves return what
:meth:`Affine.evaluate` returns (an ``int`` when the value is integral, a
:class:`~fractions.Fraction` only when it is not), vector leaves return
:class:`~repro.geometry.point.Point`, unbound symbols raise
:class:`~repro.util.errors.SymbolicError`, and a case analysis with no
matching alternative raises the same message as the interpretive walk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, Sequence

from repro.geometry.point import Point, exact
from repro.symbolic.affine import Affine, AffineVec, Numeric
from repro.profiling import counter
from repro.util.errors import SymbolicError

__all__ = [
    "render_affine",
    "render_guard",
    "guard_chain_lines",
    "compile_guard",
    "compile_piecewise",
    "compile_any_case",
    "lower_affine_int",
    "lower_affine_rows_int",
]

_COMPILE_STATS = counter("compile_forms")


def env_sym(sym: str) -> str:
    """The default symbol lowering: a lookup in the ``env`` mapping."""
    return f"env[{sym!r}]"


def closure_num(value: Numeric) -> str:
    """Numeral renderer for in-process closures (``_Fr`` is in globals);
    ``value`` is in :func:`~repro.geometry.point.exact` form."""
    if type(value) is int:
        return str(value)
    return f"_Fr({value.numerator}, {value.denominator})"


# ----------------------------------------------------------------------
# shared lowering (also used verbatim by target/pygen.py)
# ----------------------------------------------------------------------
def render_affine(a: Affine, num: Callable[[object], str],
                  sym: Callable[[str], str] = env_sym) -> str:
    """``a`` as a flat Python expression; ``num`` renders exact numerals."""
    terms: list[tuple[Numeric, str | None]] = [
        (a.coeffs[s], sym(s)) for s in sorted(a.coeffs)
    ]
    if a.const != 0 or not terms:
        terms.append((a.const, None))
    parts: list[str] = []
    for c, s in terms:
        mag = abs(c)
        if s is None:
            txt = num(mag)
        elif mag == 1:
            txt = s
        else:
            txt = f"{num(mag)}*{s}"
        if not parts:
            parts.append(txt if c >= 0 else f"-{txt}")
        else:
            parts.append(("+ " if c >= 0 else "- ") + txt)
    return " ".join(parts)


def render_guard(guard, num: Callable[[object], str],
                 sym: Callable[[str], str] = env_sym) -> str:
    """``guard`` as a conjunction of ``(affine) >= 0`` tests."""
    if guard.is_true:
        return "True"
    return " and ".join(
        f"({render_affine(c.expr, num, sym)}) >= 0" for c in guard.constraints
    )


def guard_chain_lines(pw, leaf: Callable[[object], str],
                      guard_text: Callable[[object], str],
                      no_match: Callable[[str], str],
                      depth: int = 1) -> list[str]:
    """First-match ``if`` chain for a (possibly nested) case analysis.

    ``leaf`` renders a non-piecewise value, ``guard_text`` renders a guard,
    and ``no_match`` produces the final statement (given the indentation)
    when no alternative holds and there is no default.
    """
    pad = "    " * depth
    out: list[str] = []
    for case in pw.cases:
        out.append(f"{pad}if {guard_text(case.guard)}:")
        if _is_piecewise(case.value):
            out.extend(guard_chain_lines(case.value, leaf, guard_text,
                                         no_match, depth + 1))
        else:
            out.append(f"{pad}    return {leaf(case.value)}")
    if pw.has_default:
        if _is_piecewise(pw.default):
            out.extend(guard_chain_lines(pw.default, leaf, guard_text,
                                         no_match, depth))
        else:
            out.append(f"{pad}return {leaf(pw.default)}")
    else:
        out.append(no_match(pad))
    return out


def _is_piecewise(value) -> bool:
    # Lazy import: piecewise.py imports this module inside its methods.
    from repro.symbolic.piecewise import Piecewise

    return isinstance(value, Piecewise)


# ----------------------------------------------------------------------
# integer-array lowering (the vectorized wavefront backend)
# ----------------------------------------------------------------------
def lower_affine_int(
    a: Affine, order: Sequence[str], env: Mapping[str, object]
) -> tuple[tuple[int, ...], int, int]:
    """Lower ``a`` to integer dot-product form over the axes in ``order``.

    Returns ``(coeffs, const, den)`` such that for any integer point ``x``
    bound to the ``order`` symbols,

        ``a(x) == (sum_i coeffs[i] * x[i] + const) / den``   (exactly).

    Symbols not in ``order`` are substituted from ``env`` (raising
    :class:`SymbolicError` when unbound, like :meth:`Affine.evaluate`);
    ``den >= 1`` is the least common denominator, so a purely integral
    affine always lowers with ``den == 1``.  This is the bridge from the
    hash-consed symbolic layer to whole-array integer evaluation: a
    backend computes ``coeffs @ X + const`` over an ``(r, N)`` coordinate
    matrix ``X`` instead of evaluating the affine point by point.
    """
    pos = {sym: i for i, sym in enumerate(order)}
    coeffs: list[Numeric] = [0] * len(order)
    const = a.const
    for sym, c in a.coeffs.items():
        i = pos.get(sym)
        if i is not None:
            coeffs[i] = c
        elif sym in env:
            const += c * exact(env[sym], SymbolicError)
        else:
            raise SymbolicError(
                f"unbound symbol {sym!r} lowering {a} over axes {tuple(order)}"
            )
    den = math.lcm(const.denominator, *(c.denominator for c in coeffs))
    return (
        tuple(int(c * den) for c in coeffs),
        int(const * den),
        den,
    )


def lower_affine_rows_int(
    rows: Sequence[Affine], order: Sequence[str], env: Mapping[str, object]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    """:func:`lower_affine_int` over several affines with one shared order."""
    lowered = [lower_affine_int(a, order, env) for a in rows]
    return (
        tuple(c for c, _k, _d in lowered),
        tuple(k for _c, k, _d in lowered),
        tuple(d for _c, _k, d in lowered),
    )


# ----------------------------------------------------------------------
# closure compilation
# ----------------------------------------------------------------------
class _UnsupportedLeaf(Exception):
    """Raised during lowering when a leaf value has no compiled form."""


def _closure_leaf(value) -> str:
    if value is None:
        return "None"
    if isinstance(value, AffineVec):
        coords = ", ".join(render_affine(a, closure_num) for a in value)
        return f"_Pt(({coords},))"
    if isinstance(value, Affine):
        # _N returns the value in Affine.evaluate's form.
        return f"_N({render_affine(value, closure_num)})"
    raise _UnsupportedLeaf(repr(value))


def _closure_guard(guard) -> str:
    return render_guard(guard, closure_num)


def _exec(src: str, name: str):
    ns = {
        "_Fr": Fraction,
        "_N": partial(exact, error=SymbolicError),
        "_Pt": Point,
        "_SE": SymbolicError,
    }
    exec(compile(src, "<repro.symbolic.compile>", "exec"), ns)
    _COMPILE_STATS.misses += 1
    return ns[name]


def _const(value):
    def fn(env):
        return value

    return fn


def compile_guard(guard):
    """``guard`` as ``env -> bool`` (short-circuiting ``and`` chain)."""
    if guard.is_true:
        return _const(True)
    src = (
        "def _g(env):\n"
        "    try:\n"
        f"        return {_closure_guard(guard)}\n"
        "    except KeyError as exc:\n"
        "        raise _SE('unbound symbol %r in guard' % (exc.args[0],)) from None\n"
    )
    return _exec(src, "_g")


def compile_piecewise(pw):
    """``pw`` as ``env -> value`` under first-match semantics.

    Returns ``None`` when some leaf has no compiled form; the caller then
    falls back to the interpretive walk.
    """

    def no_match(pad: str) -> str:
        return (f"{pad}raise _SE('no alternative of the case analysis "
                f"holds under %r' % (dict(env),))")

    try:
        body = guard_chain_lines(pw, _closure_leaf, _closure_guard,
                                 no_match, depth=2)
    except _UnsupportedLeaf:
        return None
    src = (
        "def _pw(env):\n"
        "    try:\n"
        + "\n".join(body) + "\n"
        "    except KeyError as exc:\n"
        "        raise _SE('unbound symbol %r in case analysis' % (exc.args[0],)) from None\n"
    )
    return _exec(src, "_pw")


def compile_any_case(pw):
    """``pw`` as ``env -> bool``: does any alternative's guard hold?"""
    if not pw.cases:
        return _const(False)
    if any(c.guard.is_true for c in pw.cases):
        return _const(True)
    disjunction = " or ".join(f"({_closure_guard(c.guard)})" for c in pw.cases)
    src = (
        "def _any(env):\n"
        "    try:\n"
        f"        return {disjunction}\n"
        "    except KeyError as exc:\n"
        "        raise _SE('unbound symbol %r in guard' % (exc.args[0],)) from None\n"
    )
    return _exec(src, "_any")
