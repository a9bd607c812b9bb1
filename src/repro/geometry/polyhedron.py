"""Rational polyhedra and Fourier-Motzkin feasibility.

The compilation scheme produces guards that are conjunctions of affine
inequalities over the process-space coordinates and the problem-size
symbols (Section 7.2.2).  Deciding whether such a guard can ever hold --
e.g. to prune the vacuous sub-alternatives the paper removes by hand in
Appendix E.2.5 -- is rational-feasibility checking, which Fourier-Motzkin
elimination answers exactly.

A constraint ``coeffs . x + const >= 0`` is an integer row
``(c_0, ..., c_{dim-1}, const)``: :func:`canonical_int_row` scales exact
rational entries to a gcd-reduced row, and :func:`feasible_int_rows`
decides a conjunction of such rows (``repro.symbolic.guard`` caches the
rows of each interned constraint and guard).  Each step eliminates the
variable whose elimination adds the fewest rows, and of the rows with one
coefficient part only the one with the smallest constant is kept.
Rational elimination is exact in any order and a dropped row is implied
by the kept one, so neither choice changes an answer, only the work.

Feasibility is over the rationals: a feasible relaxation may in rare
cases have no integer point, so pruning with this test is *sound* (it only
removes cases that can never hold) but not complete, matching the paper's
own hand-simplification which also only removes impossible branches.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from repro.profiling import counter

#: global feasibility memo keyed by the canonicalized integer rows; see
#: :func:`feasible_int_rows`
_fm_cache: dict = {}
_fm_stats = counter("fm_feasible")
_FM_CACHE_LIMIT = 32768


def _reduce_row(row: tuple[int, ...]) -> tuple[int, ...]:
    """Divide an integer row by the gcd of its entries (keeps numbers small)."""
    g = 0
    for x in row:
        g = math.gcd(g, x)
    if g > 1:
        row = tuple(x // g for x in row)
    return row


def _tightest(rows: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Of the rows with one coefficient part keep only the one with the
    smallest constant: it is the tightest, and it implies the others."""
    best: dict[tuple[int, ...], int] = {}
    get = best.get
    for row in rows:
        head, k = row[:-1], row[-1]
        prev = get(head)
        if prev is None or k < prev:
            best[head] = k
    return [head + (k,) for head, k in best.items()]


def _eliminate(rows: list[tuple[int, ...]], var: int) -> list[tuple[int, ...]] | None:
    """Eliminate variable ``var``; returns None if infeasibility is found.

    Rows are integer tuples ``(c_0, ..., c_{dim-1}, const)`` encoding
    ``sum c_i x_i + const >= 0``; the final slot is the constant.  Of the
    resulting rows with one coefficient part only the tightest is kept.
    """
    lowers: list[tuple[int, ...]] = []  # coeff[var] > 0: x_var >= -(rest)/coeff
    uppers: list[tuple[int, ...]] = []  # coeff[var] < 0: x_var <= -(rest)/coeff
    out: list[tuple[int, ...]] = []
    for row in rows:
        a = row[var]
        if a > 0:
            lowers.append(row)
        elif a < 0:
            uppers.append(row)
        else:
            out.append(row)
    for lo in lowers:
        a_lo = lo[var]
        for hi in uppers:
            a_hi = -hi[var]
            # a_hi * lo + a_lo * hi eliminates x_var (both multipliers > 0).
            new = tuple(a_hi * cl + a_lo * ch for cl, ch in zip(lo, hi))
            if not any(new[:-1]):
                if new[-1] < 0:
                    return None
                continue  # trivially true
            out.append(_reduce_row(new))
    return _tightest(out)


def _cheapest_var(rows: list[tuple[int, ...]], dim: int) -> int | None:
    """The variable whose elimination adds the fewest rows, or None when
    no row involves a variable any more.

    Eliminating a variable with ``pos`` lower and ``neg`` upper bounds
    replaces those rows by ``pos * neg`` combinations, a net growth of
    ``pos * neg - pos - neg``; ties go to the lowest index.
    """
    best = None
    best_growth = 0
    for i, column in enumerate(zip(*rows)):
        if i == dim:
            break
        p = n = 0
        for a in column:
            if a > 0:
                p += 1
            elif a < 0:
                n += 1
        if p or n:
            growth = p * n - p - n
            if best is None or growth < best_growth:
                best, best_growth = i, growth
    return best


def canonical_int_row(entries: Sequence[int | Fraction]) -> tuple[int, ...] | bool:
    """Scale exact ``(coeffs..., const)`` to a reduced integer row.

    Returns ``True``/``False`` directly for a trivial (variable-free) row.
    Feasibility is invariant under positive scaling, so a row canonicalized
    this way can be compared and memoized in machine-int arithmetic.
    """
    lcm = 1
    for e in entries:
        d = e.denominator
        if d != 1:
            lcm = lcm * d // math.gcd(lcm, d)
    row = tuple(int(e * lcm) for e in entries)
    for x in row[:-1]:
        if x:
            return _reduce_row(row)
    return row[-1] >= 0


def feasible_int_rows(rows: Sequence[tuple[int, ...]], dim: int) -> bool:
    """Feasibility of already-canonical integer rows (see above).

    Distinct guards constantly reduce to the same canonical integer system
    (the scheme's coefficient space is tiny), so feasibility is memoized
    globally on the rows -- unlike any per-guard memo this hits across
    designs and across fuzz instances.  Row order is irrelevant to
    feasibility, hence the sorted key.
    """
    key = (dim, tuple(sorted(set(rows))))
    cached = _fm_cache.get(key)
    if cached is not None:
        _fm_stats.hits += 1
        return cached
    _fm_stats.misses += 1
    work: list[tuple[int, ...]] | None = _tightest(key[1])
    while work:
        var = _cheapest_var(work, dim)
        if var is None:
            break
        work = _eliminate(work, var)
    # Every surviving row is variable-free: rows derived variable-free are
    # discharged when made, an input row may still be one.
    feasible = work is not None and all(row[-1] >= 0 for row in work)
    if len(_fm_cache) >= _FM_CACHE_LIMIT:
        _fm_cache.clear()
    _fm_cache[key] = feasible
    return feasible

