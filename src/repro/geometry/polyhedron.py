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
rows of each interned constraint and guard).  Feasibility is over the
rationals: a feasible relaxation may in rare cases have no integer point,
so pruning with this test is *sound* (it only removes cases that can never
hold) but not complete, matching the paper's own hand-simplification which
also only removes impossible branches.
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


def _eliminate(rows: list[tuple[int, ...]], var: int) -> list[tuple[int, ...]] | None:
    """Eliminate variable ``var``; returns None if infeasibility is found.

    Rows are integer tuples ``(c_0, ..., c_{dim-1}, const)`` encoding
    ``sum c_i x_i + const >= 0``; the final slot is the constant.
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
    seen: set[tuple[int, ...]] = set()
    for lo in lowers:
        a_lo = lo[var]
        for hi in uppers:
            a_hi = -hi[var]
            # a_hi * lo + a_lo * hi eliminates x_var (both multipliers > 0).
            new = tuple(a_hi * cl + a_lo * ch for cl, ch in zip(lo, hi))
            for x in new[:-1]:
                if x:
                    break
            else:
                if new[-1] < 0:
                    return None
                continue  # trivially true
            new = _reduce_row(new)
            if new not in seen:
                seen.add(new)
                out.append(new)
    return out


def canonical_int_row(entries: Sequence[Fraction]) -> tuple[int, ...] | bool:
    """Scale ``(coeffs..., const)`` to a reduced integer row.

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
    work = list(rows)
    feasible = True
    for var in range(dim):
        result = _eliminate(work, var)
        if result is None:
            feasible = False
            break
        work = result
    else:
        # By construction every surviving row still involves a variable or
        # was discharged when derived; keep the constant check for safety.
        feasible = all(row[-1] >= 0 for row in work)
    if len(_fm_cache) >= _FM_CACHE_LIMIT:
        _fm_cache.clear()
    _fm_cache[key] = feasible
    return feasible

