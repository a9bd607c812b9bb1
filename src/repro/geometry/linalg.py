"""Exact rational matrices and linear maps.

The paper represents every linear function by a matrix and attributes the
matrix's properties (rank, null space, dimensionality) to the function
(Section 2, citing Lang).  :class:`Matrix` implements those operations with
exact :class:`fractions.Fraction` arithmetic so that the compilation scheme
never loses precision.

The element type of matrix/vector operations is generic: entries of the
matrix are exact rationals, but :meth:`Matrix.apply` also accepts vectors of
symbolic affine expressions (anything supporting ``+`` and ``*`` by a
rational), which is how the scheme solves ``place . x = y`` symbolically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, TypeVar

from repro.geometry.point import Point, Scalar
from repro.profiling import counter
from repro.util.errors import GeometryError, SingularMatrixError

T = TypeVar("T")

#: elimination memo -- Matrix is immutable and hashable by ``rows``, and the
#: bounded synthesis search revisits the same small integer matrices
#: constantly (every place candidate shares rows with its neighbours, and
#: fuzz instances draw coefficients from the same tiny set), so rank /
#: null-space / inverse results are cached globally keyed on the rows.
#: Bounded like the flow cache: cleared wholesale at the limit.
_ELIM_CACHE_LIMIT = 16384
_rank_cache: dict = {}
_null_basis_cache: dict = {}
_inverse_cache: dict = {}
_rank_stats = counter("linalg_rank")
_null_stats = counter("linalg_null")
_inverse_stats = counter("linalg_inverse")


def _elim_cache_put(cache: dict, key, value):
    if len(cache) >= _ELIM_CACHE_LIMIT:
        cache.clear()
    cache[key] = value
    return value


class Matrix:
    """An immutable exact rational matrix (row-major)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]]) -> None:
        normalized: list[tuple[Scalar, ...]] = []
        width: int | None = None
        for row in rows:
            tup = tuple(row)
            if width is None:
                width = len(tup)
            elif len(tup) != width:
                raise GeometryError("ragged rows in matrix")
            normalized.append(tup)
        if width is None or width == 0 or not normalized:
            raise GeometryError("matrix must be non-empty")
        object.__setattr__(self, "rows", tuple(normalized))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # Immutability blocks the default slot-restoring pickle path; rebuild
        # through the constructor instead (needed to ship designs to
        # multiprocessing workers in repro.parallel).
        return (Matrix, (self.rows,))

    # ------------------------------------------------------------------
    # shape / access
    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, idx: tuple[int, int]) -> Scalar:
        i, j = idx
        return self.rows[i][j]

    def row(self, i: int) -> Point:
        return Point(self.rows[i])

    def col(self, j: int) -> Point:
        return Point(r[j] for r in self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "Matrix(" + "; ".join(" ".join(str(c) for c in r) for r in self.rows) + ")"

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def apply(self, vector: Sequence[T]) -> list[T]:
        """Matrix-vector product with a vector of arbitrary ring elements.

        Works for :class:`Point` (returns rationals) and for vectors of
        symbolic affine expressions (returns affine expressions): each
        component is ``sum_j rows[i][j] * vector[j]``, computed with the
        vector element's own ``+``/``*``.
        """
        if len(vector) != self.ncols:
            raise GeometryError(
                f"cannot apply {self.shape} matrix to {len(vector)}-vector"
            )
        out: list[T] = []
        for row in self.rows:
            acc = None
            for coeff, elem in zip(row, vector):
                term = elem * coeff
                acc = term if acc is None else acc + term
            out.append(acc)  # type: ignore[arg-type]
        return out

    def apply_point(self, vector: Sequence[Scalar]) -> Point:
        """Matrix-vector product returning a :class:`Point`."""
        return Point(self.apply(list(vector)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise GeometryError(f"cannot multiply {self.shape} by {other.shape}")
        return Matrix(
            tuple(
                sum(self.rows[i][k] * other.rows[k][j] for k in range(self.ncols))
                for j in range(other.ncols)
            )
            for i in range(self.nrows)
        )

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def drop_column(self, j: int) -> "Matrix":
        """The matrix with column ``j`` removed."""
        if not 0 <= j < self.ncols:
            raise GeometryError(f"column {j} out of range")
        if self.ncols == 1:
            raise GeometryError("cannot drop the only column")
        return Matrix(tuple(c for k, c in enumerate(r) if k != j) for r in self.rows)

    # ------------------------------------------------------------------
    # elimination-based queries
    # ------------------------------------------------------------------
    def _echelon(self) -> list[list[Fraction]]:
        """Row echelon form (fresh rational copy), used by rank/null space."""
        work = [[Fraction(c) for c in row] for row in self.rows]
        nrows, ncols = self.nrows, self.ncols
        pivot_row = 0
        for col in range(ncols):
            pivot = next(
                (r for r in range(pivot_row, nrows) if work[r][col] != 0), None
            )
            if pivot is None:
                continue
            work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
            pv = work[pivot_row][col]
            work[pivot_row] = [c / pv for c in work[pivot_row]]
            for r in range(nrows):
                if r != pivot_row and work[r][col] != 0:
                    factor = work[r][col]
                    work[r] = [a - factor * b for a, b in zip(work[r], work[pivot_row])]
            pivot_row += 1
            if pivot_row == nrows:
                break
        return work

    @property
    def rank(self) -> int:
        """The rank of the matrix (exact; memoized on the rows)."""
        cached = _rank_cache.get(self.rows)
        if cached is not None:
            _rank_stats.hits += 1
            return cached
        _rank_stats.misses += 1
        result = sum(1 for row in self._echelon() if any(c != 0 for c in row))
        return _elim_cache_put(_rank_cache, self.rows, result)

    def null_space_basis(self) -> list[Point]:
        """An exact basis of the null space, as integral vectors.

        Each basis vector is scaled to have integer coprime components
        (multiplied by the lcm of denominators and divided by the gcd).
        Memoized on the rows; a fresh list is returned each call (the
        :class:`Point` entries are immutable and shared).
        """
        cached = _null_basis_cache.get(self.rows)
        if cached is not None:
            _null_stats.hits += 1
            return list(cached)
        _null_stats.misses += 1
        reduced = self._echelon()
        ncols = self.ncols
        pivots: dict[int, int] = {}
        for r, row in enumerate(reduced):
            for c, val in enumerate(row):
                if val != 0:
                    pivots[c] = r
                    break
        free_cols = [c for c in range(ncols) if c not in pivots]
        basis: list[Point] = []
        for free in free_cols:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for col, prow in pivots.items():
                vec[col] = -reduced[prow][free]
            lcm = 1
            for v in vec:
                lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
            ints = [int(v * lcm) for v in vec]
            g = 0
            for v in ints:
                g = math.gcd(g, abs(v))
            basis.append(Point(v // g for v in ints))
        _elim_cache_put(_null_basis_cache, self.rows, tuple(basis))
        return basis

    def determinant(self) -> Fraction:
        """The exact determinant of a square matrix."""
        n = self.nrows
        if n != self.ncols:
            raise GeometryError(f"determinant of non-square {self.shape} matrix")
        work = [[Fraction(c) for c in row] for row in self.rows]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            pv = work[col][col]
            det *= pv
            for r in range(col + 1, n):
                if work[r][col] != 0:
                    factor = work[r][col] / pv
                    work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return det

    def inverse(self) -> "Matrix":
        """The exact inverse of a square matrix (memoized on the rows).

        Raises :class:`SingularMatrixError` if the matrix is singular.
        """
        cached = _inverse_cache.get(self.rows)
        if cached is not None:
            _inverse_stats.hits += 1
            return cached
        _inverse_stats.misses += 1
        n = self.nrows
        if n != self.ncols:
            raise GeometryError(f"inverse of non-square {self.shape} matrix")
        work = [
            [Fraction(c) for c in row] + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot is None:
                raise SingularMatrixError(f"matrix {self!r} is singular")
            work[col], work[pivot] = work[pivot], work[col]
            pv = work[col][col]
            work[col] = [c / pv for c in work[col]]
            for r in range(n):
                if r != col and work[r][col] != 0:
                    factor = work[r][col]
                    work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return _elim_cache_put(
            _inverse_cache, self.rows, Matrix(row[n:] for row in work)
        )


def identity(n: int) -> Matrix:
    """The n-by-n identity matrix."""
    return Matrix(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def solve_unique(matrix: Matrix, rhs: Sequence[T]) -> list[T]:
    """Solve ``matrix @ x == rhs`` for the unique solution ``x``.

    ``rhs`` entries may be exact rationals *or* symbolic affine expressions;
    the solution is computed as ``matrix^{-1} @ rhs`` so the result has the
    element type of ``rhs``.  Raises :class:`SingularMatrixError` when the
    matrix is not invertible.
    """
    return matrix.inverse().apply(rhs)


def null_space_vector(matrix: Matrix) -> Point:
    """The single spanning vector of a rank-deficiency-1 null space.

    The paper's ``null_p`` (Theorem 2): when ``dim(null(place)) == 1``, any
    non-zero element of the null space spans it; this returns the unique
    integral one with coprime components and an arbitrary but deterministic
    sign (first non-zero component positive).
    """
    basis = matrix.null_space_basis()
    if len(basis) != 1:
        raise GeometryError(
            f"null space has dimension {len(basis)}, expected 1 (rank must be ncols-1)"
        )
    vec = basis[0]
    first = next((c for c in vec if c != 0), 0)
    if first < 0:
        vec = -vec
    return vec
