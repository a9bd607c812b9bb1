"""Streams: indexed variables plus their index maps (Section 3.1).

A *stream* pairs the name of an indexed variable with an index vector --
an ``(r-1)``-tuple of constant-free linear expressions in the loop indices,
represented by its *index map*: an ``(r-1) x r`` integer matrix of rank
``r-1``.  E.g. for three loops ``(i,j,k)``, the source occurrence
``A[i+k, j-k]`` has index map ``lambda (i,j,k).(i+k, j-k)``.

The rank requirement enforces full pipelining (Appendix A.1); the absence of
constants is structural -- a pure linear map cannot encode an affine offset.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.geometry.linalg import Matrix, null_space_vector
from repro.geometry.point import Point
from repro.lang.variables import IndexedVariable
from repro.util.errors import RequirementViolation, SourceProgramError


@dataclass(frozen=True)
class Stream:
    """A stream ``s``: variable ``v`` accessed through index map ``M``."""

    variable: IndexedVariable
    index_map: Matrix

    def __post_init__(self) -> None:
        if self.index_map.nrows != self.variable.dim:
            raise SourceProgramError(
                f"stream {self.name}: index map has {self.index_map.nrows} rows "
                f"but variable has {self.variable.dim} dimensions"
            )
        for row in self.index_map.rows:
            for c in row:
                if not isinstance(c, int):
                    raise SourceProgramError(
                        f"stream {self.name}: index map entries must be integers"
                    )

    @property
    def name(self) -> str:
        """Streams are referred to by their variable's name (cf. App. D)."""
        return self.variable.name

    @property
    def loop_arity(self) -> int:
        """The number of loop indices ``r`` the map consumes."""
        return self.index_map.ncols

    def check_rank(self) -> None:
        """Appendix A.1: the index map must have rank ``r - 1``."""
        r = self.loop_arity
        if self.index_map.nrows != r - 1:
            raise RequirementViolation(
                f"stream {self.name}: index map must be ({r-1}) x {r}, "
                f"got {self.index_map.shape}"
            )
        if self.index_map.rank != r - 1:
            raise RequirementViolation(
                f"stream {self.name}: index map rank {self.index_map.rank} != {r-1}"
            )

    def element_of(self, x: Point) -> Point:
        """The identity ``M.x`` of the element accessed by basic statement x.

        Integer dot products: the index map and the index points are
        integral, so the result needs no re-normalisation.
        """
        return tuple.__new__(
            Point, [sum(map(operator.mul, row, x)) for row in self.index_map.rows]
        )

    def null_direction(self) -> Point:
        """The spanning vector of ``null.M`` (rank r-1 guarantees dim 1).

        Two basic statements access the same element of this stream iff they
        differ by a multiple of this vector; it determines the stream's flow
        (Theorem 10).
        """
        self.check_rank()
        return null_space_vector(self.index_map)

    def __str__(self) -> str:
        return f"stream {self.name} (map {self.index_map!r})"
