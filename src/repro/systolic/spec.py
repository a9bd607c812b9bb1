"""The systolic-array specification: ``step``, ``place``, loading vectors.

``step :: Op -> Z`` is a ``1 x r`` integer matrix; ``place :: Op -> Z^{r-1}``
is an ``(r-1) x r`` integer matrix of rank ``r-1``.  Basic statements mapped
to the same step number execute in parallel; ``place`` projects the index
space onto the computation space.

Stationary streams (zero flow) additionally need a *loading & recovery
vector* supplied as part of the compilation (Section 4.2): the direction in
which their elements are pumped in before and out after the computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from repro.geometry.linalg import Matrix, null_space_vector
from repro.geometry.point import Point
from repro.util.errors import ReproError, SystolicSpecError


@dataclass(frozen=True)
class SystolicArray:
    """A linear systolic array: the pair ``(step, place)``.

    ``loading_vectors`` maps the name of each stationary stream to its
    loading & recovery vector in ``Z^{r-1}`` (must satisfy the neighbour
    predicate; checked during compilation).
    """

    step: Matrix
    place: Matrix
    loading_vectors: Mapping[str, Point] = field(default_factory=dict)
    name: str = "design"

    def __post_init__(self) -> None:
        if self.step.nrows != 1:
            raise SystolicSpecError(f"step must have one row, got {self.step.shape}")
        r = self.step.ncols
        if self.place.ncols != r:
            raise SystolicSpecError(
                f"place consumes {self.place.ncols} indices but step consumes {r}"
            )
        if self.place.nrows != r - 1:
            raise SystolicSpecError(
                f"place must be {r-1} x {r}, got {self.place.shape}"
            )
        if self.place.rank != r - 1:
            raise SystolicSpecError(
                f"place must have rank {r-1}, got {self.place.rank}"
            )
        for c in self.step.rows[0]:
            if not isinstance(c, int):
                raise SystolicSpecError("step coefficients must be integers")
        for row in self.place.rows:
            for c in row:
                if not isinstance(c, int):
                    raise SystolicSpecError("place coefficients must be integers")
        for name, vec in self.loading_vectors.items():
            if vec.dim != r - 1:
                raise SystolicSpecError(
                    f"loading vector for {name} must lie in Z^{r-1}, got {vec}"
                )
            if vec.is_zero:
                raise SystolicSpecError(f"loading vector for {name} must be non-zero")

    # ------------------------------------------------------------------
    @property
    def r(self) -> int:
        """Number of loop indices the distributions consume."""
        return self.step.ncols

    def step_of(self, x) -> int | object:
        """``step . x`` for a concrete or symbolic index point."""
        result = self.step.apply(list(x))[0]
        if isinstance(result, Fraction) and result.denominator == 1:
            return int(result)
        return result

    def place_of(self, x) -> Point:
        """``place . x`` for a concrete index point."""
        return self.place.apply_point(x)

    def null_place(self) -> Point:
        """The spanning vector of ``null.place`` (Theorems 1-2)."""
        return null_space_vector(self.place)

    def loading_vector(self, stream_name: str) -> Point:
        vec = self.loading_vectors.get(stream_name)
        if vec is None:
            raise SystolicSpecError(
                f"stream {stream_name} is stationary but no loading & recovery "
                "vector was supplied"
            )
        return vec

    def __str__(self) -> str:
        return (
            f"SystolicArray({self.name}: step {self.step.rows[0]}, "
            f"place rows {self.place.rows})"
        )


def array_from_spec(
    data: Mapping[str, Any], *, default_name: str = "design"
) -> SystolicArray:
    """A :class:`SystolicArray` from the JSON design-spec shape.

    The one design-spec parser: the document ``repro compile`` reads from
    disk, the compile service receives and the fuzz corpus embeds --
    ``step`` / ``place`` row lists plus optional ``loading`` vectors and
    ``name``.  A malformed document raises :class:`ReproError`.
    """
    if not isinstance(data, Mapping):
        raise ReproError(
            f"design spec must be a JSON object, got {type(data).__name__}"
        )
    for field_name in ("step", "place"):
        if field_name not in data:
            raise ReproError(f"design spec is missing the {field_name!r} rows")

    def ints(values) -> tuple[int, ...]:
        values = tuple(values)
        if not all(type(c) is int for c in values):  # True is no coefficient
            raise ReproError(
                f"design spec coefficients must be integers, got {list(values)}"
            )
        return values

    try:
        step = Matrix([ints(row) for row in data["step"]])
        place = Matrix([ints(row) for row in data["place"]])
        loading = {
            name: Point(ints(vec))
            for name, vec in (data.get("loading") or {}).items()
        }
    except ReproError:
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed design spec: {exc}") from None
    return SystolicArray(
        step=step,
        place=place,
        loading_vectors=loading,
        name=str(data.get("name", default_name)),
    )
