"""Exact geometry substrate (Section 2 of the paper).

Points are exact rational tuples; linear functions are exact rational
matrices.  No floating point is used anywhere in the compilation scheme, so
all derived programs are exact closed forms.
"""

from repro.geometry.point import Point, dot, sgn, nb, gcd_reduce, vector_quotient
from repro.geometry.linalg import Matrix, identity, solve_unique, null_space_vector
from repro.geometry.lattice import (
    Line,
    on_chord,
    lattice_points_on_vector,
    unit_distance,
    integer_direction,
)
from repro.geometry.rectangle import Rectangle

__all__ = [
    "Point",
    "dot",
    "sgn",
    "nb",
    "gcd_reduce",
    "vector_quotient",
    "Matrix",
    "identity",
    "solve_unique",
    "null_space_vector",
    "Line",
    "on_chord",
    "lattice_points_on_vector",
    "unit_distance",
    "integer_direction",
    "Rectangle",
]
