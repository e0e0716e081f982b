"""Naive projective heights and exact Arakelov degrees of rational lattices.

The naive height of a point (x_0 : ... : x_n) over Q is

    h(x) = sum_p max_i log|x_i|_p  +  (1/2) log(sum_i x_i^2),

the finite part exact in the log(p) basis, the archimedean part the log of
the euclidean norm.  It is scaling-invariant by the product formula.

A lattice with a rational positive-definite Gram matrix has exact degree
-(1/2) log det(Gram): the determinant is a positive rational, so its log
lives entirely in the exact finite basis.  Slopes divide by the rank and
stay exact; twisting by metrized lines shifts minima by exact multiples of
the line slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    AllZeroError,
    InputError,
    LengthMismatchError,
    NonSquareError,
    NotPositiveDefiniteError,
)
from .places import (
    LogValue,
    RationalLike,
    _log_sum_squares,
    as_fraction,
    exact_log_abs_arch,
    valuation_table,
)


@dataclass(frozen=True)
class ProjectivePointQ:
    """A point of P^n(Q) as exact homogeneous coordinates, not all zero.

    Examples:
        >>> ProjectivePointQ.parse("2:2:1").coords
        (Fraction(2, 1), Fraction(2, 1), Fraction(1, 1))
        >>> ProjectivePointQ.parse("1:2") == ProjectivePointQ.parse("2:4")
        True
    """

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(as_fraction(c) for c in self.coords)
        if not coords or all(c == 0 for c in coords):
            raise AllZeroError("projective coordinates cannot all vanish")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def parse(cls, text: str) -> "ProjectivePointQ":
        parts = [s for s in text.strip().split(":") if s.strip()]
        if not parts:
            raise InputError(f"expected colon-separated coordinates, got {text!r}")
        return cls(tuple(as_fraction(s) for s in parts))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def normalized(self) -> tuple[Fraction, ...]:
        """Scale so the first nonzero coordinate is 1 (canonical form)."""
        pivot = next(c for c in self.coords if c != 0)
        return tuple(c / pivot for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePointQ):
            return NotImplemented
        return len(self.coords) == len(other.coords) and self.normalized() == other.normalized()

    def __hash__(self):
        return hash(self.normalized())

    def __str__(self):
        return ":".join(str(c) for c in self.coords)


def naive_height_coords(coords: Sequence[RationalLike]) -> LogValue:
    """Height of a coordinate vector; shared by points and matrices."""
    xs = [as_fraction(c) for c in coords]
    return _naive_height(xs, valuation_table(xs))


def _naive_height(xs: Sequence[Fraction], table: dict[int, list]) -> LogValue:
    """Height of the coordinates xs with their valuation table (zeros may be left out)."""
    # the table's keys are proven primes, and some entry at each is finite
    finite = {p: Fraction(-min(vals)) for p, vals in table.items()}
    return LogValue._of_primes(finite, 0.5 * _log_sum_squares(xs))


def naive_height(x: ProjectivePointQ) -> LogValue:
    """Naive height with euclidean archimedean norm.

    Examples:
        >>> h = naive_height(ProjectivePointQ.parse("2:2:1"))
        >>> dict(h.finite), abs(h.to_float() - math.log(3)) <= 1e-9
        ({}, True)
    """
    return naive_height_coords(x.coords)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermitianLattice:
    """Z^n with a rational symmetric positive-definite Gram matrix.

    Positive definiteness is certified exactly: elimination without row
    swaps produces the ratios of leading principal minors, all of which
    must be positive.

    Examples:
        >>> HermitianLattice.from_rows([[4]]).det
        Fraction(4, 1)
    """

    gram: tuple[tuple[Fraction, ...], ...]
    det: Fraction

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "HermitianLattice":
        g = [[as_fraction(x) for x in row] for row in rows]
        n = len(g)
        if n == 0 or any(len(row) != n for row in g):
            raise NonSquareError("Gram matrix must be square and nonempty")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise InputError("Gram matrix must be symmetric")
        det = _positive_definite_det(g)
        return cls(tuple(tuple(row) for row in g), det)

    @property
    def rank(self) -> int:
        return len(self.gram)


def _positive_definite_det(g: list[list[Fraction]]) -> Fraction:
    """Determinant via pivots; every pivot must be positive (exact check)."""
    n = len(g)
    a = [row[:] for row in g]
    det = Fraction(1)
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            raise NotPositiveDefiniteError(
                f"leading principal minor of order {k + 1} is not positive"
            )
        det *= pivot
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det


def arakelov_degree(lattice: HermitianLattice) -> LogValue:
    """deg = -(1/2) log det(Gram), exact in the log(p) basis.

    Examples:
        >>> arakelov_degree(HermitianLattice.from_rows([[4]]))
        LogValue(finite={2: -1}, arch=0.0)
    """
    return exact_log_abs_arch(lattice.det).scaled(Fraction(-1, 2))


def slope(lattice: HermitianLattice) -> LogValue:
    """Degree divided by rank; stays exact."""
    return arakelov_degree(lattice).scaled(Fraction(1, lattice.rank))


def twist_shift(
    base_min_height: LogValue,
    multipliers: Sequence[RationalLike],
    line_slopes: Sequence[LogValue],
) -> LogValue:
    """Minimal height after twisting by metrized lines with given exponents.

    Twisting by the a_i-th powers of lines of slope mu_i shifts every
    height, hence the minimum, by -sum a_i mu_i.  Zero exponents leave the
    height unchanged.

    Examples:
        >>> twist_shift(LogValue.zero(), [0, 0], [LogValue({2: 1}), LogValue({3: 1})])
        LogValue(finite={}, arch=0.0)
    """
    if len(multipliers) != len(line_slopes):
        raise LengthMismatchError(
            f"{len(multipliers)} multipliers vs {len(line_slopes)} slopes"
        )
    shift = LogValue.zero()
    for a, mu in zip(multipliers, line_slopes):
        shift = shift + mu.scaled(as_fraction(a))
    return base_min_height - shift
