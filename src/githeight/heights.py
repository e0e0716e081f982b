"""Naive projective heights and their shift under twisting.

The naive height of a point (x_0 : ... : x_n) over Q is

    h(x) = sum_p max_i log|x_i|_p  +  (1/2) log(sum_i x_i^2),

the finite part exact in the log(p) basis, the archimedean part the log of
the euclidean norm.  It is scaling-invariant by the product formula.

Twisting by metrized lines shifts minimal heights by exact multiples of
the line slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .places import (
    LogValue,
    RationalLike,
    _log_sum_squares,
    as_fraction,
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
            raise InputError("projective coordinates cannot all vanish")
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
    return _naive_height(valuation_table(xs), 0.5 * _log_sum_squares(xs))


def _naive_height(table: dict[int, list], arch: float) -> LogValue:
    """Height of coordinates from their valuation table (zeros may be left
    out) and arch, the log of their euclidean norm."""
    # the table's keys are proven primes, and some entry at each is finite
    finite = {p: Fraction(-min(vals)) for p, vals in table.items()}
    return LogValue._of_primes(finite, arch)


def naive_height(x: ProjectivePointQ) -> LogValue:
    """Naive height with euclidean archimedean norm.

    Examples:
        >>> h = naive_height(ProjectivePointQ.parse("2:2:1"))
        >>> dict(h.finite), abs(h.to_float() - math.log(3)) <= 1e-9
        ({}, True)
    """
    return naive_height_coords(x.coords)


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
        raise InputError(f"{len(multipliers)} multipliers vs {len(line_slopes)} slopes")
    shift = LogValue.zero()
    for a, mu in zip(multipliers, line_slopes):
        shift = shift + mu.scaled(as_fraction(a))
    return base_min_height - shift
