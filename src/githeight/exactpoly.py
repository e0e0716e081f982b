"""Exact polynomials over Q, Newton polygons, and refined complex roots.

Three views of the same root multiset feed the height computations:

* exact coefficients (:class:`PolyQ`, ascending order, Fractions only),
* p-adic root valuations read off the lower Newton polygon
  (:class:`NewtonPolygon`; root valuations are the negatives of the hull
  slopes, so the steepest segment carries the largest |root|_p),
* floating complex roots (:func:`complex_roots`), one value per root, from
  companion-matrix eigenvalues polished by Aberth-Ehrlich iteration.

Characteristic polynomials are exact and run on Python ints: the entry
denominators are cleared first, then Berkowitz's division-free recurrence
runs over Z.  Newton polygons take their hull on integer points too and
build a Fraction only for each vertex and slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError, NoConvergenceError
from .places import RationalLike, _valuation, as_fraction, is_prime

_ABERTH_MAX_SWEEPS = 200
_ROOT_TOL = 1e-9  # Aberth stops once every root z has |f(z)| <= _ROOT_TOL * sum |c_i| |z|^i


@dataclass(frozen=True)
class PolyQ:
    """A nonzero polynomial over Q, coefficients ascending (a_0 first).

    Examples:
        >>> f = PolyQ([-2, 0, 1])   # T^2 - 2
        >>> f.degree, f.coeffs[0]
        (2, Fraction(-2, 1))
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(as_fraction(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            raise InputError("the zero polynomial is not allowed here")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def shift_out_zero_roots(self) -> tuple["PolyQ", int]:
        """Write f = T^k * g with g(0) != 0; returns (g, k)."""
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return PolyQ(self.coeffs[k:]), k


def charpoly(rows: Sequence[Sequence[RationalLike]]) -> PolyQ:
    """Exact characteristic polynomial det(T*I - A), ascending coefficients.

    The denominators are cleared first: with d the lcm of the entry
    denominators, B = d*A is an integer matrix and chi_A(T) = d^-n chi_B(d T).
    chi_B comes from Berkowitz's division-free recurrence over Z: for the
    leading k x k block with last row (r, b_kk), last column (s, b_kk) and
    leading (k-1) x (k-1) block M, the coefficients of chi_k are the lower
    triangular Toeplitz matrix with first column
    [1, -b_kk, -r s, -r M s, ..., -r M^(k-2) s] applied to those of chi_(k-1).

    Examples:
        >>> charpoly([[2, 0], [0, 3]]).coeffs
        (Fraction(6, 1), Fraction(-5, 1), Fraction(1, 1))
        >>> charpoly([[Fraction(1, 2), 1], [0, Fraction(1, 3)]]).coeffs
        (Fraction(1, 6), Fraction(-5, 6), Fraction(1, 1))
    """
    a = [[as_fraction(x) for x in row] for row in rows]
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise InputError("characteristic polynomial needs a square matrix")
    d = math.lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (d // x.denominator) for x in row] for row in a]
    # descending coefficients of chi of the leading k x k block, chi_1 = T - b_11
    chi = [1, -b[0][0]]
    for k in range(1, n):
        m = [row[:k] for row in b[:k]]
        r = b[k][:k]
        v = [row[k] for row in b[:k]]  # M^j s, from j = 0
        col = [1, -b[k][k], -sum(x * y for x, y in zip(r, v))]
        for _ in range(k - 1):
            v = [sum(x * y for x, y in zip(row, v)) for row in m]
            col.append(-sum(x * y for x, y in zip(r, v)))
        chi = [sum(col[i - j] * chi[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
               for i in range(k + 2)]
    # chi_A(T) = d^-n chi_B(d T), so the coefficient of T^(n-i) is chi[i] / d^i
    return PolyQ(tuple(Fraction(c, d ** i) for i, c in enumerate(chi))[::-1])


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonPolygon:
    """Lower Newton polygon of a polynomial at a prime.

    ``vertices`` are the hull corners (i, v_p(a_i)) left to right,
    ``segments`` are (slope, horizontal length) with slopes strictly
    increasing.  A segment of slope s and length l certifies l roots of
    valuation -s; zero roots are split off beforehand and counted in
    ``zero_root_multiplicity``.
    """

    prime: int
    vertices: tuple[tuple[int, Fraction], ...]
    segments: tuple[tuple[Fraction, int], ...]
    zero_root_multiplicity: int

    def root_valuations(self) -> list[Fraction]:
        """Valuations of the nonzero roots, with multiplicity, decreasing."""
        out: list[Fraction] = []
        for slope, length in self.segments:
            out.extend([-slope] * length)
        return out

    @property
    def min_root_valuation(self) -> Fraction:
        """Valuation of the largest root: -(steepest slope)."""
        if not self.segments:
            raise InputError("polygon has no nonzero roots")
        return -self.segments[-1][0]

    @classmethod
    def from_valuations(cls, p: int, valuations: Sequence[int | float],
                        zero_root_multiplicity: int = 0) -> "NewtonPolygon":
        """Lower convex hull of {(i, v_i) : v_i finite}, where v_i = v_p(a_i)
        are the valuations of the coefficients after removing T^k."""
        hull: list[tuple[int, int]] = []  # exact integer points; Fractions only on output
        for x, y in enumerate(valuations):
            if y == math.inf:
                continue
            # keep only strict slope increases; collinear middle points drop out
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (x2 - x1) * (y - y1) <= (y2 - y1) * (x - x1):
                    hull.pop()
                else:
                    break
            hull.append((x, y))
        segments = tuple(
            (Fraction(y2 - y1, x2 - x1), x2 - x1)
            for (x1, y1), (x2, y2) in zip(hull, hull[1:])
        )
        vertices = tuple((x, Fraction(y)) for x, y in hull)
        return cls(p, vertices, segments, zero_root_multiplicity)


def newton_polygon(f: PolyQ, p: int) -> NewtonPolygon:
    """Lower convex hull of {(i, v_p(a_i)) : a_i != 0} after removing T^k.

    Examples:
        >>> np2 = newton_polygon(PolyQ([-2, 0, 1]), 2)  # T^2 - 2
        >>> np2.root_valuations()
        [Fraction(1, 2), Fraction(1, 2)]
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    g, k = f.shift_out_zero_roots()
    return NewtonPolygon.from_valuations(p, [_valuation(c, p) for c in g.coeffs], k)


# ---------------------------------------------------------------------------
# complex roots
# ---------------------------------------------------------------------------

def log_root_norm(roots: Sequence[complex]) -> float:
    """log sqrt(sum of squared root moduli), scaled so no square overflows;
    math.fsum rounds once, so the order of the roots cannot change it."""
    big = max(map(abs, roots))
    return math.log(big) + 0.5 * math.log(math.fsum((abs(z) / big) ** 2 for z in roots))


def _horner(coeffs: list[float], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _residual_scale(coeffs: list[float], z: complex) -> float:
    """sum |c_i| |z|^i of real c_i by Horner's rule, so no power of |z| overflows alone."""
    scale = _horner([abs(c) for c in coeffs], abs(z)).real
    if not math.isfinite(scale):
        raise NoConvergenceError("root size exceeds double precision")
    return scale or 1.0


def _aberth(coeffs: list[float]) -> list[complex]:
    """All roots, closed under conjugation exactly; coeffs real, ascending,
    both end coefficients nonzero.

    The start is np.roots: LAPACK's real eigensolver returns real roots
    exactly real and complex roots as exact conjugate pairs, the upper
    member first.  Each Aberth-Ehrlich sweep moves the real roots along the
    real axis and each upper member, then conjugates it into its partner.
    """
    deg = len(coeffs) - 1
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    z = [complex(w) for w in np.roots(coeffs[::-1])]
    # pairs by exact equality, never by distance
    upper = {i for i in range(deg - 1) if z[i].imag > 0 and z[i + 1] == z[i].conjugate()}
    movers = sorted(upper | {i for i in range(deg) if z[i].imag == 0})
    sweeps = 0
    while not all(abs(_horner(coeffs, zi)) <= _ROOT_TOL * _residual_scale(coeffs, zi) for zi in z):
        if sweeps == _ABERTH_MAX_SWEEPS:
            raise NoConvergenceError(
                f"root refinement did not reach tolerance {_ROOT_TOL} in {_ABERTH_MAX_SWEEPS} sweeps")
        sweeps += 1
        for i in movers:
            if any(z[j] == z[i] for j in range(deg) if j != i):
                # Aberth's repulsion needs distinct approximations; the upper
                # member of a pair that reached the real axis moves off it
                z[i] += (1e-7 + 1e-7j if i in upper else 1e-7) * (1.0 + abs(z[i]))
            pz = _horner(coeffs, z[i])
            s = sum(1.0 / (z[i] - z[j]) for j in range(deg) if z[j] != z[i])
            # the Newton step p/p' over 1 - (p/p') s, without dividing by p'
            denom = _horner(dcoeffs, z[i]) - pz * s
            if pz != 0 and denom != 0:
                step = pz / denom
                z[i] -= step if i in upper else step.real
            if i in upper:
                z[i + 1] = z[i].conjugate()
    return z


def complex_roots(f: PolyQ) -> tuple[complex, ...]:
    """The n roots of f of degree n, zeros included, sorted by (real, imag)
    and closed under conjugation: real roots exactly real, the others in
    exact conjugate pairs.  A repeated root comes back as that many values.

    :func:`_aberth` runs on the real coefficients, scaled to at most 1, until
    every residual satisfies |f(z)| <= 1e-9 * scale(z), for at most 200
    sweeps.  NoConvergenceError beyond the cap or the double range.

    Examples:
        >>> roots = complex_roots(PolyQ([1, -2, 1]))  # (T-1)^2
        >>> [round(z.real, 6) for z in roots], [z.imag for z in roots]
        ([1.0, 1.0], [0.0, 0.0])
    """
    g, k = f.shift_out_zero_roots()
    scale = max(abs(c) for c in g.coeffs)
    coeffs = [float(c / scale) for c in g.coeffs]
    # np.roots divides by the leading coefficient
    if coeffs[0] == 0.0 or coeffs[-1] == 0.0 or not all(
            math.isfinite(c / coeffs[-1]) for c in coeffs):
        raise NoConvergenceError("coefficient range exceeds double precision")
    return tuple(sorted([0j] * k + _aberth(coeffs), key=lambda z: (z.real, z.imag)))
