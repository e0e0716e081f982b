"""Exact polynomials over Q, Newton polygons, and refined complex roots.

Three views of the same root multiset feed the height computations:

* exact coefficients (:class:`PolyQ`, ascending order, Fractions only),
* p-adic root valuations read off the lower Newton polygon
  (:class:`NewtonPolygon`; root valuations are the negatives of the hull
  slopes, so the steepest segment carries the largest |root|_p),
* floating complex roots (:class:`ComplexMultiset`), computed from
  companion-matrix eigenvalues and polished by Aberth-Ehrlich iteration.

Characteristic polynomials are computed exactly by the Faddeev-LeVerrier
recurrence; the divisions it performs are exact over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AllRootsZeroError,
    InputError,
    NoConvergenceError,
    NonSquareError,
    ZeroPolynomialError,
)
from .places import RationalLike, as_fraction, valuation

_ABERTH_MAX_SWEEPS = 200


@dataclass(frozen=True)
class PolyQ:
    """A nonzero polynomial over Q, coefficients ascending (a_0 first).

    Examples:
        >>> f = PolyQ.from_coeffs([-2, 0, 1])   # T^2 - 2
        >>> f.degree, f.evaluate(Fraction(2))
        (2, Fraction(2, 1))
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(as_fraction(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            raise ZeroPolynomialError("the zero polynomial is not allowed here")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[RationalLike]) -> "PolyQ":
        return cls(tuple(as_fraction(c) for c in coeffs))

    @classmethod
    def from_roots(cls, roots: Iterable[RationalLike], lead: RationalLike = 1) -> "PolyQ":
        """lead * prod (T - r) expanded exactly; used as a test oracle."""
        out = [as_fraction(lead)]
        for r in roots:
            r = as_fraction(r)
            out = [Fraction(0)] + out
            for i in range(len(out) - 1):
                out[i] -= r * out[i + 1]
        return cls(tuple(out))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def evaluate(self, x: RationalLike) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        if not isinstance(other, PolyQ):
            return NotImplemented
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyQ(tuple(out))

    def shift_out_zero_roots(self) -> tuple["PolyQ", int]:
        """Write f = T^k * g with g(0) != 0; returns (g, k)."""
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return PolyQ(self.coeffs[k:]), k

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence) -> "PolyQ":
        if not isinstance(data, (list, tuple)):
            raise InputError("polynomial JSON must be a coefficient array")
        return cls.from_coeffs(data)


def charpoly(rows: Sequence[Sequence[RationalLike]]) -> PolyQ:
    """Exact characteristic polynomial det(T*I - A), ascending coefficients.

    Faddeev-LeVerrier recurrence over Fractions: M <- A(M + c I) with
    c_k = -tr(A M)/k, all divisions exact.

    Examples:
        >>> charpoly([[2, 0], [0, 3]]).coeffs
        (Fraction(6, 1), Fraction(-5, 1), Fraction(1, 1))
    """
    a = [[as_fraction(x) for x in row] for row in rows]
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise NonSquareError("characteristic polynomial needs a square matrix")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [
            [sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        m = [
            [am[i][j] + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    return PolyQ(tuple(coeffs))


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
            raise AllRootsZeroError("polygon has no nonzero roots")
        return -self.segments[-1][0]


def newton_polygon(f: PolyQ, p: int) -> NewtonPolygon:
    """Lower convex hull of {(i, v_p(a_i)) : a_i != 0} after removing T^k.

    Examples:
        >>> np2 = newton_polygon(PolyQ.from_coeffs([-2, 0, 1]), 2)  # T^2 - 2
        >>> np2.root_valuations()
        [Fraction(1, 2), Fraction(1, 2)]
    """
    g, k = f.shift_out_zero_roots()
    pts = [
        (i, Fraction(valuation(c, p)))
        for i, c in enumerate(g.coeffs)
        if c != 0
    ]
    hull: list[tuple[int, Fraction]] = []
    for pt in pts:
        # keep only strict slope increases; collinear middle points drop out
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = tuple(
        ((hull[i + 1][1] - hull[i][1]) / Fraction(hull[i + 1][0] - hull[i][0]),
         hull[i + 1][0] - hull[i][0])
        for i in range(len(hull) - 1)
    )
    return NewtonPolygon(p, tuple(hull), segments, k)


def max_root_log_abs(f: PolyQ, p: int):
    """log max_i |root_i|_p as an exact LogValue at the prime p.

    The largest p-adic root size is p^(-m) where m is the smallest root
    valuation, i.e. the negative of the steepest hull slope.

    Examples:
        >>> max_root_log_abs(PolyQ.from_coeffs([6, -5, 1]), 2)
        LogValue(finite={}, arch=0.0)
    """
    from .places import LogValue

    polygon = newton_polygon(f, p)
    if not polygon.segments:
        raise AllRootsZeroError("no nonzero roots: largest |root|_p undefined")
    return LogValue({p: -polygon.min_root_valuation})


# ---------------------------------------------------------------------------
# complex roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexMultiset:
    """Clustered complex roots as (value, multiplicity) pairs.

    Closed under conjugation by construction: real representatives have
    imaginary part exactly 0.0 and non-real ones come in exact conjugate
    pairs.
    """

    entries: tuple[tuple[complex, int], ...]

    def expanded(self) -> list[complex]:
        out: list[complex] = []
        for z, m in self.entries:
            out.extend([z] * m)
        return out

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def sum_abs_squared(self) -> float:
        return math.fsum(m * (z.real * z.real + z.imag * z.imag) for z, m in self.entries)

    def max_abs(self) -> float:
        return max(abs(z) for z, _ in self.entries)


def _horner(coeffs: list[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _residual_scale(coeffs: list[complex], z: complex) -> float:
    r = abs(z)
    return math.fsum(abs(c) * r ** i for i, c in enumerate(coeffs)) or 1.0


def _aberth(coeffs: list[complex], tol: float) -> list[complex]:
    """Polish all roots simultaneously; coeffs ascending, leading nonzero."""
    deg = len(coeffs) - 1
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    init = np.roots(coeffs[::-1])
    if len(init) != deg or not np.all(np.isfinite(init)):
        radius = 1.0 + max(abs(c / coeffs[-1]) for c in coeffs[:-1])
        init = radius * np.exp(2j * np.pi * (np.arange(deg) + 0.25) / deg)
    z = [complex(w) for w in init]
    # deterministic nudge so the Aberth denominators never start at zero
    for i in range(deg):
        for j in range(i):
            if abs(z[i] - z[j]) < 1e-12 * (1.0 + abs(z[i])):
                z[i] += (1e-7 + 1e-7j) * (i + 1) * (1.0 + abs(z[i]))
    for _ in range(_ABERTH_MAX_SWEEPS):
        if all(abs(_horner(coeffs, zi)) <= tol * _residual_scale(coeffs, zi) for zi in z):
            return z
        moved = 0.0
        for i in range(deg):
            pz = _horner(coeffs, z[i])
            dz = _horner(dcoeffs, z[i])
            if dz == 0:
                z[i] += (1e-7 + 1e-7j) * (1.0 + abs(z[i]))
                moved = math.inf
                continue
            newton = pz / dz
            s = 0j
            for j in range(deg):
                if j != i:
                    diff = z[i] - z[j]
                    if diff != 0:
                        s += 1.0 / diff
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            z[i] -= step
            moved = max(moved, abs(step))
        if moved <= 1e-16 * (1.0 + max(abs(zi) for zi in z)):
            break
    if all(abs(_horner(coeffs, zi)) <= tol * _residual_scale(coeffs, zi) for zi in z):
        return z
    raise NoConvergenceError(
        f"root refinement did not reach tolerance {tol} in {_ABERTH_MAX_SWEEPS} sweeps"
    )


def _symmetrize(roots: list[complex]) -> list[complex]:
    """Snap near-real roots to the real axis and force exact conjugate pairs."""
    reals: list[complex] = []
    upper: list[complex] = []
    lower: list[complex] = []
    for z in roots:
        if abs(z.imag) <= 1e-9 * (1.0 + abs(z)):
            reals.append(complex(z.real, 0.0))
        elif z.imag > 0:
            upper.append(z)
        else:
            lower.append(z)
    paired: list[complex] = []
    lower_left = list(lower)
    for z in upper:
        if lower_left:
            best = min(lower_left, key=lambda w: abs(w - z.conjugate()))
            lower_left.remove(best)
            avg = (z + best.conjugate()) / 2
            paired.extend([avg, avg.conjugate()])
        else:
            paired.extend([z, z.conjugate()])
    reals.extend(complex(w.real, 0.0) for w in lower_left)
    return reals + paired


def complex_roots(f: PolyQ, tol: float = 1e-9) -> ComplexMultiset:
    """All complex roots, multiplicity-clustered, conjugation-closed.

    Companion-matrix eigenvalues initialize an Aberth-Ehrlich sweep that
    runs until every residual satisfies |f(z)| <= tol * scale(z), with a
    hard cap of 200 sweeps (NoConvergenceError beyond).  Roots are then
    clustered at a 1e-6 relative radius to recover multiplicities.

    Examples:
        >>> roots = complex_roots(PolyQ.from_coeffs([1, -2, 1]))  # (T-1)^2
        >>> [(round(z.real, 9), m) for z, m in roots.entries]
        [(1.0, 2)]
    """
    g, k = f.shift_out_zero_roots()
    entries: list[tuple[complex, int]] = []
    if k:
        entries.append((0j, k))
    if g.degree > 0:
        scale = max(abs(c) for c in g.coeffs)
        coeffs = [float(c / scale) for c in g.coeffs]
        if coeffs[-1] == 0.0:
            raise NoConvergenceError("coefficient range exceeds double precision")
        refined = _symmetrize(_aberth([complex(c) for c in coeffs], tol))
        clusters: list[list[complex]] = []
        for z in sorted(refined, key=lambda w: (w.real, w.imag)):
            for cl in clusters:
                center = sum(cl) / len(cl)
                if abs(z - center) <= 1e-6 * (1.0 + abs(center)):
                    cl.append(z)
                    break
            else:
                clusters.append([z])
        for cl in clusters:
            center = sum(cl) / len(cl)
            if abs(center.imag) == 0.0:
                center = complex(center.real, 0.0)
            entries.append((center, len(cl)))
    entries.sort(key=lambda e: (e[0].real, e[0].imag))
    return ComplexMultiset(tuple(entries))
