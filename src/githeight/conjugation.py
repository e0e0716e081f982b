"""Conjugation action on projective matrix space.

PGL_n acts on P(End(Q^n)) by conjugation; the quotient is the space of
characteristic polynomials.  A matrix class [phi] is semistable iff phi is
not nilpotent, and then the height of its image is computed from the
eigenvalues alone:

    h([charpoly]) = sum_p log max_i |lambda_i|_p  +  log sqrt(sum |lambda_i|^2).

The finite terms come exactly from Newton polygons of the characteristic
polynomial; the archimedean term from refined complex roots.  The local
instability measures compare eigenvalue size against matrix norm (sup of
entries at finite places, Frobenius or spectral norm at the archimedean
place); they vanish exactly when the matrix is minimal in its orbit, which
is decidable: reduction mod p not nilpotent at finite places, normality at
the archimedean place (equivalently, a vanishing moment map).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import (
    InputError,
    LengthMismatchError,
    NilpotentError,
    NonSquareError,
    NotSkewHermitianError,
    ZeroMatrixError,
)
from .exactpoly import ComplexMultiset, NewtonPolygon, PolyQ, charpoly, complex_roots, newton_polygon
from .heights import naive_height_coords
from .places import ARCHIMEDEAN, LogValue, Place, RationalLike, as_fraction, log_abs, support_primes, valuation

NORM_CHOICES = ("frobenius", "sup")


@dataclass(frozen=True)
class MatrixQ:
    """A square matrix over Q with exact entries.

    Examples:
        >>> MatrixQ.from_lists([[1, 1], [0, 1]]).n
        2
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in self.rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise NonSquareError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[RationalLike]]) -> "MatrixQ":
        return cls(tuple(tuple(as_fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @classmethod
    def from_json(cls, data) -> "MatrixQ":
        if not isinstance(data, (list, tuple)):
            raise InputError("matrix JSON must be an array of rows")
        return cls.from_lists(data)

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(x for row in self.rows for x in row)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def mul(self, other: "MatrixQ") -> "MatrixQ":
        if self.n != other.n:
            raise LengthMismatchError("matrix sizes differ")
        n = self.n
        return MatrixQ(tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        ))

    def transpose(self) -> "MatrixQ":
        n = self.n
        return MatrixQ(tuple(tuple(self.rows[j][i] for j in range(n)) for i in range(n)))

    def scaled(self, c: RationalLike) -> "MatrixQ":
        c = as_fraction(c)
        return MatrixQ(tuple(tuple(c * x for x in row) for row in self.rows))

    def to_complex_array(self) -> np.ndarray:
        return np.array([[complex(x) for x in row] for row in self.rows])


@dataclass(frozen=True)
class EigenData:
    """Characteristic polynomial plus its local root data.

    ``polygons`` holds one Newton polygon per prime dividing a coefficient
    of the nonzero-root part (at other primes the nonzero roots are units);
    ``arch_roots`` covers all n roots (zeros included), so its total equals
    the matrix size.
    """

    charpoly: PolyQ
    zero_multiplicity: int
    polygons: tuple[tuple[int, NewtonPolygon], ...]
    arch_roots: ComplexMultiset


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of a minimal-vector test at one place."""

    minimal: bool
    place: Place
    defect: float
    witness: str


def _require_nonzero(phi: MatrixQ) -> None:
    if phi.is_zero:
        raise ZeroMatrixError("the zero matrix has no projective class")


def charpoly_of(phi: MatrixQ) -> PolyQ:
    return charpoly(phi.rows)


def is_semistable_conj(phi: MatrixQ) -> bool:
    """Semistable under conjugation iff not nilpotent.

    Examples:
        >>> is_semistable_conj(MatrixQ.from_lists([[1, 1], [0, 1]]))
        True
        >>> is_semistable_conj(MatrixQ.from_lists([[0, 1], [0, 0]]))
        False
    """
    _require_nonzero(phi)
    _, k = charpoly_of(phi).shift_out_zero_roots()
    return k < phi.n


def eigen_data(phi: MatrixQ, tol: float = 1e-9) -> EigenData:
    """All root data of the characteristic polynomial in one bundle: one
    charpoly, one factoring of its coefficients and one root solve."""
    _require_nonzero(phi)
    cp = charpoly_of(phi)
    reduced, k = cp.shift_out_zero_roots()
    polygons = tuple((p, newton_polygon(reduced, p)) for p in support_primes(reduced.coeffs))
    return EigenData(cp, k, polygons, complex_roots(cp, tol))


def _eigen_height(data: EigenData) -> LogValue:
    """Quotient height from the eigenvalues: steepest Newton-polygon slopes
    at the primes, log sqrt(sum of squared root moduli) at oo."""
    if data.zero_multiplicity == data.charpoly.degree:
        raise NilpotentError("nilpotent matrix: no image in the quotient")
    return LogValue(
        {p: -polygon.min_root_valuation for p, polygon in data.polygons},
        0.5 * math.log(data.arch_roots.sum_abs_squared()),
    )


def naive_matrix_height(phi: MatrixQ) -> LogValue:
    """Height of [phi] in P(End): entry sup at finite places, Frobenius norm
    at the archimedean one.

    Examples:
        >>> h = naive_matrix_height(MatrixQ.from_lists([[1, 1], [0, 1]]))
        >>> abs(h.to_float() - 0.5 * math.log(3)) < 1e-15
        True
    """
    _require_nonzero(phi)
    return naive_height_coords(phi.entries)


def quotient_height_conj(phi: MatrixQ, tol: float = 1e-9) -> LogValue:
    """Height of the image of [phi] in the conjugation quotient.

    Exact finite parts from the steepest Newton-polygon slopes, archimedean
    part log sqrt(sum of squared root moduli).  Both are independent of the
    embedding because the root multiset is Galois-stable.

    Examples:
        >>> h = quotient_height_conj(MatrixQ.from_lists([[1, 1], [0, 1]]))
        >>> abs(h.to_float() - 0.5 * math.log(2)) < 1e-12
        True
    """
    return _eigen_height(eigen_data(phi, tol))


def _min_entry_valuation(phi: MatrixQ, p: int) -> int:
    return min(valuation(x, p) for x in phi.entries if x != 0)


def instability_conj(
    phi: MatrixQ,
    place: Place,
    norm: str = "frobenius",
    tol: float = 1e-9,
) -> LogValue:
    """Local instability measure of [phi]: log (inf conjugate norm / norm).

    The infimum of the norm over the conjugation orbit is the largest
    eigenvalue size (each place separately).  At finite places the matrix
    norm is the entry sup and the result is exact; at the archimedean place
    the norm is Frobenius or spectral per ``norm``.  Nilpotent matrices
    give -infinity.

    Examples:
        >>> phi = MatrixQ.from_lists([[1, 1], [0, 1]])
        >>> instability_conj(phi, Place.finite(2))
        LogValue(finite={}, arch=0.0)
    """
    if norm not in NORM_CHOICES:
        raise InputError(f"norm must be one of {NORM_CHOICES}")
    _require_nonzero(phi)
    cp = charpoly_of(phi)
    reduced, k = cp.shift_out_zero_roots()
    if k == phi.n:
        return LogValue.neg_infinity()
    if place.is_archimedean:
        return _arch_term(phi, complex_roots(cp, tol), norm)
    # k < n here, so the nonzero-root part has positive degree
    return _nonarch_term(phi, place.prime, newton_polygon(reduced, place.prime).min_root_valuation)


def _nonarch_term(phi: MatrixQ, p: int, root_valuation: RationalLike) -> LogValue:
    """log (largest |eigenvalue|_p / largest |entry|_p), exact."""
    return LogValue({p: _min_entry_valuation(phi, p) - root_valuation})


def _arch_term(phi: MatrixQ, roots: ComplexMultiset, norm: str) -> LogValue:
    if norm == "frobenius":
        eig = 0.5 * math.log(roots.sum_abs_squared())
        mat = 0.5 * log_abs(sum(x * x for x in phi.entries), ARCHIMEDEAN).arch
    else:
        eig = math.log(roots.max_abs())
        mat = math.log(float(np.linalg.norm(phi.to_complex_array(), 2)))
    return LogValue.from_arch(eig - mat)


def instability_all_conj(phi: MatrixQ, norm: str = "frobenius", tol: float = 1e-9) -> dict[Place, LogValue]:
    """Instability measures at every place where they can be nonzero.

    The places are the primes of the entries and of the nonzero-root part
    of the characteristic polynomial, ascending, then oo.  Every term comes
    from one :func:`eigen_data` record; nilpotent matrices give -infinity
    everywhere.
    """
    if norm not in NORM_CHOICES:
        raise InputError(f"norm must be one of {NORM_CHOICES}")
    return _instability_terms(phi, eigen_data(phi, tol), norm)


def _instability_terms(phi: MatrixQ, data: EigenData, norm: str) -> dict[Place, LogValue]:
    root_valuations = {p: polygon.min_root_valuation for p, polygon in data.polygons}
    primes = sorted(set(support_primes(phi.entries)) | set(root_valuations))
    places = [Place.finite(p) for p in primes] + [ARCHIMEDEAN]
    if data.zero_multiplicity == phi.n:
        return {place: LogValue.neg_infinity() for place in places}
    terms = {place: _nonarch_term(phi, place.prime, root_valuations.get(place.prime, 0))
             for place in places[:-1]}
    terms[ARCHIMEDEAN] = _arch_term(phi, data.arch_roots, norm)
    return terms


def is_minimal_arch(phi: MatrixQ, tol: float = 1e-12) -> MinimalityReport:
    """Minimal in its archimedean orbit iff normal; exact commutator test.

    Examples:
        >>> is_minimal_arch(MatrixQ.from_lists([[1, 0], [0, 2]])).minimal
        True
        >>> is_minimal_arch(MatrixQ.from_lists([[1, 1], [0, 1]])).minimal
        False
    """
    _require_nonzero(phi)
    t = phi.transpose()
    comm = [
        [a - b for a, b in zip(r1, r2)]
        for r1, r2 in zip(phi.mul(t).rows, t.mul(phi).rows)
    ]
    sq = sum(x * x for row in comm for x in row)
    norm2 = sum(x * x for x in phi.entries)
    defect = math.sqrt(float(sq)) / float(norm2)
    # entries are exact rationals, so the commutator test is exact; tol
    # would only matter for a float-entried variant
    del tol
    minimal = sq == 0
    return MinimalityReport(
        minimal,
        ARCHIMEDEAN,
        defect,
        "commutator phi phi^T - phi^T phi vanishes" if minimal else f"relative commutator norm {defect:.3e}",
    )


def is_minimal_nonarch(phi: MatrixQ, p: int) -> MinimalityReport:
    """Minimal at p iff the unit-scaled reduction mod p is not nilpotent.

    Scale so the smallest entry valuation is 0, reduce mod p, and test the
    exact characteristic polynomial of the reduction against T^n.

    Examples:
        >>> is_minimal_nonarch(MatrixQ.from_lists([[1, 1], [0, 1]]), 2).minimal
        True
        >>> is_minimal_nonarch(MatrixQ.from_lists([[2, 1], [4, 2]]), 2).minimal
        False
    """
    _require_nonzero(phi)
    place = Place.finite(p)
    vmin = _min_entry_valuation(phi, p)
    scaled = phi.scaled(Fraction(p) ** (-vmin))
    lift = []
    for row in scaled.rows:
        lift_row = []
        for x in row:
            if valuation(x, p) > 0:
                lift_row.append(0)
            else:
                lift_row.append(x.numerator * pow(x.denominator, -1, p) % p)
        lift.append(lift_row)
    cp = charpoly(lift)
    mod_coeffs = [int(c) % p for c in cp.coeffs]
    minimal = any(c != 0 for c in mod_coeffs[:-1])
    witness = "charpoly of reduction mod {}: [{}]".format(
        p, ", ".join(str(c) for c in mod_coeffs)
    )
    return MinimalityReport(minimal, place, 0.0 if minimal else 1.0, witness)


def skew_hermitian_basis(n: int) -> list[np.ndarray]:
    """Standard real basis of the skew-hermitian n x n matrices."""
    out = []
    for k in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[k, k] = 1j
        out.append(m)
    for k in range(n):
        for l in range(k + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[k, l], m[l, k] = 1.0, -1.0
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[k, l], m[l, k] = 1j, 1j
            out.append(m)
    return out


def moment_map_conj(
    phi: Union[MatrixQ, np.ndarray],
    direction: np.ndarray,
    tol: float = 1e-12,
) -> float:
    """Moment-map pairing <[A, phi], phi> / (2 i pi ||phi||^2), a real number.

    ``direction`` must be skew-hermitian within tol.  The pairing vanishes
    for every direction iff phi is normal, i.e. minimal in its orbit.
    """
    a = np.asarray(direction, dtype=complex)
    m = phi.to_complex_array() if isinstance(phi, MatrixQ) else np.asarray(phi, dtype=complex)
    if a.shape != m.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError("direction and matrix must be square and same size")
    scale = max(1.0, float(np.linalg.norm(a)))
    if float(np.linalg.norm(a + a.conj().T)) > tol * scale:
        raise NotSkewHermitianError("direction is not skew-hermitian within tolerance")
    norm2 = float(np.vdot(m, m).real)
    if norm2 == 0.0:
        raise ZeroMatrixError("moment map undefined for the zero matrix")
    bracket = a @ m - m @ a
    pairing = complex(np.trace(bracket @ m.conj().T))
    return (pairing / (2j * math.pi * norm2)).real


def fundamental_formula_residual_conj(phi: MatrixQ, tol: float = 1e-9) -> float:
    """naive height + sum of local measures - quotient height, as a float.

    The finite parts cancel dictionary-exactly by construction; the
    returned float only carries archimedean rounding.
    """
    data = eigen_data(phi, tol)
    height = _eigen_height(data)
    total = naive_matrix_height(phi)
    for term in _instability_terms(phi, data, "frobenius").values():
        total = total + term
    return (total - height).to_float()


def orbit_sampling_bound(phi: MatrixQ, samples: int = 200, seed: int = 0) -> LogValue:
    """Minimum naive height over sampled SL_n(Q) conjugates of phi.

    Sample 0 is the identity; later samples conjugate by products of 1 to 4
    elementary shears I + c E_ij with small rational c, seeded and
    deterministic.  The inverse is accumulated as the reversed product of
    negated shears, so conjugation is exact.  The result can never drop
    below the quotient height.

    Examples:
        >>> v = orbit_sampling_bound(MatrixQ.identity(2), samples=5, seed=1)
        >>> abs(v.to_float() - 0.5 * math.log(2)) < 1e-15
        True
    """
    _require_nonzero(phi)
    if samples < 1:
        raise InputError("need at least one sample")
    rng = random.Random(seed)
    n = phi.n
    best = naive_matrix_height(phi)
    for _ in range(samples - 1):
        g = MatrixQ.identity(n)
        ginv = MatrixQ.identity(n)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            shear_rows = [[Fraction(int(r == s)) for s in range(n)] for r in range(n)]
            shear_rows[i][j] = c
            shear = MatrixQ.from_lists(shear_rows)
            shear_rows[i][j] = -c
            g = g.mul(shear)
            ginv = MatrixQ.from_lists(shear_rows).mul(ginv)
        h = naive_matrix_height(g.mul(phi).mul(ginv))
        if h.to_float() < best.to_float():
            best = h
    return best
