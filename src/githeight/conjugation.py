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

import functools
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
    NonPositiveError,
    NonSquareError,
    NotSkewHermitianError,
    ZeroMatrixError,
)
from .exactpoly import ComplexMultiset, NewtonPolygon, PolyQ, charpoly, complex_roots
from .heights import _naive_height, naive_height_coords
from .places import (
    ARCHIMEDEAN,
    LogValue,
    Place,
    RationalLike,
    _is_int,
    _LastInput,
    _log_sum_squares,
    _require_place,
    _valuation,
    as_fraction,
    valuation_table,
)

NORM_CHOICES = ("frobenius", "sup")
_SKEW_TOL = 1e-12  # how far from skew-hermitian a moment-map direction may be, relative to its norm


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
        # a row that is not a list would fail later as a TypeError on iteration
        if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
            raise InputError("a matrix must be an array of rows, each an array")
        return cls(tuple(rows))

    from_json = from_lists

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

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


@dataclass(frozen=True)
class EigenData:
    """Characteristic polynomial plus its local root data.

    ``polygons`` holds one Newton polygon per prime at which a nonzero root
    may be a nonunit (see :func:`eigen_data`), none for a nilpotent matrix;
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


class _MatrixRecord:
    """One matrix's local data, each part computed on first use and kept:
    the charpoly, its nonzero-root part and zero-root count, the complex
    roots, d and g (see :func:`eigen_data`), the Newton polygon at each prime
    asked for and the valuation table of the entries.  A part whose
    computation raises is not kept, so the next call raises again.
    """

    def __init__(self, phi: MatrixQ):
        self.phi, self._polygons = phi, {}

    @functools.cached_property
    def charpoly(self) -> PolyQ:
        return charpoly(self.phi.rows)

    @functools.cached_property
    def reduced(self) -> tuple[PolyQ, int]:
        return self.charpoly.shift_out_zero_roots()

    @property
    def nilpotent(self) -> bool:
        return self.reduced[1] == self.phi.n

    @functools.cached_property
    def roots(self) -> ComplexMultiset:
        return complex_roots(self.charpoly)

    @functools.cached_property
    def d_and_g(self) -> tuple[int, int]:
        return (math.lcm(*(x.denominator for x in self.phi.entries)),
                math.gcd(*(c.numerator for c in self.reduced[0].coeffs[:-1])))

    def polygon(self, p: int) -> NewtonPolygon:
        """The polygon at a proven prime p, from the nonzero-root part's coefficients."""
        if p not in self._polygons:
            reduced, k = self.reduced
            self._polygons[p] = NewtonPolygon.from_valuations(p, [_valuation(c, p) for c in reduced.coeffs], k)
        return self._polygons[p]

    @functools.cached_property
    def polygons(self) -> tuple[tuple[int, NewtonPolygon], ...]:
        d, g = self.d_and_g
        return tuple((p, self.polygon(p)) for p in (valuation_table([d, g]) if g else ()))

    def finite_term(self, p: int, vmin: int) -> LogValue:
        """The exact term log (largest |eigenvalue|_p / largest |entry|_p) at a
        proven prime p, vmin the smallest entry valuation there.  The root
        valuation is 0 unless p divides d or g: only then is a polygon built."""
        d, g = self.d_and_g
        root_valuation = 0 if d % p and g % p else self.polygon(p).min_root_valuation
        return LogValue._of_primes({p: Fraction(vmin - root_valuation)})

    def arch_term(self, norm: str) -> LogValue:
        if norm == "frobenius":
            eig = self.roots.log_root_norm()
            mat = 0.5 * _log_sum_squares(self.phi.entries)
        else:
            eig = math.log(self.roots.max_abs())
            scaled, k = _float_rows(self.phi)
            mat = math.log(float(np.linalg.norm(scaled, 2))) + k * math.log(2)
        return LogValue.from_arch(eig - mat)

    def height(self) -> LogValue:
        """Quotient height from the eigenvalues: steepest Newton-polygon slopes
        at the primes, log sqrt(sum of squared root moduli) at oo."""
        if self.nilpotent:
            raise NilpotentError("nilpotent matrix: no image in the quotient")
        return LogValue._of_primes({p: -polygon.min_root_valuation for p, polygon in self.polygons},
                                   self.roots.log_root_norm())

    @functools.cached_property
    def table(self) -> dict[int, list]:
        return valuation_table(self.phi.entries)


# The record of the last matrix, keyed on MatrixQ, whose == is exact on the rows.
_MATRICES = _LastInput(_MatrixRecord)


def charpoly_of(phi: MatrixQ) -> PolyQ:
    return _MATRICES(phi).charpoly


def is_semistable_conj(phi: MatrixQ) -> bool:
    """Semistable under conjugation iff not nilpotent.

    Examples:
        >>> is_semistable_conj(MatrixQ.from_lists([[1, 1], [0, 1]]))
        True
        >>> is_semistable_conj(MatrixQ.from_lists([[0, 1], [0, 0]]))
        False
        >>> is_semistable_conj(MatrixQ.from_lists([[0, 0, 0], [0, 0, 0], [0, 0, 1]]))
        True
    """
    _require_nonzero(phi)
    return not _MATRICES(phi).nilpotent


def eigen_data(phi: MatrixQ) -> EigenData:
    """All root data of the characteristic polynomial in one bundle: one
    charpoly, one valuation table of two numbers and one root solve, all
    read from the matrix's record, which every other entry point on the
    same matrix shares.

    The nonzero-root part T^m + c_(m-1) T^(m-1) + ... + c_0 has c_0 != 0,
    so its smallest root valuation min_j v_p(c_j)/(m - j) is negative only
    if p divides d, the lcm of the entry denominators, and positive away
    from d only if p divides g, the gcd of the numerators of the c_j.
    Polygons are built at the primes of d and g; a nilpotent matrix has g = 0.
    """
    _require_nonzero(phi)
    record = _MATRICES(phi)
    return EigenData(record.charpoly, record.reduced[1], record.polygons, record.roots)


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


def quotient_height_conj(phi: MatrixQ) -> LogValue:
    """Height of the image of [phi] in the conjugation quotient.

    Exact finite parts from the steepest Newton-polygon slopes, archimedean
    part log sqrt(sum of squared root moduli).  Both are independent of the
    embedding because the root multiset is Galois-stable.

    Examples:
        >>> h = quotient_height_conj(MatrixQ.from_lists([[1, 1], [0, 1]]))
        >>> dict(h.finite), abs(h.to_float() - 0.5 * math.log(2)) < 1e-12
        ({}, True)
        >>> h = quotient_height_conj(MatrixQ.from_lists([[2, 0], [0, 3]]))
        >>> dict(h.finite), abs(h.to_float() - 0.5 * math.log(13)) < 1e-12
        ({}, True)
    """
    _require_nonzero(phi)
    return _MATRICES(phi).height()


def instability_conj(phi: MatrixQ, place: Place, norm: str = "frobenius") -> LogValue:
    """Local instability measure of [phi]: log (inf conjugate norm / norm).

    The infimum of the norm over the conjugation orbit is the largest
    eigenvalue size (each place separately).  At finite places the matrix
    norm is the entry sup and the result is exact; at the archimedean place
    the norm is Frobenius or spectral per ``norm``.  Nilpotent matrices
    give -infinity.  The charpoly and the roots are the matrix's record
    (see :func:`eigen_data`), and so is the term at p, which factors nothing
    and builds a polygon only when p divides d or g.

    Examples:
        >>> phi = MatrixQ.from_lists([[1, 1], [0, 1]])
        >>> instability_conj(phi, Place.finite(2))
        LogValue(finite={}, arch=0.0)
        >>> instability_conj(MatrixQ.from_lists([[2, 0], [0, 3]]), Place.finite(2), norm="sup").is_exact_zero
        True
    """
    if norm not in NORM_CHOICES:
        raise InputError(f"norm must be one of {NORM_CHOICES}")
    _require_place(place)
    _require_nonzero(phi)
    record = _MATRICES(phi)
    if record.nilpotent:
        return LogValue.neg_infinity()
    if place.is_archimedean:
        return record.arch_term(norm)
    p = place.prime  # a Place holds a proven prime
    return record.finite_term(p, min(_valuation(x, p) for x in phi.entries))


def _float_rows(phi: MatrixQ) -> tuple[list[list[float]], int]:
    """(the rows of 2^-k phi as floats, k): the largest entry lies near 1, though
    phi's entries may lie beyond the double range, and a power-of-two scale is exact."""
    k = max((x.numerator.bit_length() - x.denominator.bit_length() for x in phi.entries if x), default=0)
    return [[float(x * Fraction(2) ** -k) for x in row] for row in phi.rows], k


def instability_all_conj(phi: MatrixQ, norm: str = "frobenius") -> dict[Place, LogValue]:
    """Instability measures at every place where they can be nonzero.

    The places are the primes of the entries and of g (see
    :func:`eigen_data`), ascending, then oo; at other primes the term is 0.
    Every term comes from the matrix's record, a finite one by the route a
    lone :func:`instability_conj` takes; nilpotent matrices give -infinity.
    """
    if norm not in NORM_CHOICES:
        raise InputError(f"norm must be one of {NORM_CHOICES}")
    _require_nonzero(phi)
    record = _MATRICES(phi)
    table = record.table
    primes = sorted(set(table) | {p for p, _ in record.polygons})
    places = [Place._of_prime(p) for p in primes] + [ARCHIMEDEAN]  # both lists are of proven primes
    if record.nilpotent:
        return {place: LogValue.neg_infinity() for place in places}
    # an entry valuation missing from the table is 0
    terms = {place: record.finite_term(p, min(table.get(p, [0]))) for p, place in zip(primes, places)}
    terms[ARCHIMEDEAN] = record.arch_term(norm)
    return terms


def is_minimal_arch(phi: MatrixQ) -> MinimalityReport:
    """Minimal in its archimedean orbit iff normal; exact commutator test.

    Examples:
        >>> is_minimal_arch(MatrixQ.from_lists([[1, 0], [0, 2]])).minimal
        True
        >>> is_minimal_arch(MatrixQ.from_lists([[1, 1], [0, 1]])).minimal
        False
    """
    _require_nonzero(phi)
    t = phi.transpose()
    entries = [a - b for r1, r2 in zip(phi.mul(t).rows, t.mul(phi).rows) for a, b in zip(r1, r2)]
    minimal = not any(entries)
    # |comm|_F / |phi|_F^2 through logs, since either may lie beyond the double range
    defect = 0.0 if minimal else math.exp(0.5 * _log_sum_squares(entries) - _log_sum_squares(phi.entries))
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
        >>> is_minimal_nonarch(MatrixQ.from_lists([[1, 0], [0, 2]]), 2).minimal
        True
    """
    _require_nonzero(phi)
    place = Place.finite(p)
    vmin = min(_valuation(x, p) for x in phi.entries)
    scaled = phi.scaled(Fraction(p) ** (-vmin))
    # every scaled entry is p-integral, so its denominator is a unit mod p
    cp = charpoly([[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in scaled.rows])
    mod_coeffs = [int(c) % p for c in cp.coeffs]
    minimal = any(c != 0 for c in mod_coeffs[:-1])
    witness = "charpoly of reduction mod {}: [{}]".format(
        p, ", ".join(str(c) for c in mod_coeffs)
    )
    return MinimalityReport(minimal, place, 0.0 if minimal else 1.0, witness)


def skew_hermitian_basis(n: int) -> list[np.ndarray]:
    """Standard real basis of the skew-hermitian n x n matrices."""
    e = np.eye(n, dtype=complex)
    out = [1j * np.outer(e[k], e[k]) for k in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            kl, lk = np.outer(e[k], e[l]), np.outer(e[l], e[k])
            out += [kl - lk, 1j * (kl + lk)]
    return out


def moment_map_conj(phi: Union[MatrixQ, np.ndarray], direction: np.ndarray) -> float:
    """Moment-map pairing <[A, phi], phi> / (2 i pi ||phi||^2), a real number.

    ``direction`` must be skew-hermitian within 1e-12 times max(1, its norm).
    The pairing vanishes for every direction iff phi is normal, i.e. minimal
    in its orbit.  It is homogeneous of degree 0, so a MatrixQ enters as :func:`_float_rows`.

    Examples:
        >>> normal = MatrixQ.from_lists([[1, 2], [2, 1]])
        >>> max(abs(moment_map_conj(normal, a)) for a in skew_hermitian_basis(2)) <= 1e-10
        True
    """
    a = np.asarray(direction, dtype=complex)
    m = np.asarray(_float_rows(phi)[0] if isinstance(phi, MatrixQ) else phi, dtype=complex)
    if a.shape != m.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError("direction and matrix must be square and same size")
    scale = max(1.0, float(np.linalg.norm(a)))
    if float(np.linalg.norm(a + a.conj().T)) > _SKEW_TOL * scale:
        raise NotSkewHermitianError("direction is not skew-hermitian within tolerance")
    norm2 = float(np.vdot(m, m).real)
    if norm2 == 0.0:
        raise ZeroMatrixError("moment map undefined for the zero matrix")
    bracket = a @ m - m @ a
    pairing = complex(np.trace(bracket @ m.conj().T))
    return (pairing / (2j * math.pi * norm2)).real


def fundamental_formula_residual_conj(phi: MatrixQ) -> float:
    """naive height + sum of local measures - quotient height, as a float.

    The finite parts cancel dictionary-exactly by construction; the
    returned float only carries archimedean rounding.
    """
    _require_nonzero(phi)
    record = _MATRICES(phi)
    height = record.height()
    total = LogValue._sum([_naive_height(phi.entries, record.table), *instability_all_conj(phi).values()])
    return (total - height).to_float()


def orbit_sampling_bound(phi: MatrixQ, samples: int = 200, seed: int = 0) -> LogValue:
    """Minimum naive height over sampled SL_n(Q) conjugates of phi.

    Sample 0 is the identity; later samples conjugate by products of 1 to 4
    elementary shears I + c E_ij with small rational c, seeded and
    deterministic, applied last shear first as exact row and column
    operations (row i += c row j, then column j -= c column i).  The result
    can never drop below the quotient height; SL_1 is trivial, so a 1 x 1
    matrix gives its naive height.

    Examples:
        >>> v = orbit_sampling_bound(MatrixQ.identity(2), samples=5, seed=1)
        >>> abs(v.to_float() - 0.5 * math.log(2)) < 1e-15
        True
        >>> v = orbit_sampling_bound(MatrixQ.from_lists([[1, 1], [0, 1]]), samples=100, seed=0)
        >>> v.to_float() >= 0.5 * math.log(3) - 1e-9  # the quotient height is log sqrt 2
        True
    """
    _require_nonzero(phi)
    if not _is_int(samples) or samples < 1:
        raise NonPositiveError(f"samples must be a positive integer, got {samples!r}")
    rng = random.Random(seed)
    n = phi.n
    best = naive_matrix_height(phi)
    if n == 1:
        return best
    for _ in range(samples - 1):
        shears = []
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            shears.append((i, j, Fraction(rng.randint(-3, 3), rng.randint(1, 4))))
        m = [list(row) for row in phi.rows]
        for i, j, c in reversed(shears):
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
            for row in m:
                row[j] -= c * row[i]
        h = naive_height_coords([x for row in m for x in row])
        if h.to_float() < best.to_float():
            best = h
    return best
