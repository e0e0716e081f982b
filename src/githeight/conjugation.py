"""Conjugation action on projective matrix space.

PGL_n acts on P(End(Q^n)) by conjugation; the quotient is the space of
characteristic polynomials.  A matrix class [phi] is semistable iff phi is
not nilpotent, and then the height of its image is computed from the
eigenvalues alone:

    h([charpoly]) = sum_p log max_i |lambda_i|_p  +  log sqrt(sum |lambda_i|^2).

The finite terms come exactly from Newton polygons of the characteristic
polynomial; the archimedean term from refined complex roots.  The local
instability measures compare eigenvalue size against the naive height's
matrix norm: the sup of the entries at finite places and the Frobenius norm,
the hermitian norm of Kempf-Ness theory, at the archimedean place.  So the
naive height plus their sum is the quotient height.  They vanish exactly
when the matrix is minimal in its orbit, which is decidable: reduction mod p
not nilpotent at finite places, normality at the archimedean place.  The
moment map at phi is proportional to the commutator [phi, phi^*], so
normality is decided exactly from the integer commutator of d phi (d the
lcm of the entry denominators).  Every entry point reads one record per
matrix, :func:`matrix_record`: the charpoly, roots, polygons, commutator and
entry valuations are computed once, the minimality tests and the naive
height included.  The record has the interface a torus point's record
shares: ``semistable``, ``naive()``, ``terms(tol)``, ``height(tol)``,
``lower_bound()`` and ``no_image()``, the NilpotentError of a matrix with
no image; the record memo makes the one semistability check.  By Schur,
sum |lambda_i|^2 <= |phi|_F^2 with equality iff phi is normal, so a normal
matrix gets the Frobenius value at oo and its term there is exactly 0.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, NilpotentError
from .exactpoly import NewtonPolygon, PolyQ, _fraction_rows, charpoly, complex_roots, log_root_norm
from .heights import _naive_height
from .places import (
    ARCHIMEDEAN,
    LogValue,
    Place,
    RationalLike,
    _LastInput,
    _log_ratio,
    _require_place,
    _valuation,
    valuation_table,
)

@dataclass(frozen=True)
class MatrixQ:
    """A square matrix over Q with exact entries.

    Examples:
        >>> MatrixQ.from_lists([[1, 1], [0, 1]]).n
        2
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = _fraction_rows(self.rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise InputError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[RationalLike]]) -> "MatrixQ":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(x for row in self.rows for x in row)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of a minimal-vector test at one place."""

    minimal: bool
    place: Place
    defect: float
    witness: str


class _MatrixRecord:
    """One matrix's local data, each part computed on first use and kept:
    the charpoly, its nonzero-root part and zero-root count, the complex
    roots and root norm, d and g (see :attr:`polygons`), the integer matrix
    B = d phi, the Newton polygon at each prime asked for, the commutator
    and the Frobenius value ``norm`` (both read B) and the valuation table
    of the entries.  A part whose computation raises is not kept, so the
    next call raises again.  The zero matrix has no record.  ``height`` and
    ``lower_bound`` are those of a matrix that is not nilpotent; the roots
    carry their own tolerance, so ``tol`` is not read.
    """

    no_image = functools.partial(NilpotentError, "nilpotent matrix: no image in the quotient")

    def __init__(self, phi: MatrixQ):
        if phi.is_zero:
            raise InputError("the zero matrix has no projective class")
        self.phi, self._polygons = phi, {}

    @functools.cached_property
    def charpoly(self) -> PolyQ:
        return charpoly(self.phi.rows)

    @functools.cached_property
    def reduced(self) -> tuple[PolyQ, int]:
        return self.charpoly.shift_out_zero_roots()

    @property
    def semistable(self) -> bool:
        """phi is not nilpotent: its charpoly is not T^n."""
        return self.reduced[1] != self.phi.n

    @functools.cached_property
    def roots(self) -> tuple[complex, ...]:
        return complex_roots(self.charpoly)

    @functools.cached_property
    def d(self) -> int:
        return math.lcm(*(x.denominator for x in self.phi.entries))

    @functools.cached_property
    def b(self) -> list[list[int]]:
        return [[x.numerator * (self.d // x.denominator) for x in row] for row in self.phi.rows]

    @functools.cached_property
    def g(self) -> int:
        return math.gcd(*(c.numerator for c in self.reduced[0].coeffs[:-1]))

    def polygon(self, p: int) -> NewtonPolygon:
        """The polygon at a proven prime p, from the nonzero-root part's coefficients."""
        if p not in self._polygons:
            reduced, k = self.reduced
            self._polygons[p] = NewtonPolygon.from_valuations(p, [_valuation(c, p) for c in reduced.coeffs], k)
        return self._polygons[p]

    @functools.cached_property
    def polygons(self) -> tuple[tuple[int, NewtonPolygon], ...]:
        """(p, polygon) at each prime where a nonzero root may be a nonunit.

        The nonzero-root part T^m + c_(m-1) T^(m-1) + ... + c_0 has c_0 != 0,
        so its smallest root valuation min_j v_p(c_j)/(m - j) is negative only
        if p divides d, the lcm of the entry denominators, and positive away
        from d only if p divides g, the gcd of the numerators of the c_j.
        Polygons are built at the primes of d and g; a nilpotent matrix has g = 0.
        """
        return tuple((p, self.polygon(p)) for p in (valuation_table([self.d, self.g]) if self.g else ()))

    def finite_term(self, p: int, vmin: int) -> LogValue:
        """The exact term log (largest |eigenvalue|_p / largest |entry|_p) at a
        proven prime p, vmin the smallest entry valuation there.  The root
        valuation is 0 unless p divides d or g: only then is a polygon built."""
        root_valuation = 0 if self.d % p and self.g % p else self.polygon(p).min_root_valuation
        return LogValue._of_primes({p: Fraction(vmin - root_valuation)})

    @functools.cached_property
    def commutator(self) -> list[int]:
        """The entries of B B^T - B^T B, B = d phi the integer matrix: d^2 [phi, phi^T]."""
        b = self.b
        cols = list(zip(*b))
        return [sum(map(operator.mul, bi, bj)) - sum(map(operator.mul, ci, cj))
                for bi, ci in zip(b, cols) for bj, cj in zip(b, cols)]

    @functools.cached_property
    def norm(self) -> float:
        """log |phi|_F = 1/2 log (sum of B's squared entries / d^2)."""
        return 0.5 * _log_ratio(sum(x * x for row in self.b for x in row), self.d * self.d)

    @functools.cached_property
    def root_norm(self) -> float:
        """log sqrt(sum of squared root moduli).  By Schur it is at most the
        Frobenius value, with equality iff phi is normal: a normal matrix
        whose roots read at or above it gets the Frobenius value itself."""
        norm = log_root_norm(self.roots)
        return self.norm if norm >= self.norm and not any(self.commutator) else norm

    @functools.cached_property
    def table(self) -> dict[int, list]:
        return valuation_table(self.phi.entries)

    def term(self, place: Place) -> LogValue:
        """The measure at a proven place: -infinity on a nilpotent matrix,
        log (sqrt(sum of squared root moduli) / Frobenius norm) at oo, and
        at p the finite term with the entries' smallest valuation there."""
        if not self.semistable:
            return LogValue.neg_infinity()
        if place.is_archimedean:
            return LogValue.from_arch(self.root_norm - self.norm)
        return self.finite_term(place.prime, min(_valuation(x, place.prime) for x in self.phi.entries))

    def terms(self, tol=None) -> dict[Place, LogValue]:
        """The measure at the primes of the entries and of g, ascending, then oo."""
        table = self.table
        primes = sorted(set(table) | {p for p, _ in self.polygons})
        places = [Place._of_prime(p) for p in primes] + [ARCHIMEDEAN]  # both lists are of proven primes
        if not self.semistable:
            return {place: LogValue.neg_infinity() for place in places}
        # an entry valuation missing from the table is 0
        terms = {place: self.finite_term(p, min(table.get(p, [0]))) for p, place in zip(primes, places)}
        terms[ARCHIMEDEAN] = self.term(ARCHIMEDEAN)
        return terms

    def naive(self) -> LogValue:
        return _naive_height(self.table, self.norm)

    def height(self, tol=None) -> LogValue:
        """From the eigenvalues: steepest Newton-polygon slopes at the
        primes, log sqrt(sum of squared root moduli) at oo."""
        return LogValue._of_primes({p: -polygon.min_root_valuation for p, polygon in self.polygons},
                                   self.root_norm)

    def lower_bound(self) -> LogValue:
        """(1/2) log k, k the degree of the charpoly with its zero roots split off."""
        return LogValue.from_arch(0.5 * math.log(self.reduced[0].degree))


# The record of the last matrix, keyed on MatrixQ, whose == is exact on the rows.
_MATRICES = _LastInput(_MatrixRecord)


def matrix_record(phi: MatrixQ, semistable: bool = False) -> _MatrixRecord:
    """The record of phi, the last matrix's when it is the same; with
    ``semistable``, NilpotentError on a nilpotent matrix."""
    return _MATRICES(phi, semistable)


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
    return _MATRICES(phi).semistable


def naive_matrix_height(phi: MatrixQ) -> LogValue:
    """Height of [phi] in P(End): entry sup at finite places, Frobenius norm
    at the archimedean one, from the valuation table of the matrix's record.

    Examples:
        >>> h = naive_matrix_height(MatrixQ.from_lists([[1, 1], [0, 1]]))
        >>> abs(h.to_float() - 0.5 * math.log(3)) < 1e-15
        True
    """
    return _MATRICES(phi).naive()


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
    return _MATRICES(phi, semistable=True).height()


def lower_bound_conj(phi: MatrixQ) -> LogValue:
    """(1/2) log k, k the number of nonzero eigenvalues of phi counted with
    multiplicity, a lower bound for the quotient height of [phi].

    After Bost (Duke 1994) and Zhang (1996): the product of the k nonzero
    eigenvalues is a nonzero rational up to sign.  At p the largest
    |lambda_i|_p is at least their geometric mean; at oo, by AM-GM,
    sum |lambda_i|^2 >= k prod |lambda_i|^(2/k); and the product formula
    sums the product's log sizes to 0 over the places.

    k is the degree of the charpoly with its zero roots split off, so no
    root is read.  A nilpotent matrix raises NilpotentError.

    Examples:
        >>> lower_bound_conj(MatrixQ.identity(3)).arch == 0.5 * math.log(3)
        True
        >>> lower_bound_conj(MatrixQ.from_lists([[1, 1], [0, 0]])).is_exact_zero
        True
    """
    return _MATRICES(phi, semistable=True).lower_bound()


def instability_conj(phi: MatrixQ, place: Place) -> LogValue:
    """Local instability measure of [phi]: log (inf conjugate norm / norm).

    The infimum of the norm over the conjugation orbit is the eigenvalue
    size at that place.  At finite places the matrix norm is the entry sup,
    the infimum the largest |eigenvalue|_p, and the result is exact; at the
    archimedean place the norm is Frobenius and the infimum
    sqrt(sum of squared root moduli).  Nilpotent matrices give -infinity.
    The charpoly and the roots are the matrix's record, and so is the term
    at p, which factors nothing and builds a polygon only when p divides d
    or g (see :attr:`_MatrixRecord.polygons`).

    Examples:
        >>> phi = MatrixQ.from_lists([[1, 1], [0, 1]])
        >>> instability_conj(phi, Place.finite(2))
        LogValue(finite={}, arch=0.0)
        >>> instability_conj(MatrixQ.from_lists([[2, 0], [0, 3]]), Place.finite(2)).is_exact_zero
        True
    """
    _require_place(place)
    return _MATRICES(phi).term(place)


def instability_all_conj(phi: MatrixQ) -> dict[Place, LogValue]:
    """Instability measures at every place where they can be nonzero.

    The places are the primes of the entries and of g (see
    :attr:`_MatrixRecord.polygons`), ascending, then oo; at other primes the
    term is 0.
    Every term comes from the matrix's record, a finite one by the route a
    lone :func:`instability_conj` takes; nilpotent matrices give -infinity.
    """
    return _MATRICES(phi).terms()


def is_minimal_arch(phi: MatrixQ) -> MinimalityReport:
    """Minimal in its archimedean orbit iff normal; exact commutator test.

    Examples:
        >>> is_minimal_arch(MatrixQ.from_lists([[1, 0], [0, 2]])).minimal
        True
        >>> is_minimal_arch(MatrixQ.from_lists([[1, 1], [0, 1]])).minimal
        False
    """
    record = _MATRICES(phi)
    minimal = not any(record.commutator)
    # |[phi, phi^T]|_F / |phi|_F^2 through logs, since either may lie beyond the double range
    squares = sum(c * c for c in record.commutator)
    defect = 0.0 if minimal else math.exp(0.5 * _log_ratio(squares, record.d ** 4) - 2 * record.norm)
    witness = "commutator phi phi^T - phi^T phi vanishes" if minimal else f"relative commutator norm {defect:.3e}"
    return MinimalityReport(minimal, ARCHIMEDEAN, defect, witness)


def is_minimal_nonarch(phi: MatrixQ, p: int) -> MinimalityReport:
    """Minimal at p iff the unit-scaled reduction mod p is not nilpotent.

    Scale by c = p^(-vmin) so the smallest entry valuation is 0, and test
    the characteristic polynomial of the reduction mod p against T^n.  That
    polynomial is the reduction of the charpoly of c phi, whose coefficient
    at T^j is c^(n-j) a_j for the record's charpoly sum a_j T^j.

    Examples:
        >>> is_minimal_nonarch(MatrixQ.from_lists([[1, 1], [0, 1]]), 2).minimal
        True
        >>> is_minimal_nonarch(MatrixQ.from_lists([[2, 1], [4, 2]]), 2).minimal
        False
        >>> is_minimal_nonarch(MatrixQ.from_lists([[1, 0], [0, 2]]), 2).minimal
        True
    """
    place = Place.finite(p)
    record = _MATRICES(phi)
    vmin = min(_valuation(x, p) for x in phi.entries)
    # every coefficient of the scaled charpoly is p-integral, so its denominator is a unit mod p
    scaled = [a * Fraction(p) ** (-vmin * (phi.n - j)) for j, a in enumerate(record.charpoly.coeffs)]
    mod_coeffs = [c.numerator * pow(c.denominator, -1, p) % p for c in scaled]
    minimal = any(c != 0 for c in mod_coeffs[:-1])
    witness = f"charpoly of reduction mod {p}: [{', '.join(map(str, mod_coeffs))}]"
    return MinimalityReport(minimal, place, 0.0 if minimal else 1.0, witness)


def fundamental_formula_residual_conj(phi: MatrixQ) -> float:
    """naive height + sum of local measures - quotient height, as a float.

    The finite parts cancel dictionary-exactly by construction; the
    returned float only carries archimedean rounding.
    """
    record = _MATRICES(phi, semistable=True)
    height = record.height()
    return (LogValue._sum([record.naive(), *record.terms().values()]) - height).to_float()
