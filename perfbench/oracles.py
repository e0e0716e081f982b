"""Oracles that check the package's outputs without using its code.

* SciPy's HiGHS solves the torus LPs: hull membership (semistability), the
  face of the weight hull whose relative interior holds 0, and the value
  min_xi max_i (<m_i, xi> - v_p(x_i)) at each prime.  The float optimum is
  rounded to the nearby rational of small denominator, which is exact
  because every LP vertex here has a denominator below 1000.
* SciPy's BFGS minimizes the torus archimedean term on that face.
* numpy eigenvalues give the archimedean term of dense matrices; matrices
  built from known eigenvalues use the closed forms instead.
* Characteristic polynomials of dense matrices come from exact integer
  determinants det(tI - A) at t = 0..n (Bareiss), interpolated over Q;
  p-adic root sizes come from the closed form min_i v_p(a_i) / (d - i).
* Factorizations come from trial division over the small primes and the
  known large primes every generated input is built from.

Every archimedean term is checked to within ``ARCH_TOL`` nats; finite
parts are compared exactly, as dictionaries of rational coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import logsumexp, softmax

from workloads import BIG_PRIMES, M61, M89, Case

ARCH_TOL = 1e-6  # absolute tolerance on archimedean terms, in nats
LP_TOL = 1e-7  # HiGHS optimum against the rational it is rounded to


class OracleError(Exception):
    """The oracle itself could not decide a case."""


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


FACTOR_BASE = tuple(_sieve(1000)) + BIG_PRIMES + (M61, M89)


def factor(n: int) -> dict[int, int]:
    """Factor a nonzero integer over FACTOR_BASE (any cofactor below 10^6
    is prime, since every prime below 1000 has been divided out)."""
    n = abs(n)
    out: dict[int, int] = {}
    for p in FACTOR_BASE:
        if n == 1:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n != 1:
        if n >= 1_000_000:
            raise OracleError(f"cannot factor the cofactor {n}")
        out[n] = 1
    return out


def vp(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    n, d, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def support(values) -> set[int]:
    out: set[int] = set()
    for q in values:
        if q != 0:
            out.update(factor(q.numerator))
            out.update(factor(q.denominator))
    return out


def log_abs(q: Fraction) -> float:
    """log |q| for a nonzero rational of any size."""
    return math.log(abs(q.numerator)) - math.log(q.denominator)


def naive_finite(values) -> dict[int, Fraction]:
    """Finite part of the naive height: -min_i v_p(x_i) at each prime."""
    xs = [q for q in values if q != 0]
    out = {}
    for p in support(xs):
        v = min(vp(q, p) for q in xs)
        if v:
            out[p] = Fraction(-v)
    return out


def naive_arch(values) -> float:
    return 0.5 * log_abs(sum(q * q for q in values))


# ---------------------------------------------------------------------------
# torus LPs (HiGHS) and the archimedean minimum (BFGS)
# ---------------------------------------------------------------------------

def _rational(x: float) -> Fraction:
    q = Fraction(x).limit_denominator(1000)
    if abs(float(q) - x) > LP_TOL:
        raise OracleError(f"LP optimum {x!r} is not a small rational")
    return q


def hull_has_zero(ms) -> bool:
    """0 in conv(ms): is {lam >= 0, sum lam = 1, sum lam_i m_i = 0} feasible?"""
    a = np.array(ms, dtype=float)
    a_eq = np.vstack([a.T, np.ones((1, len(ms)))])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[-1] = 1.0
    res = linprog(np.zeros(len(ms)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise OracleError(f"hull LP: {res.message}")
    return res.status == 0


def min_max_affine(ms, offsets) -> Fraction | None:
    """min over xi of max_i (<m_i, xi> + c_i); None when unbounded below."""
    a = np.array(ms, dtype=float)
    a_ub = np.hstack([a, -np.ones((len(ms), 1))])
    cost = np.zeros(a.shape[1] + 1)
    cost[-1] = 1.0
    b_ub = -np.array([float(c) for c in offsets])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    if res.status == 3:
        return None
    if res.status != 0:
        raise OracleError(f"per-prime LP: {res.message}")
    return _rational(res.fun)


def face_of_zero(ms) -> list[int]:
    """Indices of the weights on the face of conv(ms) whose relative
    interior contains 0: the support of a strictly positive solution of
    sum lam_i m_i = 0, found by maximizing sum s_i with s_i <= lam_i <= ...,
    0 <= s_i <= 1 (the cone is scale-free, so s_i = 1 on the whole face)."""
    k = len(ms)
    a = np.array(ms, dtype=float)
    a_eq = np.hstack([a.T, np.zeros((a.shape[1], k))])
    a_ub = np.hstack([-np.eye(k), np.eye(k)])
    cost = np.concatenate([np.zeros(k), -np.ones(k)])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(k), A_eq=a_eq, b_eq=np.zeros(a.shape[1]),
                  bounds=[(0, None)] * k + [(0, 1)] * k, method="highs")
    if res.status != 0:
        raise OracleError(f"face LP: {res.message}")
    return [i for i in range(k) if res.x[k + i] > 0.5]


def torus_arch(ms, xs) -> float:
    """inf_xi (1/2) log sum x_i^2 e^(2<m_i, xi>) - (1/2) log sum x_i^2 for a
    semistable point: the infimum is the minimum over the face of zero."""
    logs = np.array([2.0 * log_abs(x) for x in xs])
    face = face_of_zero(ms)
    m = np.array([ms[i] for i in face], dtype=float)
    lf = logs[face]

    def f(xi):
        a = lf + 2.0 * (m @ xi)
        return 0.5 * logsumexp(a), m.T @ softmax(a)

    res = minimize(f, np.zeros(m.shape[1]), jac=True, method="BFGS", options={"gtol": 1e-11})
    return float(res.fun) - 0.5 * float(logsumexp(logs))


# ---------------------------------------------------------------------------
# exact characteristic polynomials and p-adic root sizes
# ---------------------------------------------------------------------------

def _det(a: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    a = [row[:] for row in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def charpoly(rows) -> list[Fraction]:
    """det(tI - A), ascending coefficients.  For D A integral (D the lcm of
    the denominators) it interpolates det(tI - D A) from its values at
    t = 0..n, then rescales: the t^i coefficient of A's is D^(i-n) times
    that of D A."""
    n = len(rows)
    scale = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    a = [[int(Fraction(x) * scale) for x in row] for row in rows]
    coef = [Fraction(_det([[(t if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]))
            for t in range(n + 1)]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / j
    poly = [coef[n]]
    for i in range(n - 1, -1, -1):
        nxt = [Fraction(0)] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] += c
            nxt[d] -= i * c
        nxt[0] += coef[i]
        poly = nxt
    if poly[-1] != 1:
        raise OracleError("interpolated charpoly is not monic")
    return [c / Fraction(scale) ** (n - i) for i, c in enumerate(poly)]


def from_roots(roots) -> list[int]:
    """prod (t - r), ascending coefficients."""
    poly = [1]
    for r in roots:
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] += c
            nxt[d] -= r * c
        poly = nxt
    return poly


def min_root_valuation(reduced, p: int) -> Fraction:
    """Smallest p-adic valuation of a root of a monic polynomial over Q
    with nonzero constant term: min_i v_p(a_i) / (d - i)."""
    d = len(reduced) - 1
    return min(Fraction(vp(Fraction(c), p), d - i) for i, c in enumerate(reduced[:-1]) if c)


def _gcd_primes(values) -> set[int]:
    """Primes dividing every one of some integers; for rationals, every
    prime of a numerator or denominator (a superset, which is enough)."""
    if any(Fraction(v).denominator != 1 for v in values):
        return support(Fraction(v) for v in values)
    g = 0
    for v in values:
        g = math.gcd(g, int(v))
    return set(factor(g)) if g > 1 else set()


def _reduced_charpoly(rows) -> list[Fraction]:
    """The charpoly with its zero roots divided out (constant term nonzero)."""
    cp = charpoly(rows)
    return cp[next(i for i, c in enumerate(cp) if c):]


def has_charpoly_only_prime(rows) -> bool:
    """Does a prime divide a coefficient of the reduced charpoly but no
    entry?  Decided without factoring the coefficients."""
    entry_primes = support(x for row in rows for x in row)
    for c in _reduced_charpoly(rows)[:-1]:
        for part in (c.numerator, c.denominator):
            for p in entry_primes:
                while part and part % p == 0:
                    part //= p
            if abs(part) > 1:
                return True
    return False


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b (ascending coefficients, b[-1] != 0)."""
    a = a[:]
    while len(a) >= len(b) and any(a):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def simple_nonzero_roots(rows) -> bool:
    """Are the nonzero eigenvalues pairwise distinct?  (gcd of the reduced
    charpoly and its derivative is a constant.)  Repeated nonzero
    eigenvalues break complex_roots at the seed commit; the defects
    workload shows that."""
    f = _reduced_charpoly(rows)
    if len(f) <= 2:
        return True
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while len(b) > 1:
        a, b = b, _poly_rem(a, b)
    return len(b) == 1


def hidden_places(rows) -> set[int]:
    """Primes dividing no entry at which the instability is nonzero: they
    divide only the charpoly, so a place list built from the entries
    misses them."""
    reduced = _reduced_charpoly(rows)
    if len(reduced) == 1:
        return set()
    entry_primes = support(x for row in rows for x in row)
    return {p for p in _gcd_primes(reduced[:-1]) - entry_primes
            if min_root_valuation(reduced, p)}


# ---------------------------------------------------------------------------
# expected values per case
# ---------------------------------------------------------------------------

@dataclass
class TorusTruth:
    stable: bool
    ms: list
    support: set[int]
    naive_finite: dict[int, Fraction]
    naive_arch: float
    measures: dict[int, Fraction | None]  # exact measure per support prime
    arch: float | None

    def qh_finite(self) -> dict[int, Fraction]:
        out = dict(self.naive_finite)
        for p, m in self.measures.items():
            out[p] = out.get(p, Fraction(0)) + m
        return {p: q for p, q in out.items() if q}


def torus_truth(case: Case) -> TorusTruth:
    idx = [i for i, c in enumerate(case.coords) if c != 0]
    ms = [case.weights[i] for i in idx]
    xs = [case.coords[i] for i in idx]
    stable = hull_has_zero(ms)
    measures = {}
    for p in sorted(support(xs)):
        offsets = [-vp(x, p) for x in xs]
        value = min_max_affine(ms, offsets)
        measures[p] = None if value is None else value - max(offsets)
    return TorusTruth(
        stable, ms, set(measures), naive_finite(xs), naive_arch(xs), measures,
        torus_arch(ms, xs) if stable else None,
    )


@dataclass
class MatrixTruth:
    nilpotent: bool
    entry_primes: set[int]
    candidate_primes: set[int]  # every prime where the measure can be nonzero
    min_entry_v: dict[int, int]
    root_v: object  # p -> smallest root valuation (Fraction)
    naive_finite: dict[int, Fraction]
    naive_arch: float
    qh_arch: float

    def coefficient(self, p: int) -> Fraction:
        """Exact instability at p, in units of log p (sup norm of entries)."""
        return self.min_entry_v.get(p, 0) - self.root_v(p)

    def qh_finite(self) -> dict[int, Fraction]:
        out = {p: -self.root_v(p) for p in self.candidate_primes}
        return {p: q for p, q in out.items() if q}

    def nonzero_primes(self) -> set[int]:
        return {p for p in self.candidate_primes | self.entry_primes if self.coefficient(p)}

    @property
    def inst_arch(self) -> float:
        return self.qh_arch - self.naive_arch


def matrix_truth(case: Case) -> MatrixTruth:
    entries = [x for row in case.rows for x in row]
    nonzero = [x for x in entries if x != 0]
    entry_primes = support(nonzero)
    min_entry_v = {p: min(vp(x, p) for x in nonzero) for p in entry_primes}
    if case.eigenvalues is not None:
        lams = [lam for lam in case.eigenvalues if lam]
        nilpotent = not lams
        candidates = _gcd_primes(lams)

        def root_v(p, lams=lams):
            return Fraction(min(vp(Fraction(lam), p) for lam in lams))

        qh_arch = naive_arch([Fraction(lam) for lam in lams]) if lams else 0.0
    else:
        cp = charpoly(case.rows)
        k = next(i for i, c in enumerate(cp) if c)
        reduced = cp[k:]
        nilpotent = len(reduced) == 1
        candidates = _gcd_primes(reduced[:-1]) if not nilpotent else set()

        def root_v(p, reduced=reduced):
            return min_root_valuation(reduced, p)

        eig = np.linalg.eigvals(np.array([[float(x) for x in row] for row in case.rows]))
        qh_arch = 0.0 if nilpotent else 0.5 * math.log(math.fsum(float(abs(z)) ** 2 for z in eig))
    return MatrixTruth(
        nilpotent, entry_primes, candidates, min_entry_v, root_v,
        naive_finite(nonzero), naive_arch(nonzero), qh_arch,
    )
