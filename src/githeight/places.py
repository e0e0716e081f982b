"""Places of Q and exact logarithmic bookkeeping.

The places of Q are the rational primes p (with |p|_p = 1/p) and one
archimedean place (the usual absolute value).  Every height and instability
computation in this package is a sum of local terms, and the finite-place
terms are always rational multiples of log p.  To keep those terms exact we
never store them as floats: a :class:`LogValue` is a formal sum

    sum_p q_p * log(p)  +  t

with exact rational coefficients ``q_p`` and a single float slack ``t`` for
genuinely archimedean quantities (like log of a sum of squares).  Finite
parts add and cancel exactly; only :meth:`LogValue.to_float` rounds.

A ``neg_inf`` flag represents the value -infinity, which is the instability
measure of an unstable point.  It absorbs addition.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import InputError, NoConvergenceError

RationalLike = Union[Fraction, int, str]

# Fraction("1e10000000") takes seconds: Python's 4300-digit limit does not bound the exponent
_MAX_EXPONENT = 100_000


# ---------------------------------------------------------------------------
# primes and factorization
# ---------------------------------------------------------------------------

def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(1000)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = math.prod(_SMALL_PRIMES)  # gcd with it finds every prime factor below 1000

# The first k bases expose every odd composite below _MR_PSI[k - 1], psi_k of
# OEIS A014233 (Jaeschke 1993; Sorenson and Webster 2017 for psi_12, psi_13).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)

# Pollard-Brent budget of one family, shared by all its splits.  A step on
# an n-bit number costs ceil(n / 64) units, roughly its time in word
# operations, so giving up takes at most about 1.5 s up to 3000 bits;
# splitting M61 * M31 (92 bits) takes 50 302 steps of 2 units, a tenth of it.
_POLLARD_BUDGET = 1 << 20

# The primes of each coprime-base root split in this process, and the
# budget units the split cost (0 for a prime root); a family whose budget
# left covers those units is charged them, so every result and every
# NoConvergenceError is the one a fresh split would give.  Oldest roots go
# first beyond the cap.
_SPLITS: dict[int, tuple[tuple[int, ...], int]] = {}
_SPLITS_CAP = 4096


def _is_int(v) -> bool:
    """An int and not a bool: a float or bool prime, rank, weight or 1-PS
    entry is refused, not truncated, since int(2.9) == 2 changes the input."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_prime(n: int) -> bool:
    """A set lookup up to 997 and one gcd with the primes below 1000, then
    Miller-Rabin on as many of the 13 primes up to 41 as n's size needs
    (see :func:`_probable_prime`), deterministic below
    3 317 044 064 679 887 385 961 981, and a strong Lucas test above it:
    Baillie-PSW above the bound; no known counterexample.

    Examples:
        >>> is_prime(2), is_prime(97), is_prime(1)
        (True, True, False)
    """
    if not _is_int(n):
        raise InputError(f"{n!r} is not an integer")
    if n < 1000:
        return n in _SMALL_PRIME_SET
    return math.gcd(n, _PRIMORIAL) == 1 and _probable_prime(n)


def _probable_prime(n: int) -> bool:
    """Miller-Rabin on the first k bases for the least k with n < psi_k, all
    13 bases and strong Lucas from psi_13, for odd n > 41.  Below psi_13
    the verdict is the one all 13 bases give, since both are exact."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES[: bisect.bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PSI[-1] or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            sign *= -1 if n % 8 in (3, 5) else 1
        sign *= -1 if a % 4 == n % 4 == 3 else 1
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters for odd n > 41: P = 1, Q =
    (1 - D)/4, D the first of 5, -7, 9, -11, ... with (D/n) = -1, which a square
    lacks.  With n + 1 = d 2^s, d odd, n passes if U_d or a V_(d 2^r), r < s, is 0."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = 2 - D if D < 0 else -D - 2
    if j == 0:  # |D| < n shares a factor with n
        return False
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d 2^s, d odd
    u, v, qk = 0, 2, 1  # U_k, V_k and Q^k mod n, k running up the bits of d
    for bit in bin((n + 1) >> s)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":  # U_(k+1) = (U_k + V_k)/2 and V_(k+1) = (D U_k + V_k)/2 mod n
            u, v, qk = (u + v) % n, (D * u + v) % n, qk * (1 - D) // 4 % n
            u, v = (u + n * (u % 2)) // 2, (v + n * (v % 2)) // 2
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def _pollard_brent(n: int, budget: int) -> tuple[int, int]:
    """A proper factor of the odd composite n (Brent's variant of Pollard's
    rho) and the budget units left; NoConvergenceError once they run out."""
    words = -(-n.bit_length() // 64)
    for c in itertools.count(1):
        y, m = c, 128
        g = r = q = 1
        while g == 1:
            x = y
            budget -= r * words
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                budget -= steps * words
                if budget < 0:
                    raise NoConvergenceError(
                        f"no factor of a {n.bit_length()}-bit number within "
                        f"the Pollard-Brent budget of {_POLLARD_BUDGET} units"
                    )
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # the sign of q does not change gcd(q, n)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, budget


def _refine(base: list[int], n: int) -> None:
    """Add n to the pairwise coprime base, splitting elements by gcds so the
    base stays pairwise coprime and still divides out every number it did."""
    stack = [n]
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        for i, b in enumerate(base):
            g = math.gcd(n, b)
            if g > 1:
                # b * n -> (b/g) * g * (n/g): the product falls, so this ends
                base[i] = base[-1]
                base.pop()
                stack += (b // g, g, n // g)
                break
        else:
            base.append(n)


def _perfect_power_root(n: int) -> int:
    """The r with n = r^k and k maximal, for n without prime factors below 1000."""
    # prime exponents suffice; odd ones past the sieve only repeat work
    exponents = itertools.chain(_SMALL_PRIMES, itertools.count(1001, 2))
    k = next(exponents)
    while 9 * k < n.bit_length():  # a root above 1000 has more than 9 bits
        r = _iroot(n, k)
        if r ** k == n:
            n = r
        else:
            k = next(exponents)
    return n


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _strip(n: int, p: int) -> tuple[int, int]:
    """(k, n / p^k) for the largest k with p^k | n != 0.  Past the first p,
    the rest is stripped of p^2 recursively, then of at most one more p: k
    takes O(log k) big divisions, not k."""
    m, r = divmod(n, p)
    if r:
        return 0, n
    k, m = _strip(m, p * p)
    rest, r = divmod(m, p)
    return (2 * k + 1, m) if r else (2 * k + 2, rest)


def _divide_out(n: int, primes: list[int], exponents: dict[int, int]) -> int:
    """Divide n by each prime as often as it goes, record the exponents, and
    return what is left."""
    for p in primes:
        if n == 1:
            break
        if n % p == 0:
            exponents[p], n = (1, n // p) if n // p % p else _strip(n, p)
    return n


def _split(b: int, budget: int) -> tuple[list[int], int]:
    """The primes of a perfect-power root b without prime factors below
    1000, and the budget left.

    A root that passes :func:`is_prime`'s test is prime; a composite one goes to
    Pollard-Brent, and the roots of its two parts' pairwise coprime base
    are split in turn.
    """
    roots, primes = [b], []
    while roots:
        b = roots.pop()
        if _probable_prime(b):
            primes.append(b)
            continue
        d, budget = _pollard_brent(b, budget)
        parts: list[int] = []
        _refine(parts, d)
        _refine(parts, b // d)
        roots += map(_perfect_power_root, parts)
    return primes, budget


def _factor_all(ns: list[int]) -> list[dict[int, int]]:
    """{prime: exponent} of each positive integer in ns.

    One gcd of the family's product with the primes below 1000 finds the
    small primes of the family, and each number is trial-divided by those
    alone; the cofactors left over are refined by
    gcds into one pairwise coprime base, so numbers of one family that share
    a large prime split one another without any Pollard-Brent step.  Each
    base element's perfect-power root is then split by :func:`_split`, or
    read from ``_SPLITS`` when its recorded units fit the budget left, so
    the primes come back as the memo's own int objects.
    """
    exponents = [{} for _ in ns]
    # the product is reduced once it passes the primorial, so its cost stays
    # linear in the family's size
    g = 1
    for n in ns:
        g *= n
        if g >= _PRIMORIAL:
            g %= _PRIMORIAL
    found: dict[int, int] = {}
    _divide_out(math.gcd(g, _PRIMORIAL), _SMALL_PRIMES, found)
    small = list(found)
    cofactors = [_divide_out(n, small, e) for n, e in zip(ns, exponents)]
    base: list[int] = []
    for n in set(cofactors):
        _refine(base, n)
    primes = []
    budget = _POLLARD_BUDGET
    for b in map(_perfect_power_root, reversed(base)):
        hit = _SPLITS.get(b)
        if hit is None or hit[1] > budget:
            # rho is deterministic, so a hit beyond the budget left fails here
            # just as a first split would, and only a success is recorded
            found, left = _split(b, budget)
            if len(_SPLITS) >= _SPLITS_CAP:
                del _SPLITS[next(iter(_SPLITS))]  # the oldest root
            hit = _SPLITS[b] = tuple(sorted(found)), budget - left
        found, units = hit
        budget -= units
        primes += found
    primes.sort()
    for n, e in zip(cofactors, exponents):
        _divide_out(n, primes, e)
    return exponents


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}.

    The one-number case of :func:`valuation_table`'s factoring: trial
    division by the primes below 1000 that a gcd with their product finds,
    the cofactor's perfect-power root, then
    Pollard-Brent on what :func:`is_prime`'s test finds composite, all its splits
    within one budget of 2^20 units (NoConvergenceError beyond it).  A
    composite root is split once per process: a memo capped at 4096 roots
    keeps its primes and the units the split cost, and a later call is
    charged those units as if the split ran, so results and failures do
    not depend on what ran before.  Failed splits are not recorded.

    Examples:
        >>> factorize(360)
        {2: 3, 3: 2, 5: 1}
        >>> factorize(12 * 1000003 ** 3)  # the cofactor is a cube: no Pollard-Brent
        {2: 2, 3: 1, 1000003: 3}
    """
    if not _is_int(n) or n <= 0:
        raise InputError(f"can only factor positive integers, got {n!r}")
    return _factor_all([n])[0]


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string "a/b" / "a" to an exact Fraction.

    A decimal string's exponent may not exceed 100000 in absolute value.

    Examples:
        >>> as_fraction("-2/3")
        Fraction(-2, 3)
    """
    if isinstance(x, Fraction):
        return x
    # a JSON true or false is no number, although bool is an int subclass
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        exponent = re.search(r"[eE]([-+]?[\d_]+)\Z", text)
        try:
            if not (exponent and abs(int(exponent[1])) > _MAX_EXPONENT):
                return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {x!r}") from exc
        raise InputError(f"decimal exponent beyond {_MAX_EXPONENT} in absolute value: {x!r}")
    raise InputError(f"cannot interpret {type(x).__name__} as a rational")


def valuation(x: RationalLike, p: int) -> int | float:
    """p-adic valuation of a rational; +infinity for zero.

    Examples:
        >>> valuation(Fraction(12), 2)
        2
        >>> valuation(Fraction(2, 3), 3)
        -1
        >>> valuation(0, 5)
        inf
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return _valuation(x, p)


def _valuation(x: RationalLike, p: int) -> int | float:
    """:func:`valuation` at a p already known to be prime."""
    q = as_fraction(x)
    if q == 0:
        return math.inf
    # in lowest terms p divides one part at most; beyond +-1 _strip counts
    n = q.numerator
    if n % p == 0:
        return 1 if n // p % p else _strip(n, p)[0]
    d = q.denominator
    if d % p == 0:
        return -1 if d // p % p else -_strip(d, p)[0]
    return 0


def valuation_table(xs: Iterable[RationalLike]) -> dict[int, list[int | float]]:
    """{p: [v_p(x) for x in xs]} over the support primes p, ascending.

    The distinct nonzero numerators and denominators are factored together,
    each once: after trial division by the primes below 1000 that one gcd
    with their product finds, their cofactors are split by
    gcds into one pairwise coprime base, so numbers that share a large prime
    split one another without Pollard-Brent, and a composite root split
    before in this process is read from the memo, charged the budget its
    split cost (see :func:`factorize`).  A zero entry has valuation
    +infinity at every prime.

    Examples:
        >>> valuation_table([Fraction(9, 10), 0, 4])
        {2: [-1, inf, 2], 3: [2, inf, 0], 5: [-1, inf, 0]}
        >>> m31, m61 = 2**31 - 1, 2**61 - 1  # the gcd with m61 splits m61 * m31
        >>> valuation_table([m61 * m31, Fraction(1, m61)])
        {2147483647: [1, 0], 2305843009213693951: [1, -1]}
    """
    qs = [as_fraction(x) for x in xs]
    if not any(qs):
        raise InputError("support is undefined for an all-zero family")
    # entries repeat, so each distinct numerator or denominator is factored once
    parts = list(dict.fromkeys(n for q in qs if q for n in (abs(q.numerator), q.denominator)))
    factored = dict(zip(parts, _factor_all(parts)))
    primes = sorted(set().union(*factored.values()))
    rows = [(factored[abs(q.numerator)], factored[q.denominator]) if q else None for q in qs]
    return {p: [math.inf if e is None else e[0].get(p, 0) - e[1].get(p, 0) for e in rows] for p in primes}


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, repr=False)
class Place:
    """A place of Q: a rational prime or the archimedean place.

    Examples:
        >>> Place.finite(2).is_archimedean
        False
        >>> str(Place.archimedean())
        'oo'
    """

    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None and not is_prime(self.prime):
            raise InputError(f"{self.prime} is not prime")

    @classmethod
    def _of_prime(cls, p: int) -> "Place":
        """The place of a prime that factoring or a checked Place already
        proved prime, so it is not tested again."""
        place = object.__new__(cls)
        object.__setattr__(place, "prime", p)
        return place

    @classmethod
    def archimedean(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    def __str__(self):
        return "oo" if self.prime is None else str(self.prime)

    def __repr__(self):
        return "Place.archimedean()" if self.prime is None else f"Place.finite({self.prime})"


ARCHIMEDEAN = Place.archimedean()


def _require_place(place) -> None:
    """Refuse a place that is not a Place, which would fail later as an AttributeError."""
    if not isinstance(place, Place):
        raise InputError(f"{place!r} is not a Place")


# ---------------------------------------------------------------------------
# exact logarithmic values
# ---------------------------------------------------------------------------

def _finite_arch(arch: float) -> float:
    """arch as a float without -0.0, any zero being the one constant 0.0;
    nan, +-inf and a value float() refuses are refused (-infinity is ``neg_inf``)."""
    try:
        arch = float(arch) + 0.0 or 0.0
    except (TypeError, ValueError, OverflowError):  # float("x"), float(None), float(10**400)
        raise InputError(f"archimedean part of type {type(arch).__name__} is not a finite double") from None
    if not math.isfinite(arch):
        raise InputError(f"archimedean part {arch!r} is not finite")
    return arch


@dataclass(frozen=True, slots=True, init=False, repr=False)
class LogValue:
    """A real number written as  sum_p q_p log(p) + arch,  or -infinity.

    ``finite`` maps primes to exact rational coefficients (zeros dropped),
    ``arch`` is a float, ``neg_inf`` flags the value -infinity.  The
    constructors (``LogValue(...)``, ``from_arch``) and the arithmetic
    refuse a nan or infinite arch part with InputError, so a sum past the
    double range raises.  Instances are immutable;
    arithmetic returns new values and keeps the finite coefficients exact.
    The finite part is stored as one flat tuple p1, q1, p2, q2, ...
    ascending in p, and ``finite`` is a read-only view of it built on access.

    Examples:
        >>> v = LogValue({2: Fraction(-2, 3)})
        >>> w = v + LogValue.from_arch(math.log(3))
        >>> round(w.to_float(), 6)
        0.636514
        >>> (v - v).is_exact_zero
        True
    """

    _items: tuple
    arch: float
    neg_inf: bool

    def __init__(
        self,
        finite: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]] | None = None,
        arch: float = 0.0,
        neg_inf: bool = False,
    ):
        clean: dict[int, Fraction] = {}
        if finite is not None and not neg_inf:
            items = finite.items() if isinstance(finite, Mapping) else finite
            for p, q in items:
                if not is_prime(p):
                    raise InputError(f"finite part keyed by non-prime {p}")
                q = as_fraction(q)
                if q != 0:
                    clean[p] = clean.get(p, Fraction(0)) + q
        self._fill(self._flat_items(clean), 0.0 if neg_inf else _finite_arch(arch), bool(neg_inf))

    def _fill(self, items: tuple, arch: float, neg_inf: bool) -> None:
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "arch", arch)
        object.__setattr__(self, "neg_inf", neg_inf)

    @staticmethod
    def _flat_items(finite: dict[int, Fraction]) -> tuple:
        """p1, q1, p2, q2, ... ascending in p, zeros dropped; one flat tuple
        holds a value's finite part without a tuple per pair."""
        return tuple(x for p, q in sorted(finite.items()) if q != 0 for x in (p, q))

    def _pairs(self) -> Iterator[tuple[int, Fraction]]:
        items = iter(self._items)
        return zip(items, items)

    @classmethod
    def _of_primes(cls, finite: dict[int, Fraction], arch: float = 0.0) -> "LogValue":
        """A finite value from Fractions keyed by primes that factoring, a
        Place or an existing LogValue already proved prime, so no key is
        tested for primality again.  Equal values share one object (see
        ``_VALUES``), and a value with no primes and arch 0 is ``_ZERO``.
        A nan or infinite arch raises InputError."""
        items, arch = cls._flat_items(finite), _finite_arch(arch)
        if not items and not arch:
            return _ZERO
        key = (items, arch)
        value = _VALUES.get(key)
        if value is None:
            value = object.__new__(cls)
            value._fill(items, arch, False)
            if len(_VALUES) >= _VALUES_CAP:
                del _VALUES[next(iter(_VALUES))]  # the oldest value
            _VALUES[key] = value
        return value

    @property
    def finite(self) -> Mapping[int, Fraction]:
        """{prime: coefficient}, ascending, as a read-only view."""
        return MappingProxyType(dict(self._pairs())) if self._items else _NO_PRIMES

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogValue":
        return _ZERO

    @classmethod
    def from_arch(cls, t: float) -> "LogValue":
        return cls._of_primes({}, t)

    @classmethod
    def neg_infinity(cls) -> "LogValue":
        return _NEG_INF

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        return LogValue._sum((self, other))

    @staticmethod
    def _sum(values: Sequence["LogValue"]) -> "LogValue":
        """values[0] + values[1] + ..., as repeated ``+`` gives it, but with
        no partial sum taking a place in ``_VALUES``."""
        if any(v.neg_inf for v in values):
            return LogValue.neg_infinity()
        merged, arch = dict(values[0]._pairs()), values[0].arch
        for v in values[1:]:
            for p, q in v._pairs():
                merged[p] = merged.get(p, Fraction(0)) + q
            arch += v.arch
        return LogValue._of_primes(merged, arch)

    def __neg__(self) -> "LogValue":
        if self.neg_inf:
            raise InputError("cannot negate -infinity")
        return LogValue._of_primes({p: -q for p, q in self._pairs()}, -self.arch)

    def __sub__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        return self + (-other)

    # -- queries -------------------------------------------------------------

    def to_float(self) -> float:
        """Round to a double: exact finite part summed with math.fsum."""
        if self.neg_inf:
            return -math.inf
        return math.fsum([float(q) * math.log(p) for p, q in self._pairs()] + [self.arch])

    @property
    def is_exact_zero(self) -> bool:
        """True iff the representation itself is zero (no rounding)."""
        return not self.neg_inf and not self._items and self.arch == 0.0

    def __hash__(self):
        return hash((tuple(self._pairs()), self.arch, self.neg_inf))

    def __repr__(self):
        if self.neg_inf:
            return "LogValue.neg_infinity()"
        fin = "{" + ", ".join(f"{p}: {q}" for p, q in self._pairs()) + "}"
        return f"LogValue(finite={fin}, arch={self.arch!r})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: {"finite": {"2": "-2/3"}, "arch": 0.0, "neg_inf": false}."""
        return {
            "finite": {str(p): str(q) for p, q in self._pairs()},
            "arch": self.arch,
            "neg_inf": self.neg_inf,
        }


_NO_PRIMES: Mapping[int, Fraction] = MappingProxyType({})
_ZERO = LogValue()
_NEG_INF = LogValue(neg_inf=True)
# Equal values built by LogValue._of_primes share one object, so a caller
# that keeps many results keeps one copy of each distinct value.  The
# oldest values go first beyond the cap.
_VALUES: dict[tuple, LogValue] = {}
_VALUES_CAP = 4096


# ---------------------------------------------------------------------------
# local absolute values and the product formula
# ---------------------------------------------------------------------------

def log_abs(x: RationalLike, place: Place) -> LogValue:
    """log |x|_v as a LogValue; -infinity when x is zero.

    At a finite place the result is the exact term -v_p(x) * log(p); at the
    archimedean place it is the float log|x|.  A place that is no Place raises InputError.

    Examples:
        >>> log_abs(Fraction(12), Place.finite(2))
        LogValue(finite={2: -2}, arch=0.0)
    """
    q = as_fraction(x)
    _require_place(place)
    if q == 0:
        return LogValue.neg_infinity()
    if place.is_archimedean:
        return LogValue.from_arch(math.log(abs(q.numerator)) - math.log(q.denominator))
    return LogValue._of_primes({place.prime: Fraction(-_valuation(q, place.prime))})


def _log_sum_squares(xs: Sequence[Fraction]) -> float:
    """log sum x_i^2 of rationals not all 0, summed on the integers D x_i (D the lcm of
    the denominators); numerator and denominator in lowest terms are logged apart,
    so no float overflows and the float is log_abs's of the Fraction sum."""
    d = math.lcm(*(x.denominator for x in xs))
    return _log_ratio(sum((x.numerator * (d // x.denominator)) ** 2 for x in xs), d * d)


def _log_ratio(num: int, den: int) -> float:
    """log(num / den) of positive integers: numerator and denominator in lowest
    terms are logged apart, so no float overflows."""
    g = math.gcd(num, den)
    return math.log(num // g) - math.log(den // g)


def exact_log_abs_arch(x: RationalLike) -> LogValue:
    """log |x| of a nonzero rational written exactly in the log(p) basis.

    Since |x| is a product of prime powers, log|x| = sum_p v_p(x) log(p)
    holds exactly; the returned value has arch part 0.0.

    Examples:
        >>> exact_log_abs_arch(Fraction(4, 3))
        LogValue(finite={2: 2, 3: -1}, arch=0.0)
    """
    q = as_fraction(x)
    if q == 0:
        raise InputError("log |0| is -infinity; no exact finite form")
    return LogValue._of_primes({p: Fraction(v) for p, (v,) in valuation_table([q]).items()})


def support_primes(xs: Iterable[RationalLike]) -> list[int]:
    """Primes dividing a numerator or denominator of some nonzero entry.

    Examples:
        >>> support_primes([Fraction(2), Fraction(2), Fraction(1)])
        [2]
        >>> support_primes([Fraction(9, 10), 0])
        [2, 3, 5]
    """
    return list(valuation_table(xs))


def product_formula_residual(x: RationalLike) -> LogValue:
    """sum_v log|x|_v over all places; exactly zero for nonzero rationals.

    The archimedean term is folded into the exact log(p) basis, whose primes
    are the finite places, so the finite coefficients cancel dictionary-wise
    and the result is the structurally zero LogValue.

    Examples:
        >>> product_formula_residual(Fraction(-6, 35)).is_exact_zero
        True
    """
    q = as_fraction(x)
    if q == 0:
        raise InputError("the product formula needs a nonzero rational")
    arch = exact_log_abs_arch(q)
    return LogValue._sum([arch, *(log_abs(q, Place._of_prime(p)) for p in arch.finite)])


class _LastInput:
    """A one-entry memo of local records: ``memo(key)`` is ``build(key)``
    for the last key, rebuilt when the key is not == to it.  Keys are
    compared, never hashed, so a call on the last call's objects costs an
    identity test; a build that raises leaves the memo as it was.  With
    ``semistable``, an input with no image in the quotient raises its
    record's ``no_image()`` error instead."""

    def __init__(self, build):
        self.build = build
        self.cache_clear()

    def __call__(self, key, semistable: bool = False):
        if self.key is None or self.key != key:
            self.record, self.key = self.build(key), key
        # no local of this frame holds the record, so the traceback of the
        # error, which a caller may keep, keeps no local data alive
        if semistable and not self.record.semistable:
            raise self.build.no_image()
        return self.record

    def cache_clear(self) -> None:
        self.key = self.record = None
