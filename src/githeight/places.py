"""Places of Q and exact logarithmic bookkeeping.

The places of Q are the rational primes p (with |p|_p = 1/p) and one
archimedean place (the usual absolute value).  Every height and instability
computation in this package is a sum of local terms, and the finite-place
terms are always rational multiples of log p.  To keep those terms exact we
never store them as floats: a :class:`LogValue` is a formal sum

    sum_p q_p * log(p)  +  t

with exact rational coefficients ``q_p`` and a single float slack ``t`` for
genuinely archimedean quantities (like log of a sum of squares).  Finite
parts add, scale and cancel exactly; only :meth:`LogValue.to_float` rounds.

A ``neg_inf`` flag represents the value -infinity, which is the instability
measure of an unstable point.  It absorbs addition and positive scaling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .errors import AllZeroError, InputError, ZeroInputError

RationalLike = Union[Fraction, int, str]

#: Default absolute tolerance for comparing float images of values.
DEFAULT_COMPARE_TOL = 1e-9


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

# Witness set proven sufficient for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with proven witness set).

    Examples:
        >>> is_prime(2), is_prime(97), is_prime(1)
        (True, True, False)
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    # Brent's cycle variant; n must be odd composite, not a prime power issue
    # here since callers recurse.  Deterministic: seeds tried in order.
    if n % 2 == 0:
        return 2
    for seed in range(1, 100):
        y, c, m = seed, seed, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"factorization failed for {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}.

    Examples:
        >>> factorize(360)
        {2: 3, 3: 2, 5: 1}
    """
    if n <= 0:
        raise InputError(f"can only factor positive integers, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        if n == 1:
            return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or string "a/b" / "a" to an exact Fraction.

    Examples:
        >>> as_fraction("-2/3")
        Fraction(-2, 3)
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {x!r}") from exc
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
    q = as_fraction(x)
    if q == 0:
        return math.inf
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def valuation_table(xs: Iterable[RationalLike]) -> dict[int, list[int | float]]:
    """{p: [v_p(x) for x in xs]} over the support primes p, ascending.

    Each nonzero numerator and denominator is factored once, and every
    place of the family is read off these factorizations; a zero entry has
    valuation +infinity at every prime.

    Examples:
        >>> valuation_table([Fraction(9, 10), 0, 4])
        {2: [-1, inf, 2], 3: [2, inf, 0], 5: [-1, inf, 0]}
    """
    qs = [as_fraction(x) for x in xs]
    if all(q == 0 for q in qs):
        raise AllZeroError("support is undefined for an all-zero family")
    exponents = []
    for q in qs:
        e = {}
        if q:
            # a Fraction is in lowest terms, so no prime divides both parts
            e = factorize(abs(q.numerator))
            e.update((p, -k) for p, k in factorize(q.denominator).items())
        exponents.append(e)
    primes = sorted(set().union(*exponents))
    return {p: [e.get(p, 0) if q else math.inf for q, e in zip(qs, exponents)] for p in primes}


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------

class Place:
    """A place of Q: a rational prime or the archimedean place.

    Examples:
        >>> Place.finite(2).is_archimedean
        False
        >>> str(Place.archimedean())
        'oo'
    """

    __slots__ = ("prime",)

    def __init__(self, prime: int | None = None):
        if prime is not None and not is_prime(prime):
            raise InputError(f"{prime} is not prime")
        object.__setattr__(self, "prime", prime)

    def __setattr__(self, name, value):
        raise AttributeError("Place is immutable")

    @classmethod
    def archimedean(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(int(p))

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    def __eq__(self, other):
        return isinstance(other, Place) and self.prime == other.prime

    def __hash__(self):
        return hash(("Place", self.prime))

    def __str__(self):
        return "oo" if self.prime is None else str(self.prime)

    def __repr__(self):
        return "Place.archimedean()" if self.prime is None else f"Place.finite({self.prime})"


ARCHIMEDEAN = Place.archimedean()


# ---------------------------------------------------------------------------
# exact logarithmic values
# ---------------------------------------------------------------------------

class LogValue:
    """A real number written as  sum_p q_p log(p) + arch,  or -infinity.

    ``finite`` maps primes to exact rational coefficients (zeros dropped),
    ``arch`` is a float, ``neg_inf`` flags the value -infinity.  Instances
    are immutable; arithmetic returns new values and keeps the finite
    coefficients exact.

    Examples:
        >>> v = LogValue({2: Fraction(-2, 3)})
        >>> w = v + LogValue.from_arch(math.log(3))
        >>> round(w.to_float(), 6)
        0.636514
        >>> (v - v).is_exact_zero
        True
    """

    __slots__ = ("finite", "arch", "neg_inf")

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
                p = int(p)
                if not is_prime(p):
                    raise InputError(f"finite part keyed by non-prime {p}")
                q = as_fraction(q)
                if q != 0:
                    clean[p] = clean.get(p, Fraction(0)) + q
        self._fill(clean, 0.0 if neg_inf else arch, neg_inf)

    def _fill(self, finite: dict[int, Fraction], arch: float, neg_inf: bool) -> None:
        object.__setattr__(
            self, "finite", MappingProxyType({p: q for p, q in sorted(finite.items()) if q != 0})
        )
        object.__setattr__(self, "arch", float(arch) + 0.0)  # no -0.0
        object.__setattr__(self, "neg_inf", bool(neg_inf))

    @classmethod
    def _of_primes(cls, finite: dict[int, Fraction], arch: float) -> "LogValue":
        """A finite value from Fractions keyed by primes that an existing
        LogValue already validated, so no key is tested for primality again."""
        value = object.__new__(cls)
        value._fill(finite, arch, False)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("LogValue is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogValue":
        return cls()

    @classmethod
    def from_arch(cls, t: float) -> "LogValue":
        return cls(arch=t)

    @classmethod
    def neg_infinity(cls) -> "LogValue":
        return cls(neg_inf=True)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        if self.neg_inf or other.neg_inf:
            return LogValue.neg_infinity()
        merged = dict(self.finite)
        for p, q in other.finite.items():
            merged[p] = merged.get(p, Fraction(0)) + q
        return LogValue._of_primes(merged, self.arch + other.arch)

    def __neg__(self) -> "LogValue":
        if self.neg_inf:
            raise InputError("cannot negate -infinity")
        return LogValue._of_primes({p: -q for p, q in self.finite.items()}, -self.arch)

    def __sub__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        return self + (-other)

    def scaled(self, c: RationalLike) -> "LogValue":
        """Multiply by an exact rational scalar."""
        c = as_fraction(c)
        if self.neg_inf:
            if c > 0:
                return LogValue.neg_infinity()
            if c == 0:
                return LogValue.zero()
            raise InputError("cannot scale -infinity by a negative factor")
        return LogValue._of_primes({p: q * c for p, q in self.finite.items()}, self.arch * float(c))

    # -- queries -------------------------------------------------------------

    def to_float(self) -> float:
        """Round to a double: exact finite part summed with math.fsum."""
        if self.neg_inf:
            return -math.inf
        return math.fsum([float(q) * math.log(p) for p, q in self.finite.items()] + [self.arch])

    @property
    def is_exact_zero(self) -> bool:
        """True iff the representation itself is zero (no rounding)."""
        return not self.neg_inf and not self.finite and self.arch == 0.0

    def finite_coefficient(self, p: int) -> Fraction:
        return self.finite.get(p, Fraction(0))

    def close_to(self, other: "LogValue", tol: float | None = None) -> bool:
        """Compare float images within an absolute tolerance (default 1e-9)."""
        tol = DEFAULT_COMPARE_TOL if tol is None else tol
        if self.neg_inf or other.neg_inf:
            return self.neg_inf and other.neg_inf
        return abs(self.to_float() - other.to_float()) <= tol

    def __eq__(self, other):
        if not isinstance(other, LogValue):
            return NotImplemented
        return (
            self.neg_inf == other.neg_inf
            and dict(self.finite) == dict(other.finite)
            and self.arch == other.arch
        )

    def __hash__(self):
        return hash((tuple(self.finite.items()), self.arch, self.neg_inf))

    def __repr__(self):
        if self.neg_inf:
            return "LogValue.neg_infinity()"
        fin = "{" + ", ".join(f"{p}: {q}" for p, q in self.finite.items()) + "}"
        return f"LogValue(finite={fin}, arch={self.arch!r})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: {"finite": {"2": "-2/3"}, "arch": 0.0, "neg_inf": false}."""
        return {
            "finite": {str(p): str(q) for p, q in self.finite.items()},
            "arch": self.arch,
            "neg_inf": self.neg_inf,
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "LogValue":
        try:
            finite = {int(p): as_fraction(q) for p, q in dict(d.get("finite", {})).items()}
            return cls(finite, float(d.get("arch", 0.0)), bool(d.get("neg_inf", False)))
        except (TypeError, AttributeError) as exc:
            raise InputError(f"malformed LogValue payload: {d!r}") from exc


def values_close(a: LogValue, b: LogValue, tol: float | None = None) -> bool:
    """Module-level comparison with the package default tolerance."""
    return a.close_to(b, tol)


# ---------------------------------------------------------------------------
# local absolute values and the product formula
# ---------------------------------------------------------------------------

def log_abs(x: RationalLike, place: Place) -> LogValue:
    """log |x|_v as a LogValue; -infinity when x is zero.

    At a finite place the result is the exact term -v_p(x) * log(p); at the
    archimedean place it is the float log|x|.

    Examples:
        >>> log_abs(Fraction(12), Place.finite(2))
        LogValue(finite={2: -2}, arch=0.0)
    """
    q = as_fraction(x)
    if q == 0:
        return LogValue.neg_infinity()
    if place.is_archimedean:
        return LogValue.from_arch(math.log(abs(q.numerator)) - math.log(q.denominator))
    return LogValue({place.prime: -valuation(q, place.prime)})


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
        raise ZeroInputError("log |0| is -infinity; no exact finite form")
    return LogValue({p: v for p, (v,) in valuation_table([q]).items()})


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

    The archimedean term is folded into the exact log(p) basis, so the
    finite coefficients cancel dictionary-wise and the result is the
    structurally zero LogValue.

    Examples:
        >>> product_formula_residual(Fraction(-6, 35)).is_exact_zero
        True
    """
    q = as_fraction(x)
    if q == 0:
        raise ZeroInputError("the product formula needs a nonzero rational")
    total = exact_log_abs_arch(q)
    for p in support_primes([q]):
        total = total + log_abs(q, Place.finite(p))
    return total
