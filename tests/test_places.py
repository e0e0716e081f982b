import contextlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from githeight import MatrixQ, PolyQ, ProjectivePointQ, TorusAction, places
from githeight.conjugation import instability_conj, is_minimal_nonarch
from githeight.errors import InputError, NoConvergenceError
from githeight.exactpoly import newton_polygon
from githeight.heights import naive_height
from githeight.places import (
    ARCHIMEDEAN,
    LogValue,
    Place,
    as_fraction,
    factorize,
    is_prime,
    log_abs,
    product_formula_residual,
    support_primes,
    valuation,
    valuation_table,
)
from githeight.torus import instability_nonarch, kempf_ness_profile

PLACES = [ARCHIMEDEAN, Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(97)]

nonzero_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=200
).filter(lambda q: q != 0)


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(Fraction(1, 3), 3) == -1
    assert valuation(0, 5) == math.inf
    assert valuation(Fraction(50, 9), 3) == -2
    assert valuation(7, 5) == 0


@pytest.mark.parametrize("p", [2, 3, 1009])
def test_valuations_and_exponents_past_one(p):
    # the divisor is squared while it divides, then the powers are tried back down
    for k in range(70):
        for unit in (1, -1, p + 1, Fraction(1, p + 1)):
            assert valuation(unit * p ** k, p) == k
            assert valuation(unit / Fraction(p) ** k, p) == -k
        want = {q: e for q, e in ((p, k), (1013, k % 5)) if e}
        assert factorize(p ** k * 1013 ** (k % 5)) == want


def test_huge_valuations_return_quickly(time_limit):
    # one big division per unit of valuation took 21 s for 10^100000
    with time_limit(5):
        h = naive_height(ProjectivePointQ.parse("1e100000:1"))
        assert valuation(Fraction(3, 10 ** 100000), 5) == -100000
        assert factorize(2 ** 100000 * 3 ** 70001) == {2: 100000, 3: 70001}
    assert not h.finite and abs(h.arch - 100000 * math.log(10)) < 1e-6


@pytest.mark.parametrize("text", ["1e100001", "1e-100000000", "-2.5E+1_000_000", "1e" + "9" * 5000])
def test_as_fraction_refuses_huge_decimal_exponents(time_limit, text):
    # the exponent, not the digit count, set the parse time: 10.2 s for 1e10000000
    with time_limit(1), pytest.raises(InputError):
        as_fraction(text)


def test_as_fraction_parses_strings():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("-2") == Fraction(-2)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction("1.5") == Fraction(3, 2)
    with pytest.raises(InputError):
        as_fraction("a/b")


@pytest.mark.parametrize("flag", [True, False])
def test_as_fraction_refuses_booleans(flag):
    with pytest.raises(InputError):
        as_fraction(flag)


def test_prime_helpers():
    assert is_prime(2) and is_prime(97) and is_prime(7919)
    assert not is_prime(1) and not is_prime(91)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    # Pollard path: two six-digit prime factors
    assert factorize(100003 * 100019) == {100003: 1, 100019: 1}


# psi_k of OEIS A014233: the least strong pseudoprime to the first k prime bases,
# for k = 1..12 (psi_7 = psi_8 and psi_9 = psi_10 = psi_11); the bases up to 41 expose each
@pytest.mark.parametrize("psi, factors", [
    (2047, {23: 1, 89: 1}),
    (1373653, {829: 1, 1657: 1}),
    (25326001, {2251: 1, 11251: 1}),
    (3215031751, {151: 1, 751: 1, 28351: 1}),
    (2152302898747, {6763: 1, 10627: 1, 29947: 1}),
    (3474749660383, {1303: 1, 16927: 1, 157543: 1}),
    (341550071728321, {10670053: 1, 32010157: 1}),
    (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
    (318665857834031151167461, {399165290221: 1, 798330580441: 1}),
])
def test_strong_pseudoprimes_below_the_deterministic_bound_are_composite(psi, factors):
    assert not is_prime(psi)
    assert factorize(psi) == factors


# psi_13 of OEIS A014233, the least strong pseudoprime to all 13 bases up to 41
PSI13 = 3317044064679887385961981


def test_the_strong_lucas_step_refuses_psi13():
    assert not is_prime(PSI13)
    # Pollard-Brent may give up on it within the budget, but never calls it prime
    with contextlib.suppress(NoConvergenceError):
        assert factorize(PSI13) == {1287836182261: 1, 2575672364521: 1}
    assert all(is_prime(2**k - 1) for k in (89, 107, 127, 521))
    # strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255): the
    # Lucas step passes them, and the bases up to 41 refuse them below the bound
    lucas_pseudoprimes = (5459, 5777, 10877, 16109, 18971)
    assert all(places._strong_lucas(n) and not is_prime(n) for n in lucas_pseudoprimes)


# psi_1..psi_13 of OEIS A014233: the least odd composite that passes Miller-Rabin
# on the first k prime bases (Jaeschke 1993, Sorenson and Webster 2017)
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
SMALL_PRIMES = [q for q in range(2, 1000) if all(q % r for r in range(2, q))]


def _passes_miller_rabin(n, a):
    """n passes the strong probable-prime test to base a, for odd n > a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _reference_is_prime(n):
    """Trial division by the 168 primes below 1000, Miller-Rabin on all 13
    bases up to 41, and the strong Lucas step from psi_13."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return (all(_passes_miller_rabin(n, a) for a in SMALL_PRIMES[:13])
            and (n < A014233[-1] or places._strong_lucas(n)))


def test_the_base_count_table_is_a014233():
    assert places._MR_PSI == A014233
    assert places._MR_BASES == tuple(SMALL_PRIMES[:13])


@pytest.mark.parametrize("k", range(1, 14))
def test_each_psi_passes_its_first_k_bases(k):
    # so the first k bases do not decide at psi_k: no threshold is one too high
    psi = A014233[k - 1]
    assert all(_passes_miller_rabin(psi, a) for a in SMALL_PRIMES[:k])
    assert not is_prime(psi) and not _reference_is_prime(psi)


def test_is_prime_agrees_with_all_thirteen_bases_below_200000():
    assert [n for n in range(200_000) if is_prime(n) != _reference_is_prime(n)] == []


def _primes_from(n, count):
    """The first count primes from n up, by the reference test."""
    return list(itertools.islice(filter(_reference_is_prime, itertools.count(n)), count))


@pytest.mark.parametrize("k", range(1, 14))
def test_is_prime_agrees_with_all_thirteen_bases_around_each_psi(k):
    psi, rng = A014233[k - 1], random.Random(k)
    # odd n next to psi_k and across the range its base count covers
    ns = [psi + d for d in range(-400, 401, 2)]
    ns += [rng.randrange(psi // 4, 4 * psi) | 1 for _ in range(300)]
    # products of two primes near sqrt(psi_k), on both sides of it
    near = _primes_from(max(2, math.isqrt(psi) - 200), 12)
    ns += [p * q for p in near for q in near]
    assert [n for n in ns if is_prime(n) != _reference_is_prime(n)] == []


def test_log_abs_examples():
    v = log_abs(Fraction(1, 3), Place.finite(3))
    assert dict(v.finite) == {3: Fraction(1)}
    assert v.arch == 0.0
    assert log_abs(-2, ARCHIMEDEAN).arch == math.log(2)
    assert log_abs(6, Place.finite(5)).is_exact_zero
    assert log_abs(0, Place.finite(2)).neg_inf
    assert log_abs(0, ARCHIMEDEAN).neg_inf


@settings(max_examples=60, deadline=None)
@given(nonzero_rationals, nonzero_rationals, st.sampled_from(PLACES))
def test_log_abs_is_multiplicative(x, y, place):
    lhs = log_abs(x * y, place)
    rhs = log_abs(x, place) + log_abs(y, place)
    assert lhs.finite == rhs.finite
    assert abs(lhs.arch - rhs.arch) <= 1e-12 * (1.0 + abs(lhs.arch))


def test_product_formula_examples():
    assert product_formula_residual(6).is_exact_zero
    assert product_formula_residual(-1).is_exact_zero
    # 10/7 over {2, 5, 7, oo}, expanded by hand:
    #   -log2 - log5 + log7 + ln(10/7) with ln(10/7) = log2 + log5 - log7
    assert product_formula_residual(Fraction(10, 7)).is_exact_zero
    with pytest.raises(InputError, match="the product formula needs a nonzero rational"):
        product_formula_residual(0)


def test_support_primes_examples():
    assert support_primes([2, 2, 1]) == [2]
    assert support_primes([1, 1]) == []
    assert support_primes([Fraction(10, 7), 3]) == [2, 3, 5, 7]
    assert support_primes([0, Fraction(-4, 9)]) == [2, 3]
    with pytest.raises(InputError, match="support is undefined for an all-zero family"):
        support_primes([0, 0])


def test_valuation_table_matches_valuation():
    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13, 1000003, 998244353]

    def smooth():
        n = 1
        for p in rng.sample(primes, rng.randint(0, 3)):
            n *= p ** (1 if p > 1000 else rng.randint(1, 3))
        return n

    for _ in range(200):
        xs = [0 if rng.random() < 0.25 else Fraction(rng.choice((-1, 1)) * smooth(), smooth())
              for _ in range(rng.randint(1, 6))]
        if all(x == 0 for x in xs):
            with pytest.raises(InputError, match="support is undefined for an all-zero family"):
                valuation_table(xs)
            continue
        table = valuation_table(xs)
        assert list(table) == [p for p in primes if any(valuation(x, p) not in (0, math.inf) for x in xs)]
        assert list(table) == support_primes(xs)
        for p in primes:
            # off the support every nonzero entry is a p-adic unit
            assert table.get(p, [math.inf if x == 0 else 0 for x in xs]) == [valuation(x, p) for x in xs]
    with pytest.raises(InputError, match="support is undefined for an all-zero family"):
        valuation_table([0, Fraction(0)])
    with pytest.raises(InputError, match="support is undefined for an all-zero family"):
        valuation_table([])


M31, M61 = 2**31 - 1, 2**61 - 1
P32 = 4294967291  # the largest prime below 2^32
BIG = (1009, 65537, 1000003, 998244353, 1000000007, P32, M31, M61)


def _reference_factorization(n):
    """{p: e} of n by trial division over the primes below 1000 and BIG."""
    out = {}
    for p in [q for q in range(1000) if is_prime(q)] + [q for q in BIG if is_prime(q)]:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    assert n == 1
    return out


def _reference_table(xs):
    rows = [None if x == 0 else {**_reference_factorization(abs(x.numerator)),
                                 **{p: -k for p, k in _reference_factorization(x.denominator).items()}}
            for x in xs]
    primes = sorted(set().union(*(r for r in rows if r is not None)))
    return {p: [math.inf if r is None else r.get(p, 0) for r in rows] for p in primes}


def test_valuation_table_equals_per_number_factoring():
    rng = random.Random(23)
    for _ in range(60):
        # a few large primes per family, so numerators and denominators share them
        pool = rng.sample(BIG, rng.randint(1, 3))

        def part():
            n = rng.choice((1, 2, 6, 45, 7**3, 997))
            for p in rng.sample(pool, rng.randint(0, min(2, len(pool)))):
                n *= p ** rng.choice((1, 1, 2, 3))  # p^k and p^k q^j cofactors
            return n

        xs = [Fraction(0) if rng.random() < 0.2 else Fraction(rng.choice((-1, 1)) * part(), part())
              for _ in range(rng.randint(1, 6))]
        if all(x == 0 for x in xs):
            continue
        assert valuation_table(xs) == _reference_table(xs)
        for x in filter(None, xs):
            assert factorize(abs(x.numerator)) == _reference_factorization(abs(x.numerator))


# the primes of the big-primes benchmark's products
PRODUCT_PRIMES = (998244353, 999999937, 1000000007, 1000000009, M31, P32, M61)
PRODUCTS = (1000000007 * 998244353, 999999937 * 1000000009, M61, M31 * P32, Fraction(M61 * M31, 999999937))


def _trial_division(n):
    """{p: e} of n by plain trial division over SMALL_PRIMES and PRODUCT_PRIMES."""
    out = {}
    for p in SMALL_PRIMES + list(PRODUCT_PRIMES):
        while n % p == 0:
            n, out[p] = n // p, out.get(p, 0) + 1
    assert n == 1
    return out


def _trial_division_table(xs):
    rows = [None if x == 0 else (_trial_division(abs(x.numerator)), _trial_division(x.denominator)) for x in xs]
    primes = sorted(set().union(*(a.keys() | b.keys() for a, b in filter(None, rows))))
    return {p: [math.inf if r is None else r[0].get(p, 0) - r[1].get(p, 0) for r in rows] for p in primes}


def _smooth(rng, primes=SMALL_PRIMES):
    n = 1
    for p in rng.sample(primes, rng.randint(0, 4)):
        n *= p ** rng.randint(1, 5)
    return n


def _factoring_families():
    rng = random.Random(29)
    yield [math.prod(SMALL_PRIMES), 2**64, 997**7, 1]
    yield [math.prod(SMALL_PRIMES) * M61, 997**7 * P32**2, Fraction(1, 2**64)]
    for _ in range(40):
        # products times smooth factors, a zero now and then after the first
        yield [0 if i and rng.random() < 0.15
               else Fraction(rng.choice((-1, 1)) * rng.choice(PRODUCTS) * _smooth(rng), _smooth(rng, [2, 3, 5, 997]))
               for i in range(rng.randint(1, 7))]
    for _ in range(20):
        # only one part has a small factor
        xs = [Fraction(rng.choice(PRODUCTS)) for _ in range(rng.randint(1, 5))]
        i = rng.randrange(len(xs))
        xs[i] *= rng.choice(SMALL_PRIMES) ** rng.randint(1, 3)
        yield xs


@pytest.mark.parametrize("family", list(_factoring_families()))
def test_factoring_equals_trial_division(family):
    xs = [Fraction(x) for x in family]
    assert valuation_table(xs) == _trial_division_table(xs)
    for n in {abs(x.numerator) for x in xs if x} | {x.denominator for x in xs}:
        assert factorize(n) == _trial_division(n)


@pytest.mark.parametrize("family", [[M61 * M31, M61], [P32**3, P32], [P32**2]],
                         ids=["m61m31-m61", "p3-p", "p2"])
def test_shared_primes_and_powers_need_no_pollard_brent(monkeypatch, family):
    calls = []
    pollard_brent = places._pollard_brent
    monkeypatch.setattr(places, "_pollard_brent",
                        lambda n, budget: calls.append(n) or pollard_brent(n, budget))
    xs = [Fraction(x) for x in family]
    assert valuation_table(xs) == _reference_table(xs)
    assert calls == []


def test_factorize_gives_up_within_its_budget(time_limit):
    # the least prime factor is M61, far beyond the 2^20 / 3 Pollard-Brent steps of a 150-bit number
    with time_limit(10), pytest.raises(NoConvergenceError):
        factorize(M61 * (2**89 - 1))


def test_one_pollard_brent_budget_per_family(monkeypatch):
    # split alone, the two semiprimes cost 12 798 and 6 270 units: each fits
    # the budget, and both together do not
    monkeypatch.setattr(places, "_SPLITS", {})
    monkeypatch.setattr(places, "_POLLARD_BUDGET", 16_000)
    first, second = 10000019 * 10001009, 10002007 * 10003001
    assert factorize(first) == {10000019: 1, 10001009: 1}
    assert factorize(second) == {10002007: 1, 10003001: 1}
    # both splits are now recorded with their cost, and charged it again
    assert places._SPLITS == {first: ((10000019, 10001009), 12_798),
                              second: ((10002007, 10003001), 6_270)}
    with pytest.raises(NoConvergenceError):
        valuation_table([Fraction(first), Fraction(second)])
    assert len(places._SPLITS) == 2  # a failure is not recorded
    monkeypatch.setattr(places, "_POLLARD_BUDGET", 1 << 20)
    assert valuation_table([Fraction(first), Fraction(second)]) == {
        10000019: [1, 0], 10001009: [1, 0], 10002007: [0, 1], 10003001: [0, 1]}


def _semiprimes(rng, count, bits):
    """count products of two random primes of the given size."""
    def prime():
        while True:
            n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            if is_prime(n):
                return n

    return [(prime(), prime()) for _ in range(count)]


def test_split_memo_gives_the_cold_results(monkeypatch):
    rng = random.Random(41)
    pairs = _semiprimes(rng, 12, 28)
    families = []
    for _ in range(20):
        chosen = rng.sample(pairs, rng.randint(1, 3))
        # p q, (p q)^2 and p^2 q cofactors, times small primes
        xs = [Fraction(rng.choice((1, 6, 35)) * (p * q) ** rng.choice((1, 2)) * rng.choice((1, p)),
                       rng.choice((1, 2, 9)))
              for p, q in chosen]
        families.append(xs)
    numbers = [p * q * rng.choice((1, 4, 999)) for p, q in pairs]

    def results():
        return ([valuation_table(xs) for xs in families], [factorize(n) for n in numbers])

    monkeypatch.setattr(places, "_SPLITS", {})
    cold = results()
    assert results() == cold
    for (p, q), n in zip(pairs, numbers):
        found = factorize(n)
        assert {r: k for r, k in found.items() if r > 1000} == {p: 1, q: 1}
        # a warm result shares the memo's prime objects
        assert all(any(r is s for r in found) for s in places._SPLITS[p * q][0])


def test_split_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(places, "_SPLITS", {})
    monkeypatch.setattr(places, "_SPLITS_CAP", 3)
    numbers = [p * q for p, q in _semiprimes(random.Random(43), 7, 24)]
    for n in numbers:
        factorize(n)
        assert len(places._SPLITS) <= 3
    assert list(places._SPLITS) == numbers[-3:]  # the oldest roots went first


_W214 = TorusAction(1, ((-2,), (1,), (4,)))
_P221 = ProjectivePointQ.parse("2:2:1")


@pytest.mark.parametrize("p", [1, 4, 91])
@pytest.mark.parametrize("call", [
    lambda p: valuation(12, p),
    lambda p: Place.finite(p),
    lambda p: Place(p),
    lambda p: LogValue({p: 1}),
    lambda p: newton_polygon(PolyQ([-2, 0, 1]), p),
    lambda p: is_minimal_nonarch(MatrixQ.from_lists([[1, 1], [0, 1]]), p),
    lambda p: instability_nonarch(_W214, _P221, p),
], ids=["valuation", "place", "place_init", "logvalue", "newton_polygon", "is_minimal_nonarch",
        "instability_nonarch"])
def test_public_entry_points_refuse_non_primes(call, p):
    # a user's p is tested once at the entry point; later valuations trust it
    with pytest.raises(InputError):
        call(p)


@pytest.mark.parametrize("call", [
    lambda: Place.finite(2.9),
    lambda: Place(2.9),
    lambda: Place(True),
    lambda: instability_nonarch(_W214, _P221, 2.9),
    lambda: LogValue({2.9: 1}),
    lambda: valuation(4, 2.5),
    lambda: is_prime(2.5),
    lambda: newton_polygon(PolyQ([-2, 0, 1]), 2.5),
    lambda: is_minimal_nonarch(MatrixQ.from_lists([[1, 1], [0, 1]]), 2.9),
    lambda: factorize(True),
    lambda: factorize(12.0),
], ids=["place", "place_init", "place_bool", "instability_nonarch", "logvalue", "valuation",
        "is_prime", "newton_polygon",
        "is_minimal_nonarch", "factorize_bool", "factorize_float"])
def test_non_integer_primes_are_refused(call):
    # int(2.9) == 2 would silently compute at another prime
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("place", [2, "oo", None], ids=["int", "str", "none"])
@pytest.mark.parametrize("call", [
    lambda place: instability_conj(MatrixQ.from_lists([[1, 1], [0, 1]]), place),
    lambda place: kempf_ness_profile(_W214, _P221, [1], [0.0], place),
    lambda place: log_abs(12, place),
    lambda place: log_abs(0, place),
], ids=["instability_conj", "kempf_ness_profile", "log_abs", "log_abs_zero"])
def test_a_place_that_is_no_place_is_refused(call, place):
    # each once failed as an AttributeError on place.is_archimedean
    with pytest.raises(InputError):
        call(place)


def test_log_sum_squares_matches_the_fraction_sum_bit_for_bit():
    rng = random.Random(19)
    for _ in range(400):
        scale = rng.choice([0, 1, 30, 300, 400, 420])
        xs = [Fraction(rng.randint(-10**6, 10**6) * 10 ** rng.randint(0, scale),
                       rng.randint(1, 10**6) * 10 ** rng.randint(0, scale)) for _ in range(rng.randint(1, 9))]
        if not any(xs):
            xs[0] = Fraction(1, 10 ** scale)
        total = sum(x * x for x in xs)
        # the Fraction route: numerator and denominator in lowest terms, logged apart
        assert places._log_sum_squares(xs) == math.log(total.numerator) - math.log(total.denominator)
        assert places._log_sum_squares(xs) == log_abs(total, ARCHIMEDEAN).arch
    for big in (Fraction(10**400), Fraction(1, 10**400), Fraction(3 * 10**399, 7)):
        assert places._log_sum_squares([big, 1]) == log_abs(big * big + 1, ARCHIMEDEAN).arch


@pytest.mark.parametrize("arch", [math.nan, math.inf, -math.inf, "x", 10**400],
                         ids=["nan", "inf", "-inf", "str", "int_past_double"])
@pytest.mark.parametrize("build", [
    lambda a: LogValue(arch=a),
    lambda a: LogValue({2: 1}, a),
    LogValue.from_arch,
    lambda a: kempf_ness_profile(_W214, _P221, [1], [0.0, a]),
], ids=["init", "init_finite", "from_arch", "kempf_ness_grid_point"])
def test_logvalue_refuses_a_non_finite_arch_part(build, arch):
    # a nan arch part would build a value unequal to itself; -infinity is neg_inf.
    # A profile at a grid point that is no finite double was [nan], or a TypeError
    with pytest.raises(InputError):
        build(arch)


_BIG = LogValue.from_arch(1e308)


@pytest.mark.parametrize("compute", [
    lambda: _BIG + _BIG,
    lambda: _BIG - (-_BIG),
    lambda: -_BIG + -_BIG,
], ids=["sum", "difference", "negative_sum"])
def test_logvalue_arithmetic_refuses_a_non_finite_arch_part(compute):
    # an inf arch part minus itself would be nan, a value unequal to itself;
    # a -inf arch part is refused too, not read as neg_inf
    with pytest.raises(InputError, match="is not finite"):
        compute()


def test_logvalue_neg_infinity_ignores_its_arch_part():
    assert LogValue(arch=math.nan, neg_inf=True) == LogValue.neg_infinity()


def test_logvalue_arithmetic():
    a = LogValue({2: Fraction(1, 2)}, arch=0.25)
    b = LogValue({2: Fraction(-1, 2), 3: Fraction(1)}, arch=0.5)
    s = a + b
    assert dict(s.finite) == {3: Fraction(1)}  # the 2-part cancels and is dropped
    assert s.arch == 0.75
    assert (a - a).is_exact_zero
    assert a.finite.get(2, 0) == Fraction(1, 2)
    assert a.finite.get(7, 0) == 0
    assert abs(a.to_float() - (0.5 * math.log(2) + 0.25)) < 1e-15


def test_logvalue_arithmetic_tests_no_prime_again(monkeypatch):
    with pytest.raises(InputError):
        LogValue({4: 1})
    a = LogValue({2: Fraction(1, 2), 1000000007: 3}, arch=0.25)
    b = LogValue({2: Fraction(-1, 2), 998244353: 1}, arch=0.5)
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(places, "is_prime", counted)
    s = a + b
    d = b - a - a
    assert calls == []
    assert dict(s.finite) == {998244353: 1, 1000000007: 3} and s.arch == 0.75
    assert list(d.finite) == [2, 998244353, 1000000007]
    assert dict(d.finite) == {2: Fraction(-3, 2), 998244353: 1, 1000000007: -6}
    # a public construction still tests every key
    with pytest.raises(InputError):
        LogValue({2: 1, 9: 1})
    assert calls == [2, 9]


def test_logvalue_neg_infinity():
    bottom = LogValue.neg_infinity()
    assert bottom.neg_inf
    assert (bottom + LogValue.from_arch(1.0)).neg_inf
    assert bottom.to_float() == -math.inf
    with pytest.raises(InputError):
        -bottom


def test_logvalue_json_round_trip():
    v = LogValue({2: Fraction(-2, 3)}, arch=1.5)
    d = v.to_json_dict()
    assert d == {"finite": {"2": "-2/3"}, "arch": 1.5, "neg_inf": False}
    assert json.loads(json.dumps(d)) == d
    assert LogValue.neg_infinity().to_json_dict() == {"finite": {}, "arch": 0.0, "neg_inf": True}


@pytest.mark.parametrize("value", [
    LogValue.zero(),
    LogValue.neg_infinity(),
    LogValue.from_arch(-2.5),
    LogValue({2: Fraction(-2, 3), 5: 7}, arch=1e300),
    LogValue({2**89 - 1: Fraction(1, 2)}),
], ids=["zero", "neg_infinity", "arch_only", "finite_and_arch", "big_prime"])
def test_logvalue_to_json_dict_emits_json_types_only(value):
    # the CLI prints this dict: string keys and exact string fractions, a
    # finite float arch part and a bool flag, so strict JSON carries it unchanged
    d = value.to_json_dict()
    assert list(d) == ["finite", "arch", "neg_inf"]
    assert all(type(p) is str and type(q) is str for p, q in d["finite"].items())
    assert {int(p): Fraction(q) for p, q in d["finite"].items()} == dict(value.finite)
    assert type(d["arch"]) is float and type(d["neg_inf"]) is bool
    assert json.loads(json.dumps(d, allow_nan=False)) == d


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([2, 3, 5, 7]), st.fractions(max_denominator=12)),
        max_size=4,
    ),
    st.lists(
        st.tuples(st.sampled_from([2, 3, 5, 7]), st.fractions(max_denominator=12)),
        max_size=4,
    ),
    st.lists(
        st.tuples(st.sampled_from([2, 3, 5, 7]), st.fractions(max_denominator=12)),
        max_size=4,
    ),
)
def test_logvalue_addition_exact_on_finite_parts(xs, ys, zs):
    a = LogValue(dict(xs))
    b = LogValue(dict(ys))
    c = LogValue(dict(zs))
    assert (a + b).finite == (b + a).finite
    assert ((a + b) + c).finite == (a + (b + c)).finite


def test_place_identity():
    assert str(ARCHIMEDEAN) == "oo"
    assert str(Place.finite(2)) == "2"
    assert ARCHIMEDEAN.is_archimedean
    assert not Place.finite(3).is_archimedean
    with pytest.raises(InputError):
        Place.finite(4)
    assert Place._of_prime(2) == Place.finite(2)
    assert hash(Place._of_prime(2)) == hash(Place.finite(2))
    assert Place.finite(2) != Place.finite(3)
    assert Place.finite(2) != 2
    with pytest.raises(AttributeError):
        Place.finite(2).prime = 3
    assert repr(Place.finite(2)) == "Place.finite(2)"
    assert repr(ARCHIMEDEAN) == "Place.archimedean()"


@pytest.mark.parametrize("p", [2, 97, 1000000007, 2**61 - 1, 2**89 - 1])
def test_a_trusted_place_is_the_checked_place(p):
    # _of_prime skips the primality test, and nothing else may differ
    trusted, checked = Place._of_prime(p), Place.finite(p)
    assert trusted == checked == Place(p) and hash(trusted) == hash(checked)
    assert repr(trusted) == f"Place.finite({p})" and str(trusted) == str(p)
    assert {trusted: 1}[checked] == 1
    assert not trusted.is_archimedean and trusted != ARCHIMEDEAN


def test_logvalue_finite_is_read_only():
    for v in (LogValue({2: 1}), LogValue.zero(), LogValue({2: 1}) - LogValue({2: 1})):
        with pytest.raises(TypeError):
            v.finite[3] = Fraction(1)
        assert 3 not in v.finite


def test_equal_values_share_one_object(monkeypatch):
    monkeypatch.setattr(places, "_VALUES", {})
    monkeypatch.setattr(places, "_VALUES_CAP", 3)
    a = LogValue({2: Fraction(1, 2), 3: 1}, arch=0.25)
    assert (a + a) is (a + a + a) - a
    assert (a - a) is LogValue.zero() is LogValue.from_arch(-0.0)
    assert LogValue.neg_infinity() is LogValue.neg_infinity()
    multiple = a
    for k in range(1, 8):
        assert multiple == LogValue({2: Fraction(k, 2), 3: k}, arch=0.25 * k)
        assert len(places._VALUES) <= 3
        multiple = multiple + a


logvalue_parts = st.tuples(
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 1000003]), st.fractions(max_denominator=12),
                    max_size=5),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(logvalue_parts)
def test_logvalue_equality_hash_repr_and_json(parts):
    finite, arch = parts
    kept = sorted((p, q) for p, q in finite.items() if q != 0)
    arch += 0.0
    for v in (LogValue(finite, arch), LogValue._of_primes(dict(reversed(list(finite.items()))), arch)):
        assert v == LogValue(dict(kept), arch) and hash(v) == hash((tuple(kept), arch, False))
        assert dict(v.finite) == dict(kept) and list(v.finite) == [p for p, _ in kept]
        assert repr(v) == "LogValue(finite={" + ", ".join(f"{p}: {q}" for p, q in kept) + f"}}, arch={arch!r})"
        assert v.to_json_dict() == {"finite": {str(p): str(q) for p, q in kept}, "arch": arch,
                                    "neg_inf": False}
        with pytest.raises(AttributeError):
            v.arch = 1.0
    assert LogValue.zero() != 0


def test_no_negative_zero_arch():
    v = -LogValue({2: 1})
    assert math.copysign(1.0, v.arch) == 1.0
    assert repr(LogValue.from_arch(-0.0)) == "LogValue(finite={}, arch=0.0)"
