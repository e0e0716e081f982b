import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from githeight import places
from githeight.errors import AllZeroError, InputError, ZeroInputError
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
    values_close,
)

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


def test_as_fraction_parses_strings():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("-2") == Fraction(-2)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction("1.5") == Fraction(3, 2)
    with pytest.raises(InputError):
        as_fraction("a/b")


def test_prime_helpers():
    assert is_prime(2) and is_prime(97) and is_prime(7919)
    assert not is_prime(1) and not is_prime(91)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    # Pollard path: two six-digit prime factors
    assert factorize(100003 * 100019) == {100003: 1, 100019: 1}


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
    with pytest.raises(ZeroInputError):
        product_formula_residual(0)


def test_support_primes_examples():
    assert support_primes([2, 2, 1]) == [2]
    assert support_primes([1, 1]) == []
    assert support_primes([Fraction(10, 7), 3]) == [2, 3, 5, 7]
    assert support_primes([0, Fraction(-4, 9)]) == [2, 3]
    with pytest.raises(AllZeroError):
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
            with pytest.raises(AllZeroError):
                valuation_table(xs)
            continue
        table = valuation_table(xs)
        assert list(table) == [p for p in primes if any(valuation(x, p) not in (0, math.inf) for x in xs)]
        assert list(table) == support_primes(xs)
        for p in primes:
            # off the support every nonzero entry is a p-adic unit
            assert table.get(p, [math.inf if x == 0 else 0 for x in xs]) == [valuation(x, p) for x in xs]
    with pytest.raises(AllZeroError):
        valuation_table([0, Fraction(0)])
    with pytest.raises(AllZeroError):
        valuation_table([])


def test_logvalue_arithmetic():
    a = LogValue({2: Fraction(1, 2)}, arch=0.25)
    b = LogValue({2: Fraction(-1, 2), 3: Fraction(1)}, arch=0.5)
    s = a + b
    assert dict(s.finite) == {3: Fraction(1)}  # the 2-part cancels and is dropped
    assert s.arch == 0.75
    assert (a - a).is_exact_zero
    assert dict(a.scaled(Fraction(-2)).finite) == {2: Fraction(-1)}
    assert a.finite_coefficient(2) == Fraction(1, 2)
    assert a.finite_coefficient(7) == Fraction(0)
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
    d = (a - b).scaled(Fraction(-3, 2))
    assert calls == []
    assert dict(s.finite) == {998244353: 1, 1000000007: 3} and s.arch == 0.75
    assert list(d.finite) == [2, 998244353, 1000000007]
    assert dict(d.finite) == {2: Fraction(-3, 2), 998244353: Fraction(3, 2),
                              1000000007: Fraction(-9, 2)}
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
    with pytest.raises(InputError):
        bottom.scaled(-1)
    assert bottom.scaled(2).neg_inf


def test_logvalue_json_round_trip():
    v = LogValue({2: Fraction(-2, 3)}, arch=1.5)
    d = v.to_json_dict()
    assert d["finite"] == {"2": "-2/3"}
    assert LogValue.from_json_dict(json.loads(json.dumps(d))) == v
    assert LogValue.from_json_dict(LogValue.neg_infinity().to_json_dict()).neg_inf


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


def test_values_close():
    a = LogValue({2: Fraction(1)})
    b = LogValue.from_arch(math.log(2))
    assert values_close(a, b, 1e-12)
    assert not values_close(a, LogValue.from_arch(math.log(2) + 1e-6), 1e-9)
    assert values_close(LogValue.neg_infinity(), LogValue.neg_infinity(), 1e-9)
    assert not values_close(LogValue.neg_infinity(), a, 1e-9)


def test_place_identity():
    assert str(ARCHIMEDEAN) == "oo"
    assert str(Place.finite(2)) == "2"
    assert ARCHIMEDEAN.is_archimedean
    assert not Place.finite(3).is_archimedean
    with pytest.raises(InputError):
        Place.finite(4)


def test_no_negative_zero_arch():
    v = LogValue({2: 1}).scaled(-1)
    assert math.copysign(1.0, v.arch) == 1.0
    assert repr(LogValue.from_arch(-0.0)) == "LogValue(finite={}, arch=0.0)"
