import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from githeight import bounds
from githeight.bounds import (
    convex_lemma_argmin,
    convex_lemma_min,
    ell,
    epsilon_map,
    epsilon_norm_check,
    explicit_lower_bound,
)
from githeight.errors import InputError
from githeight.places import LogValue, as_fraction


def test_ell_examples():
    assert ell(1) == 0.0
    assert ell(2) == 0.5 * math.log(2)
    assert abs(ell(10000) - (math.log(10000) - 1.0)) < 0.01
    for bad in (0, -3, 2.5, True):
        with pytest.raises(InputError, match="ell needs a positive integer"):
            ell(bad)


def test_ell_is_continuous_where_lgamma_takes_over():
    exact = {n: math.log(math.factorial(n)) / n for n in (169, 170, 171, 172)}
    assert ell(169) == exact[169] and ell(170) == exact[170]
    for n in (171, 172):
        assert abs(ell(n) - exact[n]) <= 4 * math.ulp(exact[n])
    assert ell(169) < ell(170) < ell(171) < ell(172)


def test_ell_of_a_billion_takes_no_factorial(time_limit):
    n = 10 ** 9
    with time_limit(1):
        got = ell(n)
    # Stirling: log(n!) / n = log n - 1 + log(2 pi n) / (2 n) + O(n^-2)
    assert abs(got - (math.log(n) - 1 + math.log(2 * math.pi * n) / (2 * n))) < 1e-12


def test_ell_monotone_and_below_log():
    # incremental oracle: ell(n) = (sum_{i<=n} ln i)/n, scan every n to 1e5
    s = 0.0
    prev = -1.0
    for n in range(1, 100001):
        s += math.log(n)
        val = s / n
        assert val >= prev - 1e-15
        assert val <= math.log(n) + 1e-12
        prev = val
        if n in (1, 2, 100, 5000, 100000):
            assert abs(ell(n) - val) < 1e-8


def test_explicit_lower_bound_examples():
    z = explicit_lower_bound(
        [0, 0], [LogValue({2: 1}), LogValue.from_arch(0.3)], [2, 3]
    )
    assert z.is_exact_zero
    b1 = explicit_lower_bound([1], [LogValue({2: Fraction(-1)})], [2])
    assert dict(b1.finite) == {2: Fraction(1)} and b1.arch == 0.0
    b2 = explicit_lower_bound([2], [LogValue.zero()], [3])
    assert abs(b2.to_float() + math.log(6) / 3) < 1e-15
    with pytest.raises(InputError, match="multipliers, slopes and ranks must align"):
        explicit_lower_bound([1], [LogValue.zero()], [2, 2])
    for bad in (0, True):
        with pytest.raises(InputError, match="rank must be a positive integer"):
            explicit_lower_bound([1], [LogValue.zero()], [bad])


# LogValue refuses a nan or infinite arch part, so the slopes whose double is
# nan or infinite have exact finite parts: 10^308 log 7 overflows to inf
_INF = LogValue({7: 10**308})


@pytest.mark.parametrize("multipliers, slopes, ranks", [
    (["1e400"], [LogValue.zero()], [2]),
    (["1e400"], [LogValue.zero()], [3]),
    ([1], [_INF + LogValue({11: -10**308})], [2]),  # inf - inf
    ([1], [_INF], [3]),
    ([1], [LogValue.neg_infinity()], [2]),
    (["1e300"], [LogValue.from_arch(1e300)], [2]),  # the product overflows
    (["1.7e308"], [LogValue.zero()], [100]),  # the rank penalty overflows
])
def test_explicit_lower_bound_refuses_values_beyond_doubles(multipliers, slopes, ranks):
    with pytest.raises(InputError, match="is not finite as a double"):  # the bound's own check
        explicit_lower_bound(multipliers, slopes, ranks)


def test_explicit_lower_bound_rank_two_has_no_penalty():
    got = explicit_lower_bound(
        [3, -2],
        [LogValue({2: Fraction(1, 2)}), LogValue({3: Fraction(-1)})],
        [2, 2],
    )
    assert dict(got.finite) == {2: Fraction(-3, 2), 3: Fraction(-2)}
    assert got.arch == 0.0


def _term_by_term_bound(bs, slopes, ranks):
    """The bound summed slope by slope, as before twist_shift carried the sum."""
    total = LogValue.zero()
    for b, mu in zip(bs, slopes):
        total = total - mu.scaled(b)
    penalty = 0.0
    for b, r in zip(bs, ranks):
        if r >= 3 and b != 0:
            penalty += abs(float(b)) / 2.0 * ell(r)
    return total + LogValue.from_arch(-penalty)


def test_explicit_lower_bound_is_the_term_by_term_sum():
    rng = np.random.default_rng(21)
    arch = (0.0, -0.0, 1e308, -1e308, 0.1, -2.5, 1 / 3)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        bs = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) if rng.random() < 0.7
              else repr(float(rng.uniform(-4, 4))) for _ in range(n)]
        slopes = [LogValue({int(p): Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                            for p in rng.choice([2, 3, 5, 7], size=int(rng.integers(0, 3)))})
                  + LogValue.from_arch(arch[int(rng.integers(len(arch)))]) for _ in range(n)]
        ranks = [int(rng.integers(1, 6)) for _ in range(n)]
        try:
            want = _term_by_term_bound([as_fraction(b) for b in bs], slopes, ranks)
            if not math.isfinite(want.to_float()):
                raise InputError("not finite")
        except InputError:
            with pytest.raises(InputError):
                explicit_lower_bound(bs, slopes, ranks)
            continue
        got = explicit_lower_bound(bs, slopes, ranks)
        assert dict(got.finite) == dict(want.finite)
        assert got.arch.hex() == want.arch.hex()


def test_epsilon_map_rank_two_inverse():
    m = epsilon_map(2)
    eps = np.zeros(m.shape, dtype=int)
    eps[m.rows, np.arange(4)[:, None]] = m.signs
    # inverse: phi (x) (e1 ^ e2) -> phi(e1) (x) e2 - phi(e2) (x) e1
    inv = np.zeros((4, 4), dtype=int)
    inv[1, 0] = 1   # E11 -> e1 (x) e2
    inv[0, 1] = -1  # E12 -> -e1 (x) e1
    inv[3, 2] = 1   # E21 -> e2 (x) e2
    inv[2, 3] = -1  # E22 -> -e2 (x) e1
    eye = np.eye(4, dtype=int)
    assert (eps @ inv == eye).all()
    assert (inv @ eps == eye).all()


def test_epsilon_map_shapes_and_signed_sum():
    m3 = epsilon_map(3)
    assert m3.shape == (729, 27) and m3.rows.shape == m3.signs.shape == (27, 6)
    c = 0 * 9 + 1 * 3 + 2  # e1(x)e2(x)e3
    col = dict(zip(m3.rows[c].tolist(), m3.signs[c].tolist()))  # its image, row -> sign
    assert len(col) == 6
    assert sorted(col.values()) == [-1, -1, -1, 1, 1, 1]
    # identity permutation carries sign +1
    base = c * 27
    assert col[base + (0 * 9 + 1 * 3 + 2)] == 1
    # a transposition flips the sign
    assert col[base + (1 * 9 + 0 * 3 + 2)] == -1
    m4 = epsilon_map(4)
    assert m4.shape == (65536, 256) and m4.rows.shape == (256, 24)
    for bad in (1, 5, 0):
        with pytest.raises(InputError, match="implemented for sizes 2 to 4"):
            epsilon_map(bad)


def test_epsilon_gram_is_factorial_times_identity():
    for w in (2, 3, 4):
        eps = epsilon_map(w)
        # Gram = sum over rows of the outer product of the row's entries; the
        # dense w = 4 map would be 65536 x 256
        by_row = defaultdict(list)
        for c, (rows, signs) in enumerate(zip(eps.rows.tolist(), eps.signs.tolist())):
            for r, sign in zip(rows, signs):
                by_row[r].append((c, sign))
        gram = np.zeros((eps.shape[1],) * 2, dtype=np.int64)
        for entries in by_row.values():
            for a, sa in entries:
                for b, sb in entries:
                    gram[a, b] += sa * sb
        scale = math.factorial(w) if w != 2 else 1
        assert (gram == scale * np.eye(eps.shape[1], dtype=np.int64)).all()


def test_epsilon_norm_check():
    r2 = epsilon_norm_check(2)
    assert r2.norm == 1.0 and r2.bound == math.sqrt(2) and r2.ok
    for w in (3, 4):
        r = epsilon_norm_check(w)
        assert r.ok
        assert r.norm == r.bound == math.sqrt(math.factorial(w))


def test_epsilon_norm_check_refuses_columns_that_share_a_row(monkeypatch):
    # three columns on one row: the Gram matrix has an all-ones 3 x 3 block, so
    # the norm is sqrt(3), past the bound sqrt(2!), though each column has norm 1
    shared = bounds.EpsilonMap((4, 4), np.array([[0], [0], [0], [3]]), np.ones((4, 1), dtype=np.int8))
    monkeypatch.setattr(bounds, "epsilon_map", lambda w: shared)
    r = epsilon_norm_check(2)
    assert r.ok is False
    assert r.norm == 1.0  # the largest column norm alone would pass


def test_epsilon_norm_check_refuses_a_column_past_the_bound(monkeypatch):
    # rows pairwise distinct, so the Gram matrix is diagonal, but one column's
    # sum of squares is 3 > 2!
    heavy = bounds.EpsilonMap((6, 2), np.array([[0, 1, 2], [3, 4, 5]]),
                              np.array([[1, 1, -1], [1, -1, 1]], dtype=np.int8))
    monkeypatch.setattr(bounds, "epsilon_map", lambda w: heavy)
    r = epsilon_norm_check(2)
    assert r.norm == math.sqrt(3) and r.ok is False


def test_epsilon_norm_check_refuses_unsupported_sizes():
    for bad in (0, 1, 5, 2.0, "3", None):
        with pytest.raises(InputError, match="implemented for sizes 2 to 4"):
            epsilon_norm_check(bad)


def test_convex_lemma_values():
    assert abs(convex_lemma_min("log3") - math.log(3)) < 1e-8
    assert abs(convex_lemma_min("log_sqrt3") - 0.5 * math.log(3)) < 1e-8
    assert abs(convex_lemma_argmin("log3")) < 1e-10
    assert abs(convex_lemma_argmin("log_sqrt3")) < 1e-10
    with pytest.raises(InputError):
        convex_lemma_min("cubic")


def test_convex_lemma_profiles_are_convex_on_a_grid():
    from githeight.bounds import _lemma_profile

    for variant in ("log3", "log_sqrt3"):
        f = _lemma_profile(variant)
        xs = [i / 8 - 2.5 for i in range(41)]
        vals = [f(x) for x in xs]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert a + c - 2 * b >= -1e-9
        assert min(vals) >= convex_lemma_min(variant) - 1e-9
