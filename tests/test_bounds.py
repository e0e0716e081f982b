import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from githeight.bounds import (
    MAX_TENSOR_DIM,
    PermSpec,
    convex_lemma_argmin,
    convex_lemma_min,
    ell,
    epsilon_map,
    epsilon_norm_check,
    explicit_lower_bound,
    perm_invariant_check,
    permutation_operator,
)
from githeight.errors import (
    DimensionTooLargeError,
    InputError,
    LengthMismatchError,
    NonPositiveError,
    UnsupportedSizeError,
)
from githeight.places import LogValue


def test_ell_examples():
    assert ell(1) == 0.0
    assert ell(2) == 0.5 * math.log(2)
    assert abs(ell(10000) - (math.log(10000) - 1.0)) < 0.01
    for bad in (0, -3, 2.5, True):
        with pytest.raises(NonPositiveError):
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
    with pytest.raises(LengthMismatchError):
        explicit_lower_bound([1], [LogValue.zero()], [2, 2])
    for bad in (0, True):
        with pytest.raises(NonPositiveError):
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


def test_epsilon_map_rank_two_inverse():
    eps = epsilon_map(2).toarray().astype(int)
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
    assert m3.shape == (729, 27)
    col = m3[:, [0 * 9 + 1 * 3 + 2]].toarray().ravel()  # image of e1(x)e2(x)e3
    nonzero = np.nonzero(col)[0]
    assert len(nonzero) == 6
    assert sorted(col[nonzero]) == [-1, -1, -1, 1, 1, 1]
    # identity permutation carries sign +1
    base = (0 * 9 + 1 * 3 + 2) * 27
    assert col[base + (0 * 9 + 1 * 3 + 2)] == 1
    # a transposition flips the sign
    assert col[base + (1 * 9 + 0 * 3 + 2)] == -1
    assert epsilon_map(4).shape == (65536, 256)
    for bad in (1, 5, 0):
        with pytest.raises(UnsupportedSizeError):
            epsilon_map(bad)


def test_epsilon_gram_is_factorial_times_identity():
    for w in (2, 3):
        m = epsilon_map(w).astype(np.int64)
        gram = (m.T @ m).toarray()
        scale = math.factorial(w) if w != 2 else 1
        assert (gram == scale * np.eye(m.shape[1], dtype=np.int64)).all()
    m4 = epsilon_map(4).astype(np.int64)
    gram4 = (m4.T @ m4).toarray()
    assert (gram4 == 24 * np.eye(256, dtype=np.int64)).all()


def test_epsilon_norm_check():
    r2 = epsilon_norm_check(2)
    assert abs(r2.norm - 1.0) < 1e-8
    assert abs(r2.bound - math.sqrt(2)) < 1e-12
    assert r2.ok and r2.iterations >= 1
    for w in (3, 4):
        r = epsilon_norm_check(w)
        assert r.ok
        assert r.norm <= r.bound + 1e-8
        assert abs(r.norm - math.sqrt(math.factorial(w))) < 1e-6


def test_perm_spec_validation():
    with pytest.raises(InputError):
        PermSpec((2,), ((0, 0),))
    with pytest.raises(LengthMismatchError):
        PermSpec((2, 2), ((0, 1),))
    with pytest.raises(NonPositiveError):
        PermSpec((0,), ((),))
    spec = PermSpec((13,), (tuple(range(13)),))
    with pytest.raises(DimensionTooLargeError):
        spec.dim((2,))  # 2^13 > 4096
    assert PermSpec((2,), ((1, 0),)).dim((3,)) == 9
    # a float, bool or string is refused, not truncated by int()
    for arities, perms in (((2.7,), ((1.2, 0.9),)), ((2,), ((1.0, 0),)), ((True,), ((0,),)),
                           (("2",), ((1, 0),)), ((2,), ((True, False),)), ((2,), (("1", "0"),))):
        with pytest.raises(InputError):
            PermSpec(arities, perms)
    swap = PermSpec((2,), ((1, 0),))
    for dims in ((2.9,), (True,), ("3",), (0,), (-1,)):
        with pytest.raises(InputError):
            swap.dim(dims)
        with pytest.raises(InputError):
            permutation_operator(swap, dims)
    for trials in (0, -1, 2.5, True, "3"):
        with pytest.raises(InputError):
            perm_invariant_check(swap, (2,), trials=trials)


def test_permutation_operator_explicit():
    eye_spec = PermSpec((2,), ((0, 1),))
    assert (permutation_operator(eye_spec, (3,)) == np.eye(9, dtype=np.int8)).all()
    swap = permutation_operator(PermSpec((2,), ((1, 0),)), (2,))
    want = np.zeros((4, 4), dtype=np.int8)
    want[0, 0] = want[3, 3] = 1
    want[2, 1] = want[1, 2] = 1  # e1(x)e2 <-> e2(x)e1
    assert (swap == want).all()
    # permutation operators are orthogonal: composition with inverse is identity
    assert (swap @ swap == np.eye(4, dtype=np.int8)).all()
    assert int(np.trace(swap.T @ swap)) == 4  # trace pairing at sigma = tau


def test_index_map_moves_slot_s_of_factor_i_to_perms_i_s():
    from githeight.bounds import _full_index_map

    # loop reference: unpack each column's slot digits, move them, pack again
    for arities, perms, dims in (((3,), ((1, 2, 0),), (3,)), ((2, 3), ((1, 0), (2, 0, 1)), (3, 2)),
                                 ((1, 2), ((0,), (1, 0)), (2, 1)), ((4,), ((2, 0, 3, 1),), (2,))):
        radices, targets = [], []
        for d, a, p in zip(dims, arities, perms):
            targets += [len(radices) + s for s in p]
            radices += [d] * a
        full_map = _full_index_map(PermSpec(arities, perms), dims)
        for col, t in enumerate(itertools.product(*map(range, radices))):
            u = [0] * len(t)
            for s, digit in enumerate(t):
                u[targets[s]] = digit
            row = 0
            for r, digit in zip(radices, u):
                row = row * r + digit
            assert full_map[col] == row


def test_perm_invariant_check_all_small_symmetric_groups():
    for arity, group in ((2, itertools.permutations(range(2))),
                        (3, itertools.permutations(range(3)))):
        for sigma in group:
            for d in (1, 2, 3):
                spec = PermSpec((arity,), (tuple(sigma),))
                assert perm_invariant_check(spec, (d,), trials=20, seed=arity + d)


def test_perm_invariant_check_mixed_factors():
    spec = PermSpec((2, 3), ((1, 0), (2, 0, 1)))
    assert perm_invariant_check(spec, (3, 2), trials=6, seed=9)


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


def test_max_tensor_dim_constant():
    assert MAX_TENSOR_DIM == 4096
