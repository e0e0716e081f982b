import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from githeight.errors import InputError
from githeight.exactpoly import charpoly
from githeight.heights import ProjectivePointQ, naive_height
from githeight.places import LogValue, exact_log_abs_arch


def test_naive_height_examples():
    h = naive_height(ProjectivePointQ.parse("2:2:1"))
    assert not h.finite  # gcd(2,2,1) = 1: no finite contribution
    assert abs(h.arch - math.log(3)) < 1e-15
    assert naive_height(ProjectivePointQ.parse("1:0")).is_exact_zero
    h11 = naive_height(ProjectivePointQ.parse("1:1"))
    assert not h11.finite and abs(h11.arch - 0.5 * math.log(2)) < 1e-15
    # non-integral coordinates contribute at the denominators' primes
    hq = naive_height(ProjectivePointQ.parse("1/2:1"))
    assert dict(hq.finite) == {2: Fraction(1)}


def test_point_parsing_and_equality():
    p = ProjectivePointQ.parse("2:2:1")
    assert len(p.coords) == 3
    assert p == ProjectivePointQ.parse("-4:-4:-2")  # equality up to scaling
    assert p != ProjectivePointQ.parse("2:1:2")
    assert p.normalized()[0] == 1
    assert len(ProjectivePointQ.parse("1").coords) == 1
    with pytest.raises(InputError, match="projective coordinates cannot all vanish"):
        ProjectivePointQ.parse("0:0")
    with pytest.raises(InputError):
        ProjectivePointQ.parse("")
    with pytest.raises(InputError):
        ProjectivePointQ.parse("1:x")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20),
             min_size=2, max_size=5).filter(lambda xs: any(x != 0 for x in xs)),
    st.fractions(min_value=-20, max_value=20, max_denominator=10).filter(lambda q: q != 0),
)
def test_naive_height_scaling_invariance(coords, lam):
    from githeight.places import support_primes, valuation

    a = naive_height(ProjectivePointQ(tuple(coords)))
    b = naive_height(ProjectivePointQ(tuple(lam * c for c in coords)))
    # each place shifts by log |lam|_v, and those shifts cancel in total
    diff = b - a
    want = {p: Fraction(-valuation(lam, p)) for p in support_primes([lam])}
    assert dict(diff.finite) == want
    assert abs(diff.arch - math.log(abs(lam))) <= 1e-12
    assert abs(a.to_float() - b.to_float()) <= 1e-9


def test_naive_height_nonnegative_on_primitive_integer_points():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 5)
        coords = [rng.randint(-9, 9) for _ in range(n)]
        if all(c == 0 for c in coords):
            coords[0] = 1
        g = 0
        for c in coords:
            g = math.gcd(g, abs(c))
        coords = [c // g for c in coords]
        h = naive_height(ProjectivePointQ(tuple(Fraction(c) for c in coords)))
        assert not h.finite
        assert h.arch >= 0.0


def _gram_det(rows):
    """det G = (-1)^n chi_G(0), exactly."""
    return (-1) ** len(rows) * charpoly(rows).coeffs[0]


def _arakelov_degree(rows):
    """-1/2 log det G of the lattice with Gram matrix G, in the log(p) basis."""
    log_det = exact_log_abs_arch(_gram_det(rows))
    assert log_det.arch == 0.0  # det G is rational: its log is all in the log(p) basis
    return LogValue({p: -q / 2 for p, q in log_det.finite.items()})


def _slope(rows):
    """deg / rank, exact in the log(p) basis."""
    return LogValue({p: q / len(rows) for p, q in _arakelov_degree(rows).finite.items()})


def _random_gram(rng, n):
    """A diagonally dominant symmetric rational matrix, hence positive definite."""
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            b[i][j] = b[j][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        b[i][i] = Fraction(rng.randint(4, 9))
    return b


def test_arakelov_degree_examples():
    assert _arakelov_degree([[1, 0], [0, 1]]).is_exact_zero
    d = _arakelov_degree([[4]])
    assert dict(d.finite) == {2: Fraction(-1)} and d.arch == 0.0
    d2 = _arakelov_degree([[2, 0], [0, 2]])
    assert dict(d2.finite) == {2: Fraction(-1)}
    assert dict(_arakelov_degree([[2, -1], [-1, 2]]).finite) == {3: Fraction(-1, 2)}  # A_2


@pytest.mark.parametrize("rows, expected", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], {}),
    ([[4]], {2: Fraction(-1)}),
    ([[2, 0], [0, 2]], {2: Fraction(-1, 2)}),
    ([[2, -1], [-1, 2]], {3: Fraction(-1, 4)}),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], {2: Fraction(-1, 3)}),
], ids=["Z3", "2Z", "diag22", "A2", "A3"])
def test_slope_examples(rows, expected):
    assert _slope(rows) == LogValue(expected)


def test_degree_additive_on_orthogonal_sums():
    rng = random.Random(17)
    for _ in range(20):
        blocks = [_random_gram(rng, rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
        size = sum(len(b) for b in blocks)
        big = [[Fraction(0)] * size for _ in range(size)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, x in enumerate(row):
                    big[off + i][off + j] = x
            off += len(b)
        acc = LogValue.zero()
        for b in blocks:
            acc = acc + _arakelov_degree(b)
        assert _arakelov_degree(big) == acc


def test_slope_of_a_scaled_lattice_drops_by_log_c():
    # scaling a basis by c scales the Gram matrix by c^2
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 3)
        gram = _random_gram(rng, n)
        c = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        scaled = [[c * c * x for x in row] for row in gram]
        assert _slope(scaled) == _slope(gram) - exact_log_abs_arch(c)
