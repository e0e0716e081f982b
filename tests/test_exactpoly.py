import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from githeight import exactpoly
from githeight.errors import InputError, NoConvergenceError
from githeight.exactpoly import (
    NewtonPolygon,
    PolyQ,
    charpoly,
    complex_roots,
    newton_polygon,
)
from githeight.places import valuation


def poly(*ascending) -> PolyQ:
    return PolyQ([Fraction(c) for c in ascending])


def evaluate(f: PolyQ, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def test_charpoly_examples():
    assert charpoly([[1, 1], [0, 1]]).coeffs == (Fraction(1), Fraction(-2), Fraction(1))
    assert charpoly([[0, -1], [1, 0]]).coeffs == (Fraction(1), Fraction(0), Fraction(1))
    # trace 5, det -2
    assert charpoly([[1, 2], [3, 4]]).coeffs == (Fraction(-2), Fraction(-5), Fraction(1))
    with pytest.raises(InputError, match="characteristic polynomial needs a square matrix"):
        charpoly([[1, 2, 3], [4, 5, 6]])


def test_charpoly_matches_expansion_on_random_matrices():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        f = charpoly(m)
        assert f.degree == n and f.coeffs[-1] == 1
        # det(tI - m) at a few rational points, by fraction-free elimination
        for t in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            a = [[(t if i == j else Fraction(0)) - m[i][j] for j in range(n)]
                 for i in range(n)]
            det = Fraction(1)
            rows = [row[:] for row in a]
            sign = 1
            for col in range(n):
                piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
                if piv is None:
                    det = Fraction(0)
                    break
                if piv != col:
                    rows[col], rows[piv] = rows[piv], rows[col]
                    sign = -sign
                det *= rows[col][col]
                inv = 1 / rows[col][col]
                for r in range(col + 1, n):
                    factor = rows[r][col] * inv
                    for c in range(col, n):
                        rows[r][c] -= factor * rows[col][c]
            assert evaluate(f, t) == sign * det


def _faddeev_leverrier(rows):
    """Reference charpoly over Fractions: M <- A(M + c I), c_k = -tr(A M)/k."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return tuple(coeffs)


def _reference_matrices():
    rng = random.Random(23)
    for n in range(1, 13):
        yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        yield [[Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 7, 9, 10, 12)))
                for _ in range(n)] for _ in range(n)]
        yield [[rng.choice((-1, 1)) * 10**200 + rng.randint(-5, 5) for _ in range(n)]
               for _ in range(n)]
        yield [[Fraction(rng.choice((-1, 1)) * 10**200 + rng.randint(-5, 5), rng.randint(1, 12))
                for _ in range(n)] for _ in range(n)]
        # strictly upper triangular, then conjugated by a unimodular shear: nilpotent
        nil = [[rng.randint(-5, 5) if j > i else 0 for j in range(n)] for i in range(n)]
        if n > 1:
            i, j, c = rng.randrange(n), rng.randrange(n - 1), rng.randint(1, 3)
            j += j >= i
            for row in nil:  # nil * (I + c E_ij)
                row[j] += c * row[i]
            nil[i] = [x - c * y for x, y in zip(nil[i], nil[j])]  # (I - c E_ij) * ...
        yield nil
        zero_row = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(n)]
        zero_row[rng.randrange(n)] = [0] * n
        yield zero_row
        zero_col = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        k = rng.randrange(n)
        for row in zero_col:
            row[k] = 0
        yield zero_col


def test_charpoly_equals_faddeev_leverrier():
    count = nilpotent = 0
    for m in _reference_matrices():
        f = charpoly(m)
        assert f.coeffs == _faddeev_leverrier(m)
        count += 1
        nilpotent += f.coeffs[:-1] == (0,) * (len(m))
    assert count == 84 and nilpotent >= 12


def test_newton_polygon_examples():
    np1 = newton_polygon(poly(6, -5, 1), 2)
    assert sorted(np1.root_valuations()) == [Fraction(0), Fraction(1)]
    np2 = newton_polygon(poly(-2, 0, 1), 2)
    assert np2.root_valuations() == [Fraction(1, 2), Fraction(1, 2)]
    np3 = newton_polygon(poly(1, -2, 1), 3)
    assert np3.root_valuations() == [Fraction(0), Fraction(0)]
    with pytest.raises(InputError, match="the zero polynomial is not allowed here"):
        PolyQ([0, 0])


def test_newton_polygon_zero_roots_and_slope_sum():
    # T^2(T^2 - 2): two zero roots split off before the hull
    f = poly(0, 0, -2, 0, 1)
    np4 = newton_polygon(f, 2)
    assert np4.zero_root_multiplicity == 2
    assert np4.root_valuations() == [Fraction(1, 2), Fraction(1, 2)]
    rng = random.Random(11)
    for _ in range(100):
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(deg)]
        coeffs.append(Fraction(rng.randint(1, 20)))
        f = PolyQ(coeffs)
        for p in (2, 3, 5):
            g, _ = f.shift_out_zero_roots()
            pol = newton_polygon(f, p)
            total = sum(s * length for s, length in pol.segments)
            assert total == valuation(g.coeffs[-1], p) - valuation(g.coeffs[0], p)
            vals = pol.root_valuations()
            assert vals == sorted(vals, reverse=True)  # slopes strictly increase


def _fraction_hull(valuations):
    """Reference lower hull over Fractions: (vertices, segments)."""
    hull = []
    for pt in ((i, Fraction(v)) for i, v in enumerate(valuations) if v != math.inf):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = tuple(((b[1] - a[1]) / Fraction(b[0] - a[0]), b[0] - a[0])
                     for a, b in zip(hull, hull[1:]))
    return tuple(hull), segments


def test_from_valuations_equals_fraction_hull():
    rng = random.Random(29)
    cases = [[0, 0, 0, 0], [3, 2, 1, 0], [0, 1, 2, 3, 4], [2, math.inf, 0, math.inf, 2],
             [5], [math.inf, 1, math.inf], [0, 1, 2, 1, 0], [6, 4, 2, 0, 0, 0]]
    for _ in range(400):
        n = rng.randint(1, 14)
        if rng.random() < 0.3:  # points on a line, some lifted off it
            slope, base = rng.randint(-3, 3), rng.randint(-5, 5)
            vals = [base + slope * i + (rng.randint(1, 3) if rng.random() < 0.3 else 0)
                    for i in range(n)]
        else:
            vals = [rng.randint(-6, 12) for _ in range(n)]
        for i in range(n - 1):  # keep a finite last coefficient, as a polynomial does
            if rng.random() < 0.2:
                vals[i] = math.inf
        cases.append(vals)
    for vals in cases:
        pol = NewtonPolygon.from_valuations(7, vals, 1)
        vertices, segments = _fraction_hull(vals)
        assert pol.vertices == vertices and pol.segments == segments
        assert all(type(y) is Fraction for _, y in pol.vertices)
        expected = []
        for slope, length in segments:
            expected.extend([-slope] * length)
        assert pol.root_valuations() == expected
        assert pol.zero_root_multiplicity == 1


def test_min_root_valuation_examples():
    def log_max_root(f, p):  # in units of log p
        return -newton_polygon(f, p).min_root_valuation

    assert log_max_root(poly(6, -5, 1), 2) == 0
    assert log_max_root(poly(-2, 0, 1), 2) == Fraction(-1, 2)
    assert log_max_root(poly(-4, 1), 2) == Fraction(-2)
    with pytest.raises(InputError, match="polygon has no nonzero roots"):
        log_max_root(poly(0, 0, 1), 5)


def test_complex_roots_examples():
    r = complex_roots(poly(1, 0, 1))
    got = sorted(r, key=lambda z: z.imag)
    assert abs(got[0] - (-1j)) < 1e-9 and abs(got[1] - 1j) < 1e-9
    assert len(r) == 2

    # a double root is two real values near 1, not one value of multiplicity 2
    r2 = complex_roots(poly(1, -2, 1))
    assert len(r2) == 2
    assert all(abs(z - 1) < 1e-6 and z.imag == 0.0 for z in r2)

    r3 = complex_roots(poly(-1, 0, 0, 1))
    got = sorted(r3, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    want = sorted(
        (complex(math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3))
         for k in range(3)),
        key=lambda z: (round(z.real, 6), round(z.imag, 6)),
    )
    assert all(abs(a - b) < 1e-9 for a, b in zip(got, want))


def test_complex_roots_conjugation_and_power_sums():
    rng = random.Random(23)
    for _ in range(60):
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)] + [Fraction(1)]
        f = PolyQ(coeffs)
        roots = complex_roots(f)
        assert len(roots) == deg
        # multiset closed under conjugation
        conj = sorted(roots, key=lambda z: (z.real, z.imag))
        conj2 = sorted((z.conjugate() for z in roots), key=lambda z: (z.real, z.imag))
        assert all(abs(a - b) <= 1e-9 * (1 + abs(a)) for a, b in zip(conj, conj2))
        # Newton's identities: p1 = e1, p2 = e1*p1 - 2*e2
        e1 = -float(f.coeffs[-2]) if deg >= 1 else 0.0
        e2 = float(f.coeffs[-3]) if deg >= 2 else 0.0
        p1 = sum(roots)
        p2 = sum(z * z for z in roots)
        scale = 1.0 + max(abs(p1), abs(p2))
        assert abs(p1 - e1) <= 1e-8 * scale
        assert abs(p2 - (e1 * p1.real - 2 * e2)) <= 1e-8 * scale


def test_complex_roots_pair_exact_conjugates():
    # the polynomials of test_complex_roots_conjugation_and_power_sums
    rng = random.Random(23)
    for _ in range(60):
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)] + [Fraction(1)]
        counts = Counter(complex_roots(PolyQ(coeffs)))
        for z, m in counts.items():
            assert z.imag == 0.0 or counts[z.conjugate()] == m


def test_complex_roots_of_repeated_roots(from_roots):
    # (T-2)^2 (T-3)^3: a distance pairing of the complex solver's roots once
    # invented the pair 2.49998 +- 4e-5i and counted six roots
    roots = complex_roots(from_roots([2, 2, 3, 3, 3]))
    assert len(roots) == 5
    assert all(min(abs(z - 2), abs(z - 3)) < 1e-4 for z in roots)


@pytest.mark.parametrize("coeffs", [
    [3 * 10**310, -(10**310 + 3), 1],  # leading coefficient subnormal once scaled
    [1, 10**300, 10**620],  # constant term 0.0 once scaled
])
def test_complex_roots_refuse_coefficients_beyond_double_range(coeffs):
    with pytest.raises(NoConvergenceError, match="coefficient range"):
        complex_roots(PolyQ(coeffs))


def test_aberth_sweeps_keep_exact_conjugate_pairs(monkeypatch):
    # (T^2 - 2T + 5)(T^2 + T + 13/16)(T - 3)(T + 2): roots 1 +- 2i, -1/2 +- 3/4 i, 3, -2
    f = poly(Fraction(-195, 8), Fraction(-389, 16), Fraction(-355, 16), Fraction(89, 16),
             Fraction(-19, 16), -2, 1)
    true = [1 + 2j, 1 - 2j, -0.5 + 0.75j, -0.5 - 0.75j, 3, -2]
    # the real eigensolver's layout, each root moved by 1e-3: pairs consecutive,
    # upper member first, moved conjugately
    moved = [1 + 2j + 1e-3, 1 - 2j + 1e-3, -0.5 + 0.75j - 1e-3j, -0.5 - 0.75j + 1e-3j,
             3 - 1e-3, -2 + 1e-3]
    monkeypatch.setattr(exactpoly.np, "roots", lambda c: np.array(moved))
    roots = complex_roots(f)
    assert len(roots) == 6
    assert all(min(abs(z - t) for z in roots) < 1e-9 for t in true)
    assert sorted(roots, key=lambda z: (z.real, z.imag)) == sorted(
        (z.conjugate() for z in roots), key=lambda z: (z.real, z.imag))
    # two exactly equal starts are moved apart before Aberth's repulsion
    monkeypatch.setattr(exactpoly.np, "roots", lambda c: np.array([1.5, 1.5]))
    got = sorted(z.real for z in complex_roots(poly(2, -3, 1)))  # (T-1)(T-2)
    assert abs(got[0] - 1) < 1e-9 and abs(got[1] - 2) < 1e-9


def test_aberth_refines_a_start_that_fails_the_residual(from_roots):
    true = [-3e-23, 6e-35]
    f = from_roots([Fraction(-3, 10**23), Fraction(6, 10**35)])
    scale = max(abs(c) for c in f.coeffs)
    start = sorted(np.roots([float(c / scale) for c in reversed(f.coeffs)]).real)
    assert abs(start[1] - true[1]) > 1e-9 * true[1]  # the eigensolver's start is off
    roots = complex_roots(f)
    assert len(roots) == 2
    assert all(z.imag == 0.0 and abs(z.real - t) <= 1e-9 * abs(t) for z, t in zip(roots, true))


def test_aberth_gives_up_after_200_sweeps(from_roots):
    f = from_roots([Fraction(5, 10**21), Fraction(4, 10**76), Fraction(-1, 10**40)])
    with pytest.raises(NoConvergenceError,
                       match=r"root refinement did not reach tolerance 1e-09 in 200 sweeps"):
        complex_roots(f)


def test_split_polynomial_valuation_oracle(from_roots):
    rng = random.Random(5)
    for _ in range(80):
        deg = rng.randint(1, 6)
        roots = [Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(deg)]
        lead = Fraction(rng.randint(1, 5))
        f = from_roots(roots, lead)
        for p in (2, 3, 5):
            pol = newton_polygon(f, p)
            nonzero = [r for r in roots if r != 0]
            assert pol.zero_root_multiplicity == deg - len(nonzero)
            assert sorted(pol.root_valuations()) == sorted(
                Fraction(valuation(r, p)) for r in nonzero
            )


def test_polyq_structure():
    # the constructor takes any iterable of rationals and drops trailing zeros
    f = PolyQ(iter([1, "-2/3", 1, 0]))
    assert f.coeffs == (Fraction(1), Fraction(-2, 3), Fraction(1)) and f.degree == 2
    g, k = poly(0, 0, 3, 1).shift_out_zero_roots()
    assert k == 2 and g.coeffs == (Fraction(3), Fraction(1))
