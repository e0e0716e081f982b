"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS line on success; a failed assertion surfaces
as the usual pytest failure for that criterion.
"""

import math
import random
from fractions import Fraction

import numpy as np

from githeight import lower_bound, lower_bound_conj
from githeight.conjugation import (
    MatrixQ,
    charpoly_of,
    fundamental_formula_residual_conj,
    instability_conj,
    is_minimal_arch,
    is_minimal_nonarch,
    is_semistable_conj,
    naive_matrix_height,
    quotient_height_conj,
)
from githeight.exactpoly import newton_polygon
from githeight.heights import ProjectivePointQ, naive_height
from githeight.places import (
    ARCHIMEDEAN,
    Place,
    product_formula_residual,
    support_primes,
    valuation,
)
from githeight.torus import (
    TorusAction,
    instability_arch,
    instability_nonarch,
    kempf_ness_profile,
    quotient_height,
)

W214 = TorusAction(rank=1, weights=((-2,), (1,), (4,)))
P221 = ProjectivePointQ.parse("2:2:1")
UNIPOTENT = MatrixQ.from_lists([[1, 1], [0, 1]])


def report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_torus_quotient_height():
    h = quotient_height(W214, P221)
    assert dict(h.finite) == {2: Fraction(-2, 3)}  # bit-exact finite part
    assert abs(h.arch - math.log(3)) <= 1e-9
    assert abs(h.to_float() - 0.6365141682948129) <= 1e-9
    report(1, "torus quotient height is log 3 - (2/3) log 2, finite part exact")


def test_criterion_02_per_place_instability():
    r2 = instability_nonarch(W214, P221, 2)
    assert dict(r2.value.finite) == {2: Fraction(-2, 3)}
    assert r2.value.arch == 0.0 and not r2.value.neg_inf
    for p in (3, 5, 7):
        assert instability_nonarch(W214, P221, p).value.is_exact_zero
    ra = instability_arch(W214, P221)
    assert abs(ra.value.to_float()) <= 1e-10
    report(2, "instability -2/3 log 2 at p=2 exactly, zero at 3,5,7 and oo")


def test_criterion_03_conjugation_example(orbit_bound):
    q = quotient_height_conj(UNIPOTENT)
    assert abs(q.to_float() - 0.5 * math.log(2)) <= 1e-10
    naive = naive_matrix_height(UNIPOTENT)
    assert abs(naive.to_float() - 0.5 * math.log(3)) <= 1e-10
    bound = orbit_bound(UNIPOTENT, samples=200, seed=0)
    assert bound.to_float() >= 0.5 * math.log(2) - 1e-9
    report(3, "unipotent matrix: quotient log sqrt 2, naive log sqrt 3, "
              "orbit samples stay above")


def test_criterion_04_fundamental_formula_random_matrices():
    rng = random.Random(20260814)
    done = 0
    while done < 100:
        n = rng.randint(2, 5)
        m = MatrixQ.from_lists(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        if not is_semistable_conj(m):
            continue
        done += 1
        assert fundamental_formula_residual_conj(m) < 1e-9
        # finite parts cancel dictionary-exactly
        reduced, _ = charpoly_of(m).shift_out_zero_roots()
        primes = set(support_primes([e for e in m.entries if e != 0]))
        primes |= set(support_primes(list(reduced.coeffs)))
        total = naive_matrix_height(m)
        for p in sorted(primes):
            total = total + instability_conj(m, Place.finite(p))
        total = total + instability_conj(m, ARCHIMEDEAN)
        total = total - quotient_height_conj(m)
        assert not total.finite
        assert abs(total.to_float()) < 1e-9
    report(4, "fundamental formula residual < 1e-9 on 100 random matrices, "
              "finite parts cancel exactly")


def test_criterion_05_minimality_is_residual_semistability():
    rng = random.Random(55)
    disagreements = 0
    done = 0
    while done < 200:
        n = rng.randint(2, 4)
        m = MatrixQ.from_lists(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        if all(x == 0 for x in m.entries):
            continue
        done += 1
        for p in (2, 3, 5):
            minimal = is_minimal_nonarch(m, p).minimal
            zero_instability = instability_conj(m, Place.finite(p)).is_exact_zero
            if minimal != zero_instability:
                disagreements += 1
    assert disagreements == 0
    report(5, "mod-p minimality agrees with vanishing instability on "
              "200 matrices at p in {2,3,5}")


def test_criterion_06_moment_map_detects_normality():
    rng = random.Random(66)
    done = 0
    while done < 100:
        n = rng.randint(2, 4)
        m = MatrixQ.from_lists(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        )
        if done % 3 == 0:
            rows = [[m.rows[i][j] + m.rows[j][i] for j in range(n)]
                    for i in range(n)]
            m = MatrixQ.from_lists(rows)
        if all(x == 0 for x in m.entries):
            continue
        done += 1
        # the moment map of a real matrix is proportional to [m, m^T]; small integers multiply exactly
        a = np.array(m.rows, dtype=float)
        assert is_minimal_arch(m).minimal == (not (a @ a.T - a.T @ a).any())
    report(6, "normality and moment-map vanishing agree on 100 matrices")


def test_criterion_07_newton_polygon_oracle(from_roots):
    rng = random.Random(77)
    for _ in range(500):
        deg = rng.randint(1, 6)
        roots = [Fraction(rng.randint(-10, 10), rng.randint(1, 6))
                 for _ in range(deg)]
        f = from_roots(roots, Fraction(rng.randint(1, 4)))
        for p in (2, 3, 5):
            polygon = newton_polygon(f, p)
            nonzero = [r for r in roots if r != 0]
            assert polygon.zero_root_multiplicity == deg - len(nonzero)
            assert sorted(polygon.root_valuations()) == sorted(
                Fraction(valuation(r, p)) for r in nonzero
            )
    report(7, "Newton polygon valuations match the direct multiset on "
              "500 split polynomials")


def test_criterion_08_kempf_ness_convexity():
    rng = random.Random(88)
    grid = [i * 0.1 - 2.0 for i in range(41)]
    done = 0
    while done < 100:
        rank = rng.randint(1, 2)
        k = rng.randint(2, 4)
        action = TorusAction(
            rank=rank,
            weights=tuple(
                tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(k)
            ),
        )
        coords = tuple(Fraction(rng.randint(-4, 4)) for _ in range(k))
        if all(c == 0 for c in coords):
            continue
        done += 1
        point = ProjectivePointQ(coords)
        lam = tuple(rng.randint(-2, 2) for _ in range(rank))
        values = kempf_ness_profile(action, point, lam, grid)
        for a, b, c in zip(values, values[1:], values[2:]):
            assert a + c - 2 * b >= -1e-9
    report(8, "Kempf-Ness profiles are discretely convex on 100 random triples")


def test_criterion_09_bounds_suite():
    # (1/2) sum lam_i log(1/lam_i) with lam = (4, 4, 1) / 9, below log 3 - (2/3) log 2
    bound = lower_bound(W214, P221)
    assert abs(bound.to_float() - (math.log(3) - 8 / 9 * math.log(2))) <= 1e-15
    assert bound.to_float() <= quotient_height(W214, P221).to_float()
    # one nonzero eigenvalue of multiplicity 2: (1/2) log 2, met by the unipotent matrix
    assert lower_bound_conj(UNIPOTENT).arch == 0.5 * math.log(2)
    assert abs(quotient_height_conj(UNIPOTENT).to_float() - 0.5 * math.log(2)) <= 1e-15
    report(9, "the semistable lower bounds hold, and the unipotent matrix meets its bound")


def test_criterion_10_product_formula():
    rng = random.Random(101)
    for _ in range(1000):
        num = rng.randint(1, 900) * rng.choice((1, -1))
        den = rng.randint(1, 900)
        x = Fraction(num, den)
        assert product_formula_residual(x).is_exact_zero
    report(10, "product formula residual is the exact zero on 1000 rationals")
