"""Every whole-input height computes its local data once per input."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from githeight import (
    MatrixQ,
    NewtonPolygon,
    ProjectivePointQ,
    TorusAction,
    conjugation,
    exactlp,
    charpoly_of,
    fundamental_formula_residual_conj,
    instability_all,
    instability_all_conj,
    instability_arch,
    instability_conj,
    instability_nonarch,
    naive_height,
    places,
    product_formula_residual,
    quotient_height,
    quotient_height_conj,
    support_primes,
    torus,
)
from githeight.places import ARCHIMEDEAN, Place

_rng = random.Random(8)
DENSE8 = MatrixQ.from_lists(
    [[Fraction(_rng.randint(1, 9), _rng.randint(1, 4)) for _ in range(8)] for _ in range(8)]
)


@pytest.fixture
def calls(monkeypatch):
    # a record an earlier call left in a memo would answer here without solving
    torus._POINTS.cache_clear()
    conjugation._MATRICES.cache_clear()
    counts = Counter()

    def count(name, module, attr, weight=lambda *args: 1):
        """Count calls of module.attr, at every binding the package holds,
        each weighted by weight(*args)."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            counts[name] += weight(*args)
            return fn(*args, **kwargs)

        for key, mod in list(sys.modules.items()):
            if key.startswith("githeight") and getattr(mod, attr, None) is fn:
                monkeypatch.setattr(mod, attr, wrapper)
        if isinstance(module, type):  # a method: the class is its one binding
            monkeypatch.setattr(module, attr, wrapper)

    count("charpoly", conjugation, "charpoly")
    count("roots", conjugation, "complex_roots")
    # the module functions minimize_max_affine and feasible solve through the
    # polytope's method, so "lp" counts their solves too; separating_direction
    # is a method only
    count("lp", exactlp.ZeroSumPolytope, "minimize_max_affine")
    count("hull lp", exactlp.ZeroSumPolytope, "separating_direction")
    count("feasible", exactlp, "feasible")
    count("phase 1", exactlp._Simplex, "__init__")
    count("shift", exactlp._Simplex, "maximize_shift")
    count("newton", torus, "_newton_minimize")
    count("polygon", NewtonPolygon, "from_valuations")
    # every factoring path (valuation_table, factorize) goes through _factor_all
    count("factored", places, "_factor_all", len)
    count("valuation", places, "valuation")
    count("is_prime", places, "is_prime")
    return counts


@pytest.mark.parametrize("height", [quotient_height_conj, fundamental_formula_residual_conj])
def test_conjugation_heights_solve_once(calls, height):
    height(DENSE8)
    assert calls["charpoly"] == 1
    assert calls["roots"] == 1
    # the entries' and the reduced charpoly's valuations come from one table each
    assert calls["valuation"] == 0


def test_conjugation_height_and_residual_share_one_record(calls):
    quotient_height_conj(DENSE8)
    fundamental_formula_residual_conj(DENSE8)
    assert calls["charpoly"] == 1
    assert calls["roots"] == 1


def test_conjugation_residual_factors_each_number_once(calls):
    fundamental_formula_residual_conj(DENSE8)
    # the 8 distinct numerators and denominators of the 64 entries, and the 2 of
    # d = 12 and g = 1 for the charpoly's places (1 is also both denominators),
    # each once; no charpoly coefficient is factored
    assert calls["factored"] == 8 + 2


def _small_matrices():
    rng = random.Random(19)
    out = [MatrixQ.from_lists(rows) for rows in ([[2, 1], [4, 2]], [[0, 1], [0, 0]], [[12, 5], [7, 3]],
                                                  [[Fraction(1, 2), 1], [0, 3]], [[6, 0], [0, 10]])]
    for _ in range(60):
        n = rng.randint(2, 5)
        out.append(MatrixQ.from_lists([[Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3, 4]))
                                        for _ in range(n)] for _ in range(n)]))
    return out


@pytest.mark.parametrize("lone_first", [True, False], ids=["lone_first", "sweep_first"])
def test_lone_conjugation_terms_are_the_sweep_terms(lone_first):
    charpoly_only = 0
    for phi in _small_matrices():
        sweep = instability_all_conj(phi)
        listed = [place.prime for place in sweep if not place.is_archimedean]
        reduced, _ = charpoly_of(phi).shift_out_zero_roots()
        # primes of the charpoly coefficients alone, where every term is 0
        others = sorted(set(support_primes(reduced.coeffs)) - set(listed)) if reduced.degree else []
        charpoly_only += bool(others)
        conjugation._MATRICES.cache_clear()
        if lone_first:
            lone = {p: instability_conj(phi, Place.finite(p)) for p in listed + others}
            assert instability_all_conj(phi) == sweep
        else:
            assert instability_all_conj(phi) == sweep
            lone = {p: instability_conj(phi, Place.finite(p)) for p in listed + others}
        for p in listed:
            assert lone[p] == sweep[Place.finite(p)]
        for p in others:
            assert lone[p].is_exact_zero
    assert charpoly_only >= 20


def test_lone_conjugation_term_builds_a_polygon_only_where_p_divides_d_or_g(calls):
    big = MatrixQ.from_lists([["1e200", "0"], ["0", "1"]])  # d = 1, g = gcd(10^200, 10^200 + 1) = 1
    assert (10**200 + 1) % 17 == 0
    for p in (2, 5, 17):
        assert instability_conj(big, Place.finite(p)).is_exact_zero
    assert calls["polygon"] == 0
    assert calls["factored"] == 0
    half = MatrixQ.from_lists([[Fraction(1, 2), 1], [0, 3]])  # d = 2, g = gcd(3, 7) = 1
    assert instability_conj(half, Place.finite(3)).is_exact_zero
    assert calls["polygon"] == 0
    assert instability_conj(half, Place.finite(2)).is_exact_zero
    assert calls["polygon"] == 1
    # the sweep reads the polygon the lone call built
    instability_all_conj(half)
    assert calls["polygon"] == 1


def test_product_formula_factors_its_argument_once(calls):
    assert product_formula_residual(Fraction(-6, 35)).is_exact_zero
    # one valuation table of the numerator 6 and the denominator 35
    assert calls["factored"] == 2


def test_torus_quotient_height_runs_no_hull_lp(calls):
    action = TorusAction(2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)))
    quotient_height(action, ProjectivePointQ.parse("12:5:7:10:3"))
    # semistability is read off the face of zero, not a separate hull LP
    assert calls["hull lp"] == 0
    # one LP on the input's polytope per support prime (2, 3, 5, 7)
    assert calls["lp"] == 4
    # the face of zero comes from ZeroSumPolytope.face_of_zero, not one Farkas test per weight
    assert calls["feasible"] == 0
    # one valuation table serves the places, the offsets and the naive height:
    # the numerators 12, 5, 7, 10, 3 and the denominator 1, each factored once
    assert calls["factored"] == 6
    assert calls["valuation"] == 0


def test_factored_primes_are_not_tested_again(calls):
    action = TorusAction(2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)))
    x = ProjectivePointQ.parse("12:1000000007:7:10:998244353")
    phi = MatrixQ.from_lists([[1000000007, 3], [Fraction(1, 998244353), 6]])
    naive_height(x)
    quotient_height(action, x)
    instability_all(action, x)
    quotient_height_conj(phi)
    instability_all_conj(phi)
    fundamental_formula_residual_conj(phi)
    # factoring proves its primes itself; the places and values it keys are trusted
    assert calls["is_prime"] == 0
    # a prime whose report the record holds is not tested again
    instability_nonarch(action, x, 1000000007)
    assert calls["is_prime"] == 0
    # another prime named by the caller is tested once
    instability_nonarch(action, x, 1000000009)
    assert calls["is_prime"] == 1


def test_balanced_point_runs_no_lp(calls):
    # sum x_i^2 m_i = 0: every weight is on the face of zero and the measure is exactly 0
    report = instability_arch(TorusAction(1, ((-1,), (1,))), ProjectivePointQ.parse("3:3"))
    assert report.value.is_exact_zero
    assert calls["phase 1"] == 0


@pytest.mark.parametrize("whole_input", [quotient_height, instability_all])
def test_one_phase_one_per_input(calls, whole_input):
    action = TorusAction(2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)))
    whole_input(action, ProjectivePointQ.parse("12:5:7:10:3"))
    # the face of zero and the four per-prime LPs share one feasible tableau
    assert calls["phase 1"] == 1
    assert calls["lp"] == 4


def test_quotient_height_and_sweep_share_one_record(calls):
    action = TorusAction(2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)))
    x = ProjectivePointQ.parse("12:5:7:10:3")
    quotient_height(action, x)
    shifts = calls["shift"]
    assert shifts >= 1  # the point is not balanced, so the face of zero was solved
    instability_all(action, x)
    assert calls["phase 1"] == 1
    assert calls["shift"] == shifts
    assert calls["newton"] == 1
    assert calls["lp"] == 4  # one phase 2 per support prime: 2, 3, 5, 7


def test_same_active_weights_reuse_phase_one_and_the_face(calls):
    action = TorusAction(2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (2, -1)))
    quotient_height(action, ProjectivePointQ.parse("12:5:7:10:3:0"))
    assert calls["phase 1"] == 1
    assert calls["shift"] >= 1  # the point is not balanced, so the face of zero was solved
    calls.clear()
    # another point with the same zero pattern, so the same active weights
    reports = instability_all(action, ProjectivePointQ.parse("6:35:9:2:11:0"))
    assert not reports[ARCHIMEDEAN].value.is_exact_zero
    assert calls["phase 1"] == 0
    assert calls["shift"] == 0
    assert calls["lp"] == 5  # one phase 2 per support prime: 2, 3, 5, 7, 11


def _degenerate_input(rng):
    """A torus point whose LPs are degenerate: repeated and zero weights,
    coordinates over 2, 3, 5 with tied valuations."""
    rank = rng.randint(1, 4)
    pool = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 4))]
    pool += [tuple(-v for v in m) for m in pool[:rng.randint(0, len(pool))]] + [(0,) * rank]
    weights = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
    coords = [rng.choice([0, 1, 2, 3, 4, 6, 12, Fraction(1, 2), Fraction(5, 6), 30]) for _ in weights]
    if not any(coords):
        coords[0] = 1
    return TorusAction(rank, tuple(weights)), ProjectivePointQ(tuple(Fraction(c) for c in coords))


def test_shared_tableau_matches_one_solve_per_lp():
    rng = random.Random(1729)
    stable = 0
    for _ in range(300):
        action, x = _degenerate_input(rng)
        reports = instability_all(action, x)
        primes = [place.prime for place in reports if not place.is_archimedean]
        stable += not reports[ARCHIMEDEAN].value.neg_inf
        for p in primes:
            assert reports[Place.finite(p)] == instability_nonarch(action, x, p)
        # the face read off a polytope that already ran LPs is the oracle's
        ms = [m for m, c in zip(action.weights, x.coords) if c != 0]
        polytope = exactlp.ZeroSumPolytope(ms)
        for p in primes:
            polytope.minimize_max_affine([-places.valuation(c, p) for c in x.coords if c != 0])
        expected = [j for j, mj in enumerate(ms)
                    if not exactlp.feasible([(m, 0) for m in ms] + [(mj, -1)], action.rank)]
        assert polytope.face_of_zero() == expected
    assert 50 < stable < 300
