"""Every whole-input height computes its local data once per input."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from githeight import (
    MatrixQ,
    ProjectivePointQ,
    TorusAction,
    conjugation,
    exactlp,
    fundamental_formula_residual_conj,
    instability_all,
    instability_all_conj,
    instability_arch,
    instability_nonarch,
    naive_height,
    places,
    quotient_height,
    quotient_height_conj,
)

_rng = random.Random(8)
DENSE8 = MatrixQ.from_lists(
    [[Fraction(_rng.randint(1, 9), _rng.randint(1, 4)) for _ in range(8)] for _ in range(8)]
)


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def count(name, module, attr):
        """Count calls of module.attr, at every binding the package holds."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        for key, mod in list(sys.modules.items()):
            if key.startswith("githeight") and getattr(mod, attr, None) is fn:
                monkeypatch.setattr(mod, attr, wrapper)

    count("charpoly", conjugation, "charpoly")
    count("roots", conjugation, "complex_roots")
    count("lp", exactlp, "minimize_max_affine")
    count("feasible", exactlp, "feasible")
    count("hull lp", exactlp, "separating_direction")
    count("simplex", exactlp, "_simplex")
    count("factorize", places, "factorize")
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


def test_conjugation_residual_factors_each_number_once(calls):
    fundamental_formula_residual_conj(DENSE8)
    # 64 entries and at most 9 charpoly coefficients, numerator and denominator each
    assert calls["factorize"] <= 2 * (64 + 9)


def test_torus_quotient_height_runs_no_hull_lp(calls):
    action = TorusAction(2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)))
    quotient_height(action, ProjectivePointQ.parse("12:5:7:10:3"))
    # semistability is read off the face of zero, not a separate hull LP
    assert calls["hull lp"] == 0
    # one LP per support prime (2, 3, 5, 7)
    assert calls["lp"] == 4
    # the face of zero comes from exactlp.face_of_zero, not one Farkas test per weight
    assert calls["feasible"] == 0
    # one valuation table serves the places, the offsets and the naive height
    assert calls["factorize"] <= 2 * 5
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
    # a prime named by the caller is tested once
    instability_nonarch(action, x, 1000000007)
    assert calls["is_prime"] == 1


def test_balanced_point_runs_no_lp(calls):
    # sum x_i^2 m_i = 0: every weight is on the face of zero and the measure is exactly 0
    report = instability_arch(TorusAction(1, ((-1,), (1,))), ProjectivePointQ.parse("3:3"))
    assert report.value.is_exact_zero
    assert calls["simplex"] == 0
