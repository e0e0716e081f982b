"""Every whole-input height computes its local data once per input."""

import random
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

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "lp" and kwargs.get("box") is not None:
                counts["hull lp"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(conjugation, "charpoly", counted("charpoly", conjugation.charpoly))
    monkeypatch.setattr(conjugation, "complex_roots", counted("roots", conjugation.complex_roots))
    monkeypatch.setattr(exactlp, "minimize_max_affine", counted("lp", exactlp.minimize_max_affine))
    monkeypatch.setattr(exactlp, "feasible", counted("feasible", exactlp.feasible))
    return counts


@pytest.mark.parametrize("height", [quotient_height_conj, fundamental_formula_residual_conj])
def test_conjugation_heights_solve_once(calls, height):
    height(DENSE8)
    assert calls["charpoly"] == 1
    assert calls["roots"] == 1


def test_torus_quotient_height_runs_one_hull_lp(calls):
    action = TorusAction(2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)))
    quotient_height(action, ProjectivePointQ.parse("12:5:7:10:3"))
    assert calls["hull lp"] == 1
    # one more LP per support prime (2, 3, 5, 7), none of them boxed
    assert calls["lp"] == 5
    # the face of zero comes from exactlp.face_of_zero, not one Farkas test per weight
    assert calls["feasible"] == 0
