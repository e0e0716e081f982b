import math
import random
from fractions import Fraction

import pytest

from githeight import lower_bound, lower_bound_conj, torus
from githeight.conjugation import MatrixQ, quotient_height_conj
from githeight.errors import NilpotentError, UnstableError
from githeight.heights import ProjectivePointQ
from githeight.torus import TorusAction, quotient_height


def _holds(h, bound):
    """h >= bound, up to a rounding slack of 1e-12 (1 + |h|)."""
    h, bound = h.to_float(), bound.to_float()
    return h >= bound - 1e-12 * (1 + abs(h))


def _within_one_ulp(h, want):
    return abs(h.to_float() - want) <= math.ulp(want)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_identity_meets_the_conjugation_bound(n):
    identity = MatrixQ.identity(n)
    bound = lower_bound_conj(identity)
    assert bound.arch == 0.5 * math.log(n) and not bound.finite
    assert _within_one_ulp(quotient_height_conj(identity), bound.arch)


def test_a_complex_spectrum_meets_the_conjugation_bound():
    rotation = MatrixQ.from_lists([[0, -1], [1, 0]])  # eigenvalues +-i
    bound = lower_bound_conj(rotation)
    assert bound.arch == 0.5 * math.log(2)
    assert _within_one_ulp(quotient_height_conj(rotation), bound.arch)


def test_a_balanced_point_meets_the_torus_bound():
    action, x = TorusAction(1, ((-1,), (1,))), ProjectivePointQ.parse("1:1")
    bound = lower_bound(action, x)
    assert bound.arch == 0.5 * math.log(2) and not bound.finite
    assert _within_one_ulp(quotient_height(action, x), bound.arch)


def test_the_conjugation_bound_counts_nonzero_eigenvalues():
    # T^2 (T - 1): one nonzero eigenvalue, so the bound is log 1 = 0
    assert lower_bound_conj(MatrixQ.from_lists([[0, 1, 0], [0, 0, 0], [0, 0, 1]])).is_exact_zero
    # T (T^2 - 2): two
    bound = lower_bound_conj(MatrixQ.from_lists([[0, 0, 0], [0, 0, 2], [0, 1, 0]]))
    assert bound.arch == 0.5 * math.log(2)


def test_the_torus_bound_off_balance_reads_the_face_of_zero():
    # 1:1:1 under -2, 1, 4 is not balanced, and the face of zero is every weight;
    # the stored interior point gives the bound
    action, x = TorusAction(1, ((-2,), (1,), (4,))), ProjectivePointQ.parse("1:1:1")
    bound = lower_bound(action, x)
    lam = torus.point_record(action, x).polytope.interior
    assert sum(lam) == 1 and sum(l * m for l, (m,) in zip(lam, action.weights)) == 0
    assert bound.arch == pytest.approx(0.5 * sum(float(l) * math.log(1 / l) for l in lam), rel=1e-15)
    assert _holds(quotient_height(action, x), bound)
    # a weight off the face gets lam = 0 and adds nothing: 0 lies on the edge of
    # the triangle (1, 0), (-1, 0), (0, 1) that misses (0, 1)
    action = TorusAction(2, ((1, 0), (-1, 0), (0, 1)))
    bound = lower_bound(action, x)
    assert torus.point_record(action, x).polytope.interior == (Fraction(1, 2), Fraction(1, 2), 0)
    assert bound.arch == 0.5 * math.log(2)


def _entropy(*lam):
    return 0.5 * sum(l * math.log(1 / l) for l in lam)


# (weights, point, lam): balanced points take lam_i = x_i^2 / sum x^2; the
# others the one point of the zero-sum polytope
@pytest.mark.parametrize("weights, point, lam", [
    (((-1,), (1,)), "1:1", (1 / 2, 1 / 2)),
    (((-1,), (1,)), "1:5", (1 / 2, 1 / 2)),
    (((-1,), (2,)), "2:1", (2 / 3, 1 / 3)),
    (((3,), (-1,)), "1:1", (1 / 4, 3 / 4)),
    (((1,), (1,), (-2,)), "1:1:1", (1 / 3, 1 / 3, 1 / 3)),
    (((1, 0), (-1, 0), (0, 1), (0, -1)), "1:1:1:1", (1 / 4,) * 4),
    (((1, 0), (-1, 0), (0, 1), (0, -1)), "1:1:2:2", (1 / 10, 1 / 10, 4 / 10, 4 / 10)),
])
def test_the_torus_bound_matches_its_closed_form(weights, point, lam):
    action, x = TorusAction(len(weights[0]), weights), ProjectivePointQ.parse(point)
    bound = lower_bound(action, x)
    assert not bound.finite and bound.arch == pytest.approx(_entropy(*lam), rel=1e-15)
    assert _holds(quotient_height(action, x), bound)


def test_unstable_and_nilpotent_inputs_have_no_bound():
    with pytest.raises(UnstableError):
        lower_bound(TorusAction(1, ((-1,), (1,))), ProjectivePointQ.parse("1:0"))
    with pytest.raises(NilpotentError):
        lower_bound_conj(MatrixQ.from_lists([[0, 1], [0, 0]]))


def test_both_bounds_hold_on_seeded_inputs():
    rng = random.Random(27)
    points = matrices = 0
    for _ in range(120):
        rank = rng.randint(1, 4)
        count = rng.randint(rank + 1, rank + 4)
        action = TorusAction(rank, tuple(tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)))
        coords = [Fraction(rng.choice((0, 1, 1, 2, 3, -4, 6)), rng.choice((1, 1, 5, 7))) for _ in range(count)]
        if not any(coords):
            continue
        x = ProjectivePointQ(tuple(coords))
        try:
            h = quotient_height(action, x)
        except UnstableError:
            with pytest.raises(UnstableError):
                lower_bound(action, x)
            continue
        points += 1
        assert _holds(h, lower_bound(action, x))
    for _ in range(60):
        n = rng.randint(2, 8)
        rows = [[rng.choice((0, 0, 1, -1, 2, 3, Fraction(1, 2))) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:  # strictly upper triangular: nilpotent
            rows = [[v if j > i else 0 for j, v in enumerate(row)] for i, row in enumerate(rows)]
        if not any(map(any, rows)):
            continue
        phi = MatrixQ.from_lists(rows)
        try:
            h = quotient_height_conj(phi)
        except NilpotentError:
            with pytest.raises(NilpotentError):
                lower_bound_conj(phi)
            continue
        matrices += 1
        assert _holds(h, lower_bound_conj(phi))
    assert points >= 50 and matrices >= 30
