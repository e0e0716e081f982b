import copy
import gc
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from githeight import exactlp, lower_bound, places, torus
from githeight.errors import InputError, NoConvergenceError, UnstableError
from githeight.heights import ProjectivePointQ, naive_height
from githeight.places import ARCHIMEDEAN, LogValue, Place, support_primes, valuation
from githeight.torus import (
    TorusAction,
    destabilizing_1ps,
    instability_all,
    instability_arch,
    instability_nonarch,
    is_semistable,
    kempf_ness_profile,
    quotient_height,
)

W214 = TorusAction(rank=1, weights=((-2,), (1,), (4,)))
P221 = ProjectivePointQ.parse("2:2:1")


def pt(text):
    return ProjectivePointQ.parse(text)


def act(*weights):
    return TorusAction(rank=len(weights[0]), weights=tuple(tuple(w) for w in weights))


# ---------------------------------------------------------------------------
# exact LP helper
# ---------------------------------------------------------------------------

def test_lp_minimize_max_affine_worked_instance():
    # min over xi of max(-2 xi - 1, xi - 1, 4 xi): optimum -2/3 at xi = -1/6
    value, minimizer = exactlp.minimize_max_affine(
        [(Fraction(-2),), (Fraction(1),), (Fraction(4),)],
        [Fraction(-1), Fraction(-1), Fraction(0)],
    )
    assert value == Fraction(-2, 3)
    assert minimizer == (Fraction(-1, 6),)


def test_lp_unbounded_and_infeasible():
    value, minimizer = exactlp.minimize_max_affine(
        [(Fraction(1),), (Fraction(2),)], [Fraction(0), Fraction(0)]
    )
    assert value is None and minimizer is None
    rows = [
        ((Fraction(1),), Fraction(-1)),   # x <= -1
        ((Fraction(-1),), Fraction(-1)),  # x >= 1
    ]
    assert not exactlp.feasible(rows, 1)


def test_lp_tie_breaking_at_unique_minimizer():
    # objective max(x, -x): value 0 at the unique minimizer x = 0
    value, minimizer = exactlp.minimize_max_affine(
        [(Fraction(1),), (Fraction(-1),)], [Fraction(0), Fraction(0)]
    )
    assert value == Fraction(0)
    assert minimizer == (Fraction(0),)


def test_lp_two_variables():
    # max(x + y, -x, -y): minimum 0 on a face; any minimizer on it will do
    value, minimizer = exactlp.minimize_max_affine(
        [(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(0)),
         (Fraction(0), Fraction(-1))],
        [Fraction(0)] * 3,
    )
    assert value == Fraction(0)
    assert len(minimizer) == 2
    assert max(minimizer[0] + minimizer[1], -minimizer[0], -minimizer[1]) == 0


def _highs_min_max(slopes, offsets):
    """min over xi of max_i (slopes[i] . xi + offsets[i]) by HiGHS: (status, value)."""
    r = len(slopes[0])
    res = linprog(
        np.eye(r + 1)[r],
        A_ub=[[float(v) for v in m] + [-1.0] for m in slopes],
        b_ub=[-float(c) for c in offsets],
        bounds=[(None, None)] * (r + 1),
        method="highs",
    )
    return res.status, res.fun


def _random_program(rng):
    rank = rng.randint(1, 4)
    k = rng.randint(1, 16)
    slopes = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(rank)) for _ in range(k)]
    offsets = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(k)]
    return rank, slopes, offsets


def test_lp_matches_highs_on_random_programs():
    rng = random.Random(97)
    bounded = 0
    for _ in range(150):
        rank, slopes, offsets = _random_program(rng)
        value, argmin = exactlp.minimize_max_affine(slopes, offsets)
        status, highs_value = _highs_min_max(slopes, offsets)
        if value is None:
            assert status == 3  # unbounded below
            continue
        bounded += 1
        assert status == 0 and abs(float(value) - highs_value) < 1e-9
        assert max(sum(m_j * x_j for m_j, x_j in zip(m, argmin)) + c
                   for m, c in zip(slopes, offsets)) == value
    assert bounded >= 30


def test_separating_direction_matches_highs():
    # None exactly when HiGHS finds lam in P = {lam >= 0, sum lam = 1, sum lam_i m_i = 0};
    # otherwise every slope pairs strictly positively with the direction, in Fractions
    rng = random.Random(96)
    verdicts = set()
    for _ in range(150):
        rank, slopes, _ = _random_program(rng)
        res = linprog(np.zeros(len(slopes)),
                      A_eq=[[1.0] * len(slopes)] + [[float(m[k]) for m in slopes] for k in range(rank)],
                      b_eq=[1.0] + [0.0] * rank, bounds=[(0, None)] * len(slopes), method="highs")
        assert res.status in (0, 2)
        xi = exactlp.ZeroSumPolytope(slopes).separating_direction()
        assert (xi is None) == (res.status == 0)
        if xi is not None:
            assert len(xi) == rank
            assert all(sum(m_j * x_j for m_j, x_j in zip(m, xi)) > 0 for m in slopes)
        verdicts.add(res.status)
    assert verdicts == {0, 2}


def test_feasible_matches_highs_on_random_systems():
    rng = random.Random(99)
    verdicts = set()
    for _ in range(150):
        rank, slopes, offsets = _random_program(rng)
        rows = list(zip(slopes, offsets))
        res = linprog(np.zeros(rank), A_ub=[[float(v) for v in m] for m in slopes],
                      b_ub=[float(c) for c in offsets], bounds=[(None, None)] * rank,
                      method="highs")
        assert res.status in (0, 2)
        assert exactlp.feasible(rows, rank) == (res.status == 0)
        verdicts.add(res.status)
    assert verdicts == {0, 2}


def test_simplex_certificates_on_random_programs():
    # max c.x on a x = b, x >= 0, sum x <= 10: an optimal vertex with dual
    # multipliers of equal value, or a Farkas vector proving emptiness
    rng = random.Random(103)
    outcomes = set()
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 7)
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] + [0]
             for _ in range(m)] + [[1] * (n + 1)]
        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)] + [10]
        c = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] + [0]
        program = exactlp._Simplex(a, b)
        outcomes.add(program.farkas is None)
        if program.farkas is not None:
            y = program.farkas
            assert all(sum(y_i * row[j] for y_i, row in zip(y, a)) >= 0 for j in range(n + 1))
            assert sum(y_i * b_i for y_i, b_i in zip(y, b)) < 0
            continue
        tableau, y = program.maximize(c)
        vertex = {j: Fraction(row[-1], tableau.d) for row, j in zip(tableau.t, tableau.basis)}
        x = [vertex.get(j, Fraction(0)) for j in range(n + 1)]
        duals = [sum(y_i * row[j] for y_i, row in zip(y, a)) for j in range(n + 1)]
        y_b = sum(y_i * b_i for y_i, b_i in zip(y, b))
        assert all(v >= 0 for v in x)
        assert all(sum(r * v for r, v in zip(row, x)) == b_i for row, b_i in zip(a, b))
        assert all(v >= c_j for v, c_j in zip(duals, c))
        assert y_b == sum(c_j * v for c_j, v in zip(c, x))
    assert outcomes == {True, False}


def _face_case(rng):
    """Slopes whose face of zero is often partial: rank 1-4, half of them
    pushed into the open half-space <m, h> > 0, the others random or moved
    onto the hyperplane <m, h> = 0, plus repeated and zero slopes."""
    rank = rng.randint(1, 4)
    h = [rng.choice((-1, 1)) * rng.randint(1, 2) for _ in range(rank)]
    hh = sum(v * v for v in h)
    flat = rng.random() < 0.5
    slopes = []
    for i in range(rng.randint(1, 10)):
        m = [Fraction(rng.randint(-3, 3)) for _ in range(rank)]
        dot = sum(a * b for a, b in zip(m, h))
        if i % 2:
            m = [a + b for a, b in zip(m, h)] if dot == 0 else [a * (1 if dot > 0 else -1) for a in m]
        elif flat:
            m = [a - Fraction(dot, hh) * b for a, b in zip(m, h)]
        slopes.append(tuple(m))
    slopes += [rng.choice(slopes) for _ in range(rng.randint(0, 3))]
    slopes += [(Fraction(0),) * rank] * rng.randint(0, 1)
    rng.shuffle(slopes)
    return slopes


def _face_by_farkas_tests(slopes):
    # m_j is off the face iff some xi has <m_i, xi> <= 0 for all i and <m_j, xi> < 0
    return [j for j, mj in enumerate(slopes)
            if not exactlp.feasible([(m, Fraction(0)) for m in slopes] + [(mj, Fraction(-1))],
                                    len(mj))]


def test_face_of_zero_matches_one_farkas_test_per_weight(monkeypatch):
    solves = []  # every simplex run after phase 1, whichever method starts it
    run = exactlp._Simplex._run
    rng = random.Random(101)
    kinds = {"empty": 0, "full": 0, "partial": 0}
    cases = [_random_program(rng)[1] for _ in range(60)] + [_face_case(rng) for _ in range(150)]
    for slopes in cases:
        polytope = exactlp.ZeroSumPolytope(slopes)
        polytope.separating_direction()  # phase 1 runs on first use, before the count
        with monkeypatch.context() as patch:
            patch.setattr(exactlp._Simplex, "_run", lambda *a, **k: solves.append(1) or run(*a, **k))
            del solves[:]
            face = polytope.face_of_zero()
        assert face == _face_by_farkas_tests(slopes)
        off = len(slopes) - len(face)
        if not face:
            kinds["empty"] += 1
            assert len(solves) == 0  # phase 1 decided
        elif off == 0:
            kinds["full"] += 1
            assert len(solves) == 1
        else:
            kinds["partial"] += 1
            assert len(solves) <= off + 1
    assert min(kinds.values()) >= 30, kinds


def test_face_of_zero_keeps_its_certificates():
    # the last solve's lam is an exact point of P positive exactly on the face;
    # each round's xi pairs >= 0 with the candidates, summing to >= 1, and > 0
    # with every index it drops (Hilbert-Mumford)
    rng = random.Random(107)
    partial = 0
    for _ in range(150):
        slopes = _face_case(rng)
        rank = len(slopes[0])
        polytope = exactlp.ZeroSumPolytope(slopes)
        face = polytope.face_of_zero()
        lam = polytope.interior
        if not face:
            assert lam is None and polytope._eliminated == []
            continue
        partial += len(face) < len(slopes)
        assert sum(lam) == 1
        assert all(sum(l * m[k] for l, m in zip(lam, slopes)) == 0 for k in range(rank))
        assert [j for j, l in enumerate(lam) if l > 0] == face
        assert all(l == 0 for j, l in enumerate(lam) if j not in face)
        candidates = set(range(len(slopes)))
        for xi, dropped in polytope._eliminated:
            pairing = {j: sum(a * b for a, b in zip(slopes[j], xi)) for j in candidates}
            assert all(v >= 0 for v in pairing.values()) and sum(pairing.values()) >= 1
            assert dropped and all(pairing[j] > 0 for j in dropped)
            candidates -= set(dropped)
        assert sorted(candidates) == face
    assert partial >= 30
    # read first, the interior solves the face itself: None when P is empty
    assert exactlp.ZeroSumPolytope([(1,), (2,)]).interior is None
    assert exactlp.ZeroSumPolytope([(-1,), (1,)]).interior == (Fraction(1, 2), Fraction(1, 2))


def test_solves_leave_a_shared_polytope_unchanged():
    # the torus memo hands one polytope to every call on the same weights, so
    # no solve may change the post-phase-1 tableau the next one starts from
    rng = random.Random(109)
    for _ in range(150):
        slopes = _face_case(rng)
        polytope = exactlp.ZeroSumPolytope(slopes)
        program = polytope._program
        before = copy.deepcopy((program.t, program.basis, program.d, program.farkas))
        for _ in range(rng.randint(1, 6)):
            call = rng.choice(("lp", "face", "separate"))
            if call == "lp":
                polytope.minimize_max_affine([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                              for _ in slopes])
            elif call == "face":
                polytope.face_of_zero().append(-1)  # the caller's copy, not the stored face
            else:
                polytope.separating_direction()
        assert (program.t, program.basis, program.d, program.farkas) == before
        assert polytope.face_of_zero() == _face_by_farkas_tests(slopes)


def _memo_cases(rng):
    """Points of rank 1-4 actions, three per action with coordinates that
    often vanish together, so that calls share active-weight sets."""
    cases = []
    for _ in range(50):
        rank = rng.randint(1, 4)
        weights = tuple(tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(2, 7)))
        zeros = [rng.random() < 0.3 for _ in weights]
        for _ in range(3):
            coords = [0 if z else Fraction(rng.choice([1, 2, 3, 5, 6, 12]), rng.choice([1, 2, 3]))
                      for z in zeros]
            if not any(coords):
                coords[0] = Fraction(1)
            cases.append((TorusAction(rank, weights), ProjectivePointQ(tuple(coords))))
    return cases


def _outcome(call):
    try:
        return call()
    except (UnstableError, NoConvergenceError) as exc:
        return type(exc), str(exc)


def _entry_points(action, x):
    """Every public call on one input, by name: each support prime, a prime
    outside the support, and the archimedean place at two tolerances."""
    primes = support_primes(x.coords)
    outside = next(p for p in (2, 3, 5, 7, 11) if p not in primes)
    calls = {
        "height": lambda: quotient_height(action, x),
        "all": lambda: instability_all(action, x),
        "all 1e-6": lambda: instability_all(action, x, 1e-6),
        "arch": lambda: instability_arch(action, x),
        "arch 1e-6": lambda: instability_arch(action, x, 1e-6),
        "semistable": lambda: is_semistable(action, x),
        "destabilizing": lambda: destabilizing_1ps(action, x),
        "lower bound": lambda: lower_bound(action, x),
        "outside": lambda: instability_nonarch(action, x, outside),
    }
    calls.update({p: lambda p=p: instability_nonarch(action, x, p) for p in primes})
    return calls


def test_record_memo_answers_as_a_cold_one():
    rng = random.Random(113)
    cases = _memo_cases(rng)
    calls = [(i, name, call) for i, (action, x) in enumerate(cases)
             for name, call in _entry_points(action, x).items()]
    cold = {}
    for i, name, call in calls:
        torus._POINTS.cache_clear()
        cold[i, name] = _outcome(call)
    unstable = sum(cold[i, "destabilizing"] is not None for i in range(len(cases)))
    assert 20 <= unstable <= len(cases) - 20
    # in the generated order the calls on one point come one after another,
    # and the three points of an action follow each other
    torus._POINTS.cache_clear()
    for i, name, call in calls:
        assert _outcome(call) == cold[i, name]
    rng.shuffle(calls)
    for i, name, call in calls:
        assert _outcome(call) == cold[i, name]


def test_record_memo_keys_on_the_exact_coordinates():
    # 1:2 == 2:4 as points, but their quotient heights differ
    action = act((-1,), (1,))
    first, second = quotient_height(action, pt("1:2")), quotient_height(action, pt("2:4"))
    assert first == LogValue({2: Fraction(-1, 2)}, math.log(2))
    assert second == LogValue({2: Fraction(-3, 2)}, math.log(4))
    torus._POINTS.cache_clear()
    assert quotient_height(action, pt("2:4")) == second


@pytest.mark.parametrize("p", [2.0, True, 1, 4])
def test_warm_record_still_refuses_what_is_no_prime(p):
    instability_all(W214, P221)  # the record now holds the report at 2
    with pytest.raises(InputError):
        instability_nonarch(W214, P221, p)


def test_record_memo_is_bounded():
    torus._POINTS.cache_clear()
    records = []
    for k in range(200):
        action, x = act((-1,), (k + 1,)), pt("1:1")
        is_semistable(action, x)
        instability_all(action, x)
        records.append(weakref.ref(torus._POINTS.record))
    gc.collect()
    assert [r() is not None for r in records] == [False] * 199 + [True]
    assert torus._POINTS.key == (1, ((-1,), (200,)), x.coords)


def test_a_kept_unstable_error_keeps_no_record_alive():
    action, x = act((-1,), (1,)), pt("1:0")
    torus._POINTS.cache_clear()
    record = weakref.ref(torus.point_record(action, x))
    kept = []
    for call in (quotient_height, lower_bound):
        with pytest.raises(UnstableError) as info:
            call(action, x)
        kept.append(info.value)  # with its traceback and every frame on it
    torus._POINTS.cache_clear()
    assert record() is None
    assert all(error.__traceback__ is not None for error in kept)


@pytest.mark.parametrize("coords", [
    (2, 2, 1),
    (0, 3, 4),
    (Fraction(1, 3), Fraction(2, 7), 5),
    (10**400, 1, 1),
    (Fraction(1, 10**400), 3, Fraction(1, 7)),
], ids=["small", "zero", "denominators", "huge", "tiny"])
def test_record_norm_reads_the_sum_of_squares_bit_for_bit(coords):
    # the norm and the per-coordinate logs come off the record's squares, and
    # are the floats the Fraction route gives, so the naive height is unchanged
    x = ProjectivePointQ(tuple(Fraction(c) for c in coords))
    record = torus.point_record(W214, x)
    assert record.norm == 0.5 * places._log_sum_squares(x.coords)
    assert record.norm == naive_height(x).arch
    ints2, scale2 = record.squares
    assert [places._log_ratio(w, scale2) for w in ints2] == [places._log_sum_squares([c]) for c in record.xs]


# ---------------------------------------------------------------------------
# semistability
# ---------------------------------------------------------------------------

def test_semistable_examples():
    assert is_semistable(W214, P221)
    assert not is_semistable(act((-1,), (1,)), pt("1:0"))
    assert not is_semistable(act((1,), (1,)), pt("1:1"))
    assert not is_semistable(act((1,), (1,)), pt("3:5"))


def test_semistable_rank_two():
    square = act((1, 0), (-1, 0), (0, 1), (0, -1))
    assert is_semistable(square, pt("1:1:1:1"))
    assert not is_semistable(square, pt("1:0:1:0"))  # active hull misses 0
    corner = act((1, 1), (1, 2), (2, 1))
    assert not is_semistable(corner, pt("1:1:1"))


def test_destabilizing_1ps_examples():
    assert destabilizing_1ps(act((1,), (1,)), pt("1:1")) == (1,)
    assert destabilizing_1ps(W214, pt("0:0:1")) == (1,)
    assert destabilizing_1ps(W214, P221) is None


def test_destabilizing_1ps_drives_active_weights_positive():
    rng = random.Random(29)
    found = 0
    while found < 40:
        rank = rng.randint(1, 2)
        k = rng.randint(2, 4)
        action = act(*[tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(k)])
        coords = tuple(Fraction(rng.randint(0, 3)) for _ in range(k))
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePointQ(coords)
        lam = destabilizing_1ps(action, x)
        if lam is None:
            assert is_semistable(action, x)
            continue
        found += 1
        assert all(isinstance(c, int) for c in lam)
        g = 0
        for c in lam:
            g = math.gcd(g, abs(c))
        assert g == 1  # primitive
        for m, c in zip(action.weights, coords):
            if c != 0:
                assert sum(mi * li for mi, li in zip(m, lam)) > 0


def test_action_validation_and_json():
    with pytest.raises(InputError, match="point has 3 coordinates, action expects 2"):
        is_semistable(act((1,), (1,)), pt("1:1:1"))
    with pytest.raises(InputError):
        TorusAction(rank=0, weights=((1,),))
    with pytest.raises(InputError, match=r"weight \(1,\) does not have 2 entries"):
        TorusAction(rank=2, weights=((1,), (1, 2)))
    a = TorusAction.from_json({"rank": 1, "weights": [[-2], [1], [4]]})
    assert a == W214


@pytest.mark.parametrize("weight", [0.5, 1.0, math.inf, math.nan, True])
def test_non_integer_weights_are_refused(weight):
    # int() would truncate 0.5 to 0 and make the action trivial, or overflow on inf
    with pytest.raises(InputError):
        TorusAction(rank=1, weights=((weight,), (1,)))
    with pytest.raises(InputError):
        TorusAction.from_json({"rank": 1, "weights": [[weight], [1]]})


@pytest.mark.parametrize("rank", [math.inf, 1.9, 1.0, True, "1"])
def test_non_integer_rank_is_refused(rank):
    # int() would overflow on inf and truncate 1.9 and True to rank 1
    with pytest.raises(InputError):
        TorusAction(rank=rank, weights=((1,), (2,)))
    with pytest.raises(InputError):
        TorusAction.from_json({"rank": rank, "weights": [[1], [2]]})


# ---------------------------------------------------------------------------
# instability measures
# ---------------------------------------------------------------------------

def test_instability_nonarch_worked_example():
    r = instability_nonarch(W214, P221, 2)
    assert dict(r.value.finite) == {2: Fraction(-2, 3)}
    assert r.value.arch == 0.0
    assert r.minimizer == (Fraction(-1, 6),)
    assert r.residually_semistable is False
    assert str(r.place) == "2"


def test_instability_nonarch_other_primes_vanish():
    for p in (3, 5, 7, 11):
        r = instability_nonarch(W214, P221, p)
        assert r.value.is_exact_zero
        assert r.residually_semistable is True


def test_instability_unstable_is_neg_infinity():
    for p in (2, 5):
        r = instability_nonarch(act((1,), (1,)), pt("1:1"), p)
        assert r.value.neg_inf
    ra = instability_arch(act((1,), (1,)), pt("1:1"))
    assert ra.value.neg_inf


def test_instability_arch_examples():
    r = instability_arch(W214, P221)
    assert r.value.is_exact_zero  # gradient -8+4+4 = 0 at xi = 0
    assert all(float(x) == 0.0 for x in r.minimizer)
    sym = instability_arch(act((-1,), (1,)), pt("1:1"))
    assert sym.value.is_exact_zero
    skew = instability_arch(act((-1,), (1,)), pt("2:1"))
    assert abs(skew.value.to_float() - 0.5 * math.log(4 / 5)) < 1e-9
    flat = instability_arch(act((0,), (1,)), pt("1:1"))  # the face is the zero weight
    assert abs(flat.value.to_float() + 0.5 * math.log(2)) < 1e-12 and flat.minimizer == (0.0,)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, 0, math.inf, "a", None, True, [1e-9]],
                         ids=["nan", "negative", "zero", "int_zero", "inf", "str", "none", "bool", "list"])
@pytest.mark.parametrize("call", [instability_arch, instability_all, quotient_height])
@pytest.mark.parametrize("point", ["3:3", "2:1"], ids=["balanced", "newton"])
def test_a_tolerance_that_is_no_finite_positive_number_is_refused(time_limit, call, point, tol):
    # nan and -1 once ran every Newton iteration before a NoConvergenceError,
    # and "a" failed as a TypeError; a balanced point runs no Newton step at all
    action, x = act((-1,), (1,)), pt(point)
    instability_arch(action, x)  # the record already holds a report: a bad tol is still refused
    with time_limit(1.0), pytest.raises(InputError):
        call(action, x, tol=tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_instability_arch_at_tight_tolerances(tol):
    # Next to the minimum the predicted decrease falls below the rounding
    # error of the objective, so no Armijo step shows a decrease; Newton
    # must still reach tol.  With weights (2), (-2), (2) the measure is
    # 1/2 log(2 sqrt(A B)) - 1/2 log(sum x_i^2), A = 4^2 + 11^2, B = 6^2.
    r = instability_arch(act((2,), (-2,), (2,)), pt("4:6:-11"), tol=tol)
    want = 0.5 * math.log(2 * math.sqrt(137 * 36)) - 0.5 * math.log(173)
    assert abs(r.value.to_float() - want) < 1e-12
    # coordinates of 20 to 22 digits: the gradient vanishes at the minimizer
    weights = (1, -1, -2, -1)
    x = ProjectivePointQ((Fraction(71999996111999959176), Fraction(4611686018427387902),
                          Fraction(-73786976174579122216),
                          Fraction(-89131682787042205588235747346, 999999937)))
    r = instability_arch(act(*[(w,) for w in weights]), x, tol=tol)
    (t,) = r.minimizer
    a = [2 * math.log(abs(c.numerator)) - 2 * math.log(c.denominator) + 2 * w * t
         for c, w in zip(x.coords, weights)]
    p = [math.exp(v - max(a)) for v in a]
    assert abs(sum(w * q for w, q in zip(weights, p)) / sum(p)) <= tol


# A semistable rank-3 point whose coordinates span about 10^32.  At the
# least-squares start one term dominates the others by about 60 nats, the
# Hessian is singular to about e^-60, and every damped Newton step overshoots.
# It stays a convergence failure until the archimedean term is solved through
# Kempf-Ness duality on the face of zero, which would turn it into a value.
STALL_WEIGHTS = ((0, -2, -1), (-3, 3, -2), (3, 0, -3), (0, 1, 1), (-1, -2, 0), (3, -3, -2))
STALL_POINT = ("1267510573636933989563929/11:1/11712089809763281:11712089809763281"
               ":-1/108222409:7/108222409:7")


def test_newton_stall_is_a_convergence_failure():
    action = act(*STALL_WEIGHTS)
    assert is_semistable(action, pt(STALL_POINT))
    with pytest.raises(NoConvergenceError, match="stalled at gradient norm"):
        quotient_height(action, pt(STALL_POINT))


def test_record_memo_keeps_no_failure():
    # the stall is raised again on each call, not read from the record
    action = act(*STALL_WEIGHTS)
    for call in (instability_arch, quotient_height, quotient_height):
        with pytest.raises(NoConvergenceError, match="stalled at gradient norm"):
            call(action, pt(STALL_POINT))


def test_instability_is_nonpositive():
    rng = random.Random(41)
    for _ in range(60):
        rank = rng.randint(1, 2)
        k = rng.randint(2, 4)
        action = act(*[tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(k)])
        coords = tuple(Fraction(rng.randint(-4, 4)) for _ in range(k))
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePointQ(coords)
        semistable = is_semistable(action, x)
        for p in (2, 3):
            r = instability_nonarch(action, x, p)
            assert r.value.neg_inf == (not semistable)
            if not r.value.neg_inf:
                assert r.value.to_float() <= 1e-12
        ra = instability_arch(action, x)
        assert ra.value.neg_inf == (not semistable)
        if not ra.value.neg_inf:
            assert ra.value.to_float() <= 1e-9


def residually_semistable_direct(action, x, p):
    """Is the reduction of x mod p semistable?  Direct hull criterion.

    After scaling so max_i |x_i|_p = 1, the coordinates that survive
    reduction are those of minimal valuation; test 0 in the hull of their
    weights.  Independent of the LP route through the instability measure.
    """
    active = [(c, m) for c, m in zip(x.coords, action.weights) if c]
    vals = [valuation(c, p) for c, _ in active]
    survivors = [m for (_, m), v in zip(active, vals) if v == min(vals)]
    return exactlp.ZeroSumPolytope(survivors).separating_direction() is None


def test_residual_semistability_flag_matches_direct_criterion():
    rng = random.Random(53)
    checked = 0
    while checked < 80:
        rank = rng.randint(1, 2)
        k = rng.randint(2, 4)
        action = act(*[tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(k)])
        coords = tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)
        )
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePointQ(coords)
        if not is_semistable(action, x):
            continue
        checked += 1
        for p in (2, 3):
            r = instability_nonarch(action, x, p)
            assert r.residually_semistable == residually_semistable_direct(action, x, p)
            assert r.residually_semistable == (r.value.is_exact_zero)


# ---------------------------------------------------------------------------
# quotient heights
# ---------------------------------------------------------------------------

def test_quotient_height_worked_example():
    h = quotient_height(W214, P221)
    assert dict(h.finite) == {2: Fraction(-2, 3)}
    assert abs(h.arch - math.log(3)) < 1e-9
    expected = math.log(3) - Fraction(2, 3) * math.log(2)
    assert abs(h.to_float() - float(expected)) < 1e-9


def test_quotient_height_simple_cases():
    h = quotient_height(act((-1,), (1,)), pt("1:1"))
    assert abs(h.to_float() - 0.5 * math.log(2)) < 1e-12
    assert quotient_height(act((0,),), pt("1")).is_exact_zero
    with pytest.raises(UnstableError):
        quotient_height(act((1,), (1,)), pt("1:1"))


def test_quotient_height_keeps_no_partial_sum(monkeypatch):
    # partial sums in the shared-value table would push out values a caller reuses
    monkeypatch.setattr(places, "_VALUES", {})
    torus._POINTS.cache_clear()
    action, x = act((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)), pt("12:5:7:10:3")
    h = quotient_height(action, x)
    kept = list(places._VALUES.values())
    terms = [r.value for r in instability_all(action, x).values()]
    assert len(terms) == 5 and h in kept
    partial = naive_height(x)
    for term in terms[:-1]:
        partial = partial + term
        assert partial not in kept
    assert partial + terms[-1] == h
    # no float log of x_i^2 or of sum x_i^2 takes a place in the table: of the
    # arch-only values that no result holds, the naive height alone is left
    unheld = [v for v in kept if not v.finite and all(v is not t for t in [h, *terms])]
    assert unheld == [naive_height(x)]


def test_quotient_height_invariant_under_rational_torus_action():
    rng = random.Random(67)
    cases = 0
    while cases < 25:
        rank = rng.randint(1, 2)
        k = rng.randint(2, 4)
        action = act(*[tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(k)])
        coords = tuple(Fraction(rng.randint(-5, 5)) for _ in range(k))
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePointQ(coords)
        if not is_semistable(action, x):
            continue
        cases += 1
        lam = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rank)]
        moved = tuple(
            c * math.prod(l ** m for l, m in zip(lam, w))
            for c, w in zip(coords, action.weights)
        )
        base = quotient_height(action, x)
        other = quotient_height(action, ProjectivePointQ(moved))
        assert base.finite == other.finite
        assert abs(base.to_float() - other.to_float()) < 1e-9


def test_rank_four_quotient_height_with_sixteen_weights():
    rng = random.Random(16)
    action = act(*[tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(16)])
    x = ProjectivePointQ(tuple(Fraction(rng.choice([1, 2, 3, 6, 10, 15])) for _ in range(16)))
    h = quotient_height(action, x)
    assert set(h.finite) <= set(support_primes(x.coords))
    for p in support_primes(x.coords):
        offsets = [Fraction(-valuation(c, p)) for c in x.coords]
        _, value = _highs_min_max([tuple(Fraction(w) for w in m) for m in action.weights], offsets)
        assert abs(float(h.finite.get(p, 0)) - (value - float(max(offsets)))) < 1e-9
    assert abs(h.to_float() - quotient_height(action, ProjectivePointQ(
        tuple(c * Fraction(3) ** m[0] for c, m in zip(x.coords, action.weights)))).to_float()) < 1e-9


# ---------------------------------------------------------------------------
# Kempf-Ness profiles
# ---------------------------------------------------------------------------

def test_profile_symmetric_example():
    vals = kempf_ness_profile(act((-1,), (1,)), pt("1:1"), (1,), [-1.0, 0.0, 1.0])
    assert abs(vals[0] - 0.5 * math.log(math.exp(2) + math.exp(-2))) < 1e-12
    assert abs(vals[1] - 0.5 * math.log(2)) < 1e-12
    assert vals[0] == pytest.approx(vals[2])


def test_profile_of_huge_coordinates():
    vals = kempf_ness_profile(act((-1,), (1,)), pt("1e200:1"), (1,), [0.0])
    assert abs(vals[0] - 200 * math.log(10)) < 1e-9


def test_profile_overflows_to_infinity_not_nan():
    # the exponents overflow to +-inf; inf - inf in the log-sum-exp gave nan
    assert kempf_ness_profile(W214, P221, (1,), [1e308, -1e308]) == [math.inf, math.inf]
    assert kempf_ness_profile(act((1,), (1,)), pt("1:1"), (1,), [-1e308]) == [-math.inf]
    assert kempf_ness_profile(W214, P221, (1,), [1e308], place=Place.finite(2)) == [math.inf]


def test_profile_constant_for_zero_direction():
    vals = kempf_ness_profile(W214, P221, (0,), [-2.0, 0.0, 3.0])
    assert max(vals) - min(vals) < 1e-15


def test_profile_finite_place_piecewise_linear():
    grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
    vals = kempf_ness_profile(W214, P221, (1,), grid, place=Place.finite(2))
    ln2 = math.log(2)
    for s, got in zip(grid, vals):
        want = max(-2 * s - ln2, s - ln2, 4 * s)
        assert abs(got - want) < 1e-12


def test_profile_refuses_a_non_integer_subgroup():
    # int(0.5) == 0 would profile the trivial subgroup, int(True) == 1 another one
    for one_ps in ([0.5], [True], (1.0,)):
        with pytest.raises(InputError):
            kempf_ness_profile(W214, P221, one_ps, [1.0])
    assert kempf_ness_profile(W214, P221, [0], [1.0]) == pytest.approx([0.5 * math.log(9)])


def test_profile_discrete_convexity():
    rng = random.Random(71)
    grid = [i / 10 - 2.0 for i in range(41)]
    for _ in range(30):
        rank = rng.randint(1, 2)
        k = rng.randint(2, 4)
        action = act(*[tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(k)])
        coords = tuple(Fraction(rng.randint(-4, 4)) for _ in range(k))
        if all(c == 0 for c in coords):
            continue
        x = ProjectivePointQ(coords)
        lam = tuple(rng.randint(-2, 2) for _ in range(rank))
        for place in (ARCHIMEDEAN, Place.finite(2)):
            vals = kempf_ness_profile(action, x, lam, grid, place=place)
            for a, b, c in zip(vals, vals[1:], vals[2:]):
                assert a + c - 2 * b >= -1e-9


# Two convex profiles, each the archimedean profile along (1) plus a finite one
# along (-1): (weights, point, the finite place, the closed form in s)
_SUMMED_PROFILES = {
    "log3": (((-2,), (1,), (4,)), "2:2:1", 3, lambda s: 2 * max(s, -2 * s) + 0.5 * math.log(
        4 * math.exp(-4 * s) + 4 * math.exp(2 * s) + math.exp(8 * s))),
    "log_sqrt3": (((0,), (0,), (1,)), "1:1:1", 2, lambda s: max(0.0, -s) + 0.5 * math.log(2 + math.exp(2 * s))),
}


@pytest.mark.parametrize("name", _SUMMED_PROFILES)
def test_summed_profiles_match_their_closed_forms(name):
    weights, point, p, closed_form = _SUMMED_PROFILES[name]
    action, x = act(*weights), pt(point)
    grid = [i / 8 - 2.5 for i in range(41)]
    arch = kempf_ness_profile(action, x, (1,), grid)
    finite = kempf_ness_profile(action, x, (-1,), grid, place=Place.finite(p))
    total = [a + f for a, f in zip(arch, finite)]
    for s, got in zip(grid, total):
        want = closed_form(s)
        assert abs(got - want) <= 4 * np.finfo(float).eps * (1 + abs(want))
    # at s = 0 the sum is the naive height, log 3 and 1/2 log 3, which the quotient height does not exceed
    at_zero = total[grid.index(0.0)]
    naive = naive_height(x).to_float()
    assert abs(at_zero - naive) <= math.ulp(naive)
    assert naive == pytest.approx({"log3": math.log(3), "log_sqrt3": 0.5 * math.log(3)}[name], rel=1e-15)
    assert quotient_height(action, x).to_float() <= at_zero


@pytest.mark.parametrize("name", _SUMMED_PROFILES)
def test_summed_profiles_are_convex_with_their_minimum_at_zero(name):
    weights, point, p, _ = _SUMMED_PROFILES[name]
    action, x = act(*weights), pt(point)
    grid = [i / 8 - 2.5 for i in range(41)]
    arch = kempf_ness_profile(action, x, (1,), grid)
    finite = kempf_ness_profile(action, x, (-1,), grid, place=Place.finite(p))
    total = [a + f for a, f in zip(arch, finite)]
    for a, b, c in zip(total, total[1:], total[2:]):
        assert a + c - 2 * b >= -1e-9
    assert min(total) == total[grid.index(0.0)]


def test_fundamental_formula_assembles_naive_height():
    # quotient = naive + sum of instabilities, checked term by term
    h = naive_height(P221)
    i2 = instability_nonarch(W214, P221, 2).value
    ia = instability_arch(W214, P221).value
    total = h + i2 + ia
    q = quotient_height(W214, P221)
    assert total.finite == q.finite
    assert abs(total.to_float() - q.to_float()) < 1e-12
