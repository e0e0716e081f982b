"""Split torus actions on projective space: stability and local instability.

A rank-r torus acts diagonally on P^n through integer weight vectors
m_0, ..., m_n in Z^r.  For a point x the classical criterion reads: x is
semistable iff 0 lies in the convex hull of the weights at the nonzero
coordinates.  We decide that exactly over Q.

The local instability measure at a place v is

    iota_v(x) = log inf_g ||g . x||_v  -  log ||x||_v   <= 0,

the inf over the local torus orbit.  At a finite p the coordinate sizes are
powers of p, the objective is piecewise linear in the exponent vector, and
the measure is an exact rational multiple of log p (the value group closure
is dense, so the real relaxation loses nothing).  At the archimedean place
the objective is smooth and strictly convex on the span of the relevant
weights and is minimized by a damped Newton iteration.

Sum of the naive height and all local measures = height of the image point
in the quotient; unstable points have iota = -infinity and no image.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import exactlp
from .errors import InputError, NoConvergenceError, UnstableError
from .heights import ProjectivePointQ, _naive_height
from .places import (ARCHIMEDEAN, LogValue, Place, _is_int, _LastInput, _log_ratio, _log_sum_squares,
                     _require_place, _valuation, valuation_table)

_EPS = float(np.finfo(float).eps)
_NEWTON_MAX_ITERS = 200


@dataclass(frozen=True)
class TorusAction:
    """Integer weight data of a diagonal torus action on P^(n).

    Examples:
        >>> TorusAction.from_json({"rank": 1, "weights": [[-2], [1], [4]]}).rank
        1
    """

    rank: int
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not _is_int(self.rank):
            raise InputError(f"torus rank {self.rank!r} is not an integer")
        if self.rank < 1:
            raise InputError("torus rank must be at least 1")
        weights = tuple(tuple(row) for row in self.weights)
        if not weights:
            raise InputError("a torus action needs at least one weight")
        for row in weights:
            if len(row) != self.rank:
                raise InputError(f"weight {row} does not have {self.rank} entries")
            if not all(_is_int(w) for w in row):
                raise InputError(f"weight {row} has an entry that is not an integer")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_json(cls, data: Mapping) -> "TorusAction":
        try:
            return cls(data["rank"], tuple(tuple(w) for w in data["weights"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed torus action payload: {data!r}") from exc

    def to_json(self) -> dict:
        return {"rank": self.rank, "weights": [list(w) for w in self.weights]}


@dataclass(frozen=True)
class InstabilityReport:
    """One local instability measure.

    ``minimizer`` is the optimal exponent vector: exact Fractions in units
    of log p at a finite place, floats at the archimedean one, None when
    the point is unstable.  ``residually_semistable`` says whether the
    measure vanishes exactly (finite places only; None at the archimedean
    place, where vanishing is a float statement).
    """

    place: Place
    value: LogValue
    minimizer: tuple | None
    residually_semistable: bool | None


class _PointRecord:
    """One input's local data, each part computed on first use and kept.

    ``xs`` and ``polytope.slopes`` are the nonzero coordinates and their
    weights, ``table`` their valuation table, ``finite`` one report per
    prime and ``arch`` one per tol.  Every public call on the input reads
    this record; a part whose computation raises is not kept, so the next
    call raises again.
    """

    def __init__(self, key):
        rank, weights, coords = key
        if len(coords) != len(weights):
            raise InputError(f"point has {len(coords)} coordinates, action expects {len(weights)}")
        active = [(c, w) for c, w in zip(coords, weights) if c != 0]
        self.rank, self.xs = rank, [c for c, _ in active]
        ms, last = tuple(w for _, w in active), _POINTS.record
        # phase 1 and the face of zero depend on the weights alone, and each
        # phase 2 runs on a copy of the feasible tableau, so the next point
        # of an action with the same zero pattern shares the last polytope
        self.polytope = last.polytope if last and last.polytope.slopes == ms else exactlp.ZeroSumPolytope(ms)
        self.finite: dict[int, InstabilityReport] = {}
        self.arch: dict[float, InstabilityReport] = {}

    @functools.cached_property
    def table(self) -> dict[int, list]:
        return valuation_table(self.xs)

    def nonarch_report(self, place: Place, vals) -> InstabilityReport:
        """The report at a finite place from the active valuations there, kept."""
        offsets = [-v for v in vals]
        value, argmin = self.polytope.minimize_max_affine(offsets)
        if value is None:
            report = _unstable_report(place)
        else:
            measure = value - max(offsets)
            report = InstabilityReport(place, LogValue._of_primes({place.prime: measure}), tuple(argmin),
                                       measure == 0)
        self.finite[place.prime] = report
        return report

    def arch_report(self, tol: float) -> InstabilityReport:
        # before the lookup: a nan or negative tol would run every Newton step and fail
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise InputError(f"tolerance {tol!r} is not a finite positive number")
        report = self.arch.get(tol)
        if report is None:
            report = self.arch[tol] = _arch_report(self.rank, self.xs, self.polytope, tol)
        return report

    def reports(self, tol: float) -> dict[Place, InstabilityReport]:
        """A new dict of the reports at the table's primes, ascending, then oo."""
        reports = {}
        for p, vals in self.table.items():
            report = self.finite.get(p)
            if report is None:  # the table's keys are proven primes
                report = self.nonarch_report(Place._of_prime(p), vals)
            reports[report.place] = report
        reports[ARCHIMEDEAN] = self.arch_report(tol)
        return reports


# The record of the last input, keyed on (rank, weights, coordinates) and
# not on the point, whose == is projective: 1:2 and 2:4 have different
# heights.
_POINTS = _LastInput(_PointRecord)


def _record(action: TorusAction, x: ProjectivePointQ) -> _PointRecord:
    return _POINTS((action.rank, action.weights, x.coords))


def _unstable_report(place: Place) -> InstabilityReport:
    return InstabilityReport(
        place, LogValue.neg_infinity(), None, None if place.is_archimedean else False
    )


def is_semistable(action: TorusAction, x: ProjectivePointQ) -> bool:
    """Exact test: 0 in conv{weights at nonzero coordinates}.

    Examples:
        >>> act = TorusAction(1, ((-2,), (1,), (4,)))
        >>> is_semistable(act, ProjectivePointQ.parse("2:2:1"))
        True
        >>> is_semistable(act, ProjectivePointQ.parse("0:0:1"))
        False
        >>> is_semistable(TorusAction(1, ((-1,), (1,))), ProjectivePointQ.parse("1:0"))
        False
    """
    return not _record(action, x).polytope.is_empty


def destabilizing_1ps(action: TorusAction, x: ProjectivePointQ):
    """A primitive integer one-parameter subgroup certifying instability.

    Returns None for semistable points; otherwise a primitive lambda in Z^r
    with <m_i, lambda> > 0 for every weight m_i active at x.  It is *a*
    destabilizing 1-PS, the Farkas vector of the empty zero-sum polytope
    scaled to integers, not a canonical (say, Kempf's optimal) one.

    Examples:
        >>> act = TorusAction(2, ((1, 0), (0, 1), (-1, -1)))
        >>> destabilizing_1ps(act, ProjectivePointQ.parse("1:1:0"))
        (1, 1)
        >>> destabilizing_1ps(TorusAction(1, ((-2,), (1,), (4,))), ProjectivePointQ.parse("2:2:1")) is None
        True
    """
    xi = _record(action, x).polytope.separating_direction()
    if xi is None:
        return None
    scale = math.lcm(*(c.denominator for c in xi))
    ints = [int(c * scale) for c in xi]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def instability_nonarch(action: TorusAction, x: ProjectivePointQ, p: int) -> InstabilityReport:
    """Exact instability measure at a finite place.

    In units of log p the orbit-infimum problem is
    min over xi in R^r of max_i (<m_i, xi> - v_p(x_i)), solved exactly by
    a rational simplex with Bland's rule; subtracting max_i log|x_i|_p gives
    the measure.  A prime whose report the input's record holds is
    returned without testing it again; another is tested, and its
    valuations read off the coordinates without factoring them.

    Examples:
        >>> act = TorusAction(1, ((-2,), (1,), (4,)))
        >>> rep = instability_nonarch(act, ProjectivePointQ.parse("2:2:1"), 2)
        >>> rep.value, rep.minimizer
        (LogValue(finite={2: -2/3}, arch=0.0), (Fraction(-1, 6),))
        >>> rep = instability_nonarch(act, ProjectivePointQ.parse("2:2:1"), 3)
        >>> rep.value.is_exact_zero, rep.residually_semistable
        (True, True)
    """
    record = _record(action, x)
    # a float p must not find an int key: 2.0 == 2
    report = record.finite.get(p) if _is_int(p) else None
    if report is None:
        place = Place.finite(p)
        report = record.nonarch_report(place, [_valuation(c, place.prime) for c in record.xs])
    return report


def instability_arch(
    action: TorusAction, x: ProjectivePointQ, tol: float = 1e-12
) -> InstabilityReport:
    """Instability measure at the archimedean place (euclidean norm).

    Minimizes (1/2) log sum x_i^2 exp(2 <m_i, xi>) over xi.  The inf is
    attained on the face of the weight hull whose relative interior
    contains 0; the point is unstable iff that face is empty.  If
    sum x_i^2 m_i = 0 exactly, lam_i ~ x_i^2 is a relative-interior point of
    the weights' zero-sum polytope, so every weight is on the face, no LP
    runs and the measure is exactly 0.  Otherwise the polytope's
    ``face_of_zero`` gives the face: phase 1 alone when it is empty, one
    elimination solve when every weight is on it, and at most one more per
    weight off it.  A damped Newton iteration on an orthonormal basis of
    its span, started where log x_i^2 + 2 <m_i, xi> are closest to equal in
    least squares, drives the gradient below tol.

    Examples:
        >>> act = TorusAction(1, ((-2,), (1,), (4,)))
        >>> rep = instability_arch(act, ProjectivePointQ.parse("2:2:1"))  # 4*(-2) + 4*1 + 1*4 = 0
        >>> rep.value.is_exact_zero, rep.minimizer
        (True, (0.0,))
    """
    return _record(action, x).arch_report(tol)


def _arch_report(rank: int, xs, polytope: exactlp.ZeroSumPolytope, tol: float) -> InstabilityReport:
    """The archimedean report; -infinity when the face of zero is empty.
    The polytope runs an LP only when the exact balance test fails.  The test
    reads sum x_i^2 m_i = 0 on the squares of the integers D x_i, D the lcm
    of the denominators, and the logs of x_i^2 and of their sum are read off
    the same squares."""
    ms, scale = polytope.slopes, math.lcm(*(c.denominator for c in xs))
    ints2 = [(c.numerator * (scale // c.denominator)) ** 2 for c in xs]
    if not any(sum(m[k] * w for m, w in zip(ms, ints2)) for k in range(rank)):
        return InstabilityReport(ARCHIMEDEAN, LogValue.zero(), (0.0,) * rank, None)
    face = polytope.face_of_zero()
    if not face:
        return _unstable_report(ARCHIMEDEAN)
    # ints2[j] / scale^2 = x_j^2 and sum(ints2) / scale^2 = sum x^2, each logged in lowest terms
    scale2 = scale * scale
    xi, value = _newton_minimize(np.array([[float(w) for w in ms[j]] for j in face]),
                                 np.array([_log_ratio(ints2[j], scale2) for j in face]), tol)
    best = value - 0.5 * _log_ratio(sum(ints2), scale2)
    return InstabilityReport(ARCHIMEDEAN, LogValue.from_arch(min(best, 0.0)), tuple(float(v) for v in xi), None)


def instability_all(action: TorusAction, x: ProjectivePointQ,
                    tol: float = 1e-12) -> dict[Place, InstabilityReport]:
    """Instability reports at every place where the measure can be nonzero.

    The places are the support primes of the coordinates, ascending, then
    oo, all read off one valuation table.  Every LP runs on one
    :class:`exactlp.ZeroSumPolytope` of the active weights, so phase 1 runs
    at most once per input.  An unstable point gets -infinity everywhere
    from phase 1 alone: its empty polytope runs no phase 2.  The table and
    the reports are the input's record (see :func:`quotient_height`), so a
    report another call on the same input made is not solved again; each
    call returns a new dict of the record's frozen reports.
    """
    return _record(action, x).reports(tol)


def _logsumexp(a) -> float:
    amax = float(np.max(a))
    if math.isinf(amax):  # a - amax would be inf - inf = nan
        return amax
    return amax + math.log(float(np.sum(np.exp(a - amax))))


def _newton_minimize(weights: np.ndarray, log_xs2: np.ndarray, tol: float):
    """Minimize (1/2) log sum exp(log_xs2_i + 2 w_i . xi) over the row span: (xi, the minimum)."""
    # orthonormal basis of the row span; flat directions are projected out,
    # so all-zero weights leave xi = 0
    _, svals, vt = np.linalg.svd(weights, full_matrices=False)
    keep = svals > 1e-12 * svals[0]
    basis = vt[keep].T  # rank x d
    # least-squares start: balance the exponents log_xs2_i + 2 w_i . xi up to
    # a common constant, so the Hessian does not underflow when they are far apart
    wb = 2.0 * (weights @ basis)
    fit = np.linalg.lstsq(np.hstack([wb, -np.ones((len(log_xs2), 1))]), -log_xs2, rcond=None)[0]
    y = fit[:-1]
    # the exponents at y and their logsumexp carry over from the accepted
    # line-search point; the objective is half the logsumexp
    a = log_xs2 + 2.0 * (weights @ (basis @ y))
    lse = _logsumexp(a)
    for _ in range(_NEWTON_MAX_ITERS):
        fy = 0.5 * lse
        p = np.exp(a - lse)
        grad_xi = weights.T @ p
        grad = basis.T @ grad_xi
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            break
        hess_xi = 2.0 * ((weights.T * p) @ weights - np.outer(grad_xi, grad_xi))
        hess = basis.T @ hess_xi @ basis
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = -grad
        if not np.all(np.isfinite(step)) or float(step @ grad) >= 0.0:
            step = -grad
        alpha, armijo = 1.0, float(step @ grad)
        # next to the minimum a decrease below the rounding error of f cannot
        # show, so a short step that predicts no more is taken whole
        flat = (-armijo <= 8 * _EPS * (1.0 + abs(fy))
                and float(np.linalg.norm(step)) <= 1e-6 * (1.0 + float(np.linalg.norm(y))))
        while alpha > 1e-18:
            cand = y + alpha * step
            a_cand = log_xs2 + 2.0 * (weights @ (basis @ cand))
            lse_cand = _logsumexp(a_cand)
            if flat or 0.5 * lse_cand <= fy + 1e-4 * alpha * armijo:
                y, a, lse = cand, a_cand, lse_cand
                break
            alpha *= 0.5
        else:
            if gnorm <= 1e2 * tol:
                break
            raise NoConvergenceError(
                f"archimedean minimization stalled at gradient norm {gnorm:.3e}"
            )
    else:
        raise NoConvergenceError(
            f"archimedean minimization hit {_NEWTON_MAX_ITERS} iterations"
        )
    return basis @ y, 0.5 * lse


def quotient_height(action: TorusAction, x: ProjectivePointQ, tol: float = 1e-12) -> LogValue:
    """Height of the image of x in the GIT quotient.

    Naive height plus the sum of all local instability measures; the finite
    measures vanish off the support primes of the coordinates, so the sum
    is finite and its finite part exact.  Unstable points have no image.

    Every term is read from one record of the exact input (its rank,
    weights and coordinates), the last input's, which the other entry points
    share: the valuation table, the polytope with its phase 1 and face of
    zero, one report per prime and one per tol.  Phase 1 decides stability
    first, so an unstable point is refused before anything is factored.

    Examples:
        >>> act = TorusAction(1, ((-2,), (1,), (4,)))
        >>> h = quotient_height(act, ProjectivePointQ.parse("2:2:1"))
        >>> dict(h.finite), abs(h.arch - math.log(3)) <= 1e-9
        ({2: Fraction(-2, 3)}, True)
    """
    # no local of this frame holds the record, so the traceback of an
    # UnstableError, which a caller may keep, keeps no local data alive
    if _record(action, x).polytope.is_empty:
        raise UnstableError("unstable point: no image in the quotient")
    record = _record(action, x)
    reports = record.reports(tol).values()
    naive = _naive_height(record.table, 0.5 * _log_sum_squares(record.xs))
    return LogValue._sum([naive, *(r.value for r in reports)])


def kempf_ness_profile(
    action: TorusAction,
    x: ProjectivePointQ,
    one_ps: Sequence[int],
    xi_grid: Sequence[float],
    place: Place = ARCHIMEDEAN,
) -> list[float]:
    """Sample the convex orbit-norm profile along a one-parameter subgroup.

    At the archimedean place this is s -> (1/2) log sum x_i^2
    exp(2 <m_i, lam> s); at a finite place the exact piecewise-linear
    s -> max_i (<m_i, lam> s - v_p(x_i) log p).  Both are convex in s.
    A float or bool entry of ``one_ps`` is refused, not truncated, and so
    is a grid point that is not a finite real double; a point whose profile
    overflows gives +-inf.
    """
    _require_place(place)
    lam = list(one_ps)
    if not all(_is_int(v) for v in lam):
        raise InputError(f"one-parameter subgroup {tuple(lam)} has an entry that is not an integer")
    try:  # a bool or a non-real is nan here
        grid = [float(s) if isinstance(s, numbers.Real) and not isinstance(s, bool) else math.nan for s in xi_grid]
    except OverflowError:  # float(10**400)
        grid = [math.nan]
    if not all(map(math.isfinite, grid)):
        raise InputError("a grid point is not a finite real double")
    if len(lam) != action.rank:
        raise InputError(f"one-parameter subgroup must have {action.rank} entries")
    record = _record(action, x)
    xs = record.xs
    pairings = [sum(m[k] * lam[k] for k in range(action.rank)) for m in record.polytope.slopes]
    if place.is_archimedean:
        logs = [_log_sum_squares([c]) for c in xs]
        return [0.5 * _logsumexp(np.array([l + 2.0 * c * s for l, c in zip(logs, pairings)])) for s in grid]
    logp, vals = math.log(place.prime), [_valuation(c, place.prime) for c in xs]
    return [max(c * s - v * logp for c, v in zip(pairings, vals)) for s in grid]
