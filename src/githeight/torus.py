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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import exactlp
from .errors import (
    InputError,
    LengthMismatchError,
    NoConvergenceError,
    UnstableError,
)
from .heights import ProjectivePointQ, naive_height
from .places import ARCHIMEDEAN, LogValue, Place, support_primes, valuation

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
        if self.rank < 1:
            raise InputError("torus rank must be at least 1")
        weights = tuple(tuple(int(w) for w in row) for row in self.weights)
        if not weights:
            raise InputError("a torus action needs at least one weight")
        for row in weights:
            if len(row) != self.rank:
                raise LengthMismatchError(
                    f"weight {row} does not have {self.rank} entries"
                )
        object.__setattr__(self, "weights", weights)

    @property
    def ambient_dim(self) -> int:
        """Number of homogeneous coordinates acted on."""
        return len(self.weights)

    @classmethod
    def from_json(cls, data: Mapping) -> "TorusAction":
        try:
            return cls(int(data["rank"]), tuple(tuple(w) for w in data["weights"]))
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


def _active_weights(action: TorusAction, x: ProjectivePointQ):
    """(nonzero coordinates, their weights as Fractions)."""
    if len(x.coords) != action.ambient_dim:
        raise LengthMismatchError(
            f"point has {len(x.coords)} coordinates, action expects {action.ambient_dim}"
        )
    active = [(c, w) for c, w in zip(x.coords, action.weights) if c != 0]
    return [c for c, _ in active], [tuple(Fraction(v) for v in w) for _, w in active]


def _hull_gap(ms: list[tuple[Fraction, ...]]):
    """(value, argmin) of min over the unit box of max_i <m_i, xi>.

    The value is 0 exactly when 0 lies in the convex hull of the weights,
    negative otherwise (then argmin separates strictly).
    """
    return exactlp.minimize_max_affine(ms, [Fraction(0)] * len(ms), box=Fraction(1))


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
    """
    _, ms = _active_weights(action, x)
    value, _ = _hull_gap(ms)
    return value == 0


def destabilizing_1ps(action: TorusAction, x: ProjectivePointQ):
    """A primitive integer one-parameter subgroup certifying instability.

    Returns None for semistable points; otherwise a primitive lambda in Z^r
    with <m_i, lambda> > 0 for every weight m_i active at x.
    """
    _, ms = _active_weights(action, x)
    value, argmin = _hull_gap(ms)
    if value == 0:
        return None
    direction = [-c for c in argmin]
    denom_lcm = 1
    for c in direction:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in direction]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return tuple(v // g for v in ints)


def residually_semistable_direct(action: TorusAction, x: ProjectivePointQ, p: int) -> bool:
    """Is the reduction of x mod p semistable?  Direct hull criterion.

    After scaling so max_i |x_i|_p = 1, the coordinates that survive
    reduction are those of minimal valuation; test 0 in the hull of their
    weights.  Independent of the LP route through the instability measure.
    """
    xs, ms = _active_weights(action, x)
    vals = [valuation(c, p) for c in xs]
    vmin = min(vals)
    surviving = [m for m, v in zip(ms, vals) if v == vmin]
    value, _ = _hull_gap(surviving)
    return value == 0


def instability_nonarch(action: TorusAction, x: ProjectivePointQ, p: int) -> InstabilityReport:
    """Exact instability measure at a finite place.

    In units of log p the orbit-infimum problem is
    min over xi in R^r of max_i (<m_i, xi> - v_p(x_i)), solved exactly by
    rational elimination; subtracting max_i log|x_i|_p gives the measure.

    Examples:
        >>> act = TorusAction(1, ((-2,), (1,), (4,)))
        >>> rep = instability_nonarch(act, ProjectivePointQ.parse("2:2:1"), 2)
        >>> rep.value, rep.minimizer
        (LogValue(finite={2: -2/3}, arch=0.0), (Fraction(-1, 6),))
    """
    return _nonarch_report(*_active_weights(action, x), p)


def _nonarch_report(xs, ms, p: int) -> InstabilityReport:
    place = Place.finite(p)
    offsets = [Fraction(-valuation(c, p)) for c in xs]
    value, argmin = exactlp.minimize_max_affine(ms, offsets)
    if value is None:
        return _unstable_report(place)
    measure = value - max(offsets)
    return InstabilityReport(place, LogValue({p: measure}), tuple(argmin), measure == 0)


def instability_arch(
    action: TorusAction, x: ProjectivePointQ, tol: float = 1e-12
) -> InstabilityReport:
    """Instability measure at the archimedean place (euclidean norm).

    Minimizes (1/2) log sum x_i^2 exp(2 <m_i, xi>) over xi.  An exact
    rational gradient test at xi = 0 catches balanced points with measure
    exactly 0; otherwise the inf is attained on the face of the weight hull
    whose relative interior contains 0, and a damped Newton iteration on an
    orthonormal basis of that face's span drives the gradient below tol.
    """
    xs, ms = _active_weights(action, x)
    value, _ = _hull_gap(ms)
    if value != 0:
        return _unstable_report(ARCHIMEDEAN)
    return _arch_report(action.rank, xs, ms, tol)


def _arch_report(rank: int, xs, ms, tol: float) -> InstabilityReport:
    """Archimedean measure of a point already known to be semistable."""
    xs2 = [c ** 2 for c in xs]
    grad0 = [sum(m[k] * w for m, w in zip(ms, xs2)) for k in range(rank)]
    if all(g == 0 for g in grad0):
        return InstabilityReport(ARCHIMEDEAN, LogValue.zero(), (0.0,) * rank, None)
    face = _face_of_zero(ms, rank)
    weights_f = np.array([[float(w) for w in ms[j]] for j in face])
    xs2_f = np.array([float(xs2[j]) for j in face])
    total_all = math.fsum(float(w) for w in xs2)
    if np.allclose(weights_f, 0.0):
        best = 0.5 * math.log(math.fsum(xs2_f)) - 0.5 * math.log(total_all)
        return InstabilityReport(
            ARCHIMEDEAN, LogValue.from_arch(min(best, 0.0)), (0.0,) * rank, None
        )
    xi = _newton_minimize(weights_f, xs2_f, rank, tol)
    exponents = 2.0 * (weights_f @ xi)
    best = 0.5 * _logsumexp(np.log(xs2_f) + exponents) - 0.5 * math.log(total_all)
    return InstabilityReport(
        ARCHIMEDEAN,
        LogValue.from_arch(min(best, 0.0)),
        tuple(float(v) for v in xi),
        None,
    )


def instability_all(action: TorusAction, x: ProjectivePointQ,
                    tol: float = 1e-12) -> dict[Place, InstabilityReport]:
    """Instability reports at every place where the measure can be nonzero.

    The places are the support primes of the coordinates, ascending, then
    oo.  One hull LP decides semistability for all of them: an unstable
    point gets -infinity everywhere before any per-prime LP runs.
    """
    xs, ms = _active_weights(action, x)
    value, _ = _hull_gap(ms)
    places = [Place.finite(p) for p in support_primes(xs)] + [ARCHIMEDEAN]
    if value != 0:
        return {place: _unstable_report(place) for place in places}
    reports = {place: _nonarch_report(xs, ms, place.prime) for place in places[:-1]}
    reports[ARCHIMEDEAN] = _arch_report(action.rank, xs, ms, tol)
    return reports


def _face_of_zero(ms: list[tuple[Fraction, ...]], rank: int) -> list[int]:
    """Indices of weights on the face of conv(ms) whose relint contains 0.

    m_j lies off that face iff some xi satisfies <m_i, xi> <= 0 for all i
    with <m_j, xi> < 0; each test is an exact feasibility problem.
    """
    face = []
    for j, mj in enumerate(ms):
        rows = [(m, Fraction(0)) for m in ms]
        rows.append((mj, Fraction(-1)))
        if not exactlp.feasible(rows, rank):
            face.append(j)
    return face


def _logsumexp(a) -> float:
    amax = float(np.max(a))
    return amax + math.log(float(np.sum(np.exp(a - amax))))


def _newton_minimize(weights: np.ndarray, xs2: np.ndarray, rank: int, tol: float) -> np.ndarray:
    """Minimize (1/2) log sum xs2_i exp(2 w_i . xi) over span of the rows."""
    # orthonormal basis of the row span; flat directions are projected out
    _, svals, vt = np.linalg.svd(weights, full_matrices=False)
    keep = svals > 1e-12 * svals[0]
    basis = vt[keep].T  # rank x d
    log_xs2 = np.log(xs2)

    def objective(y):
        return 0.5 * _logsumexp(log_xs2 + 2.0 * (weights @ (basis @ y)))

    y = np.zeros(basis.shape[1])
    fy = objective(y)
    for _ in range(_NEWTON_MAX_ITERS):
        a = log_xs2 + 2.0 * (weights @ (basis @ y))
        p = np.exp(a - _logsumexp(a))
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
        while alpha > 1e-18:
            cand = y + alpha * step
            fc = objective(cand)
            if fc <= fy + 1e-4 * alpha * armijo:
                y, fy = cand, fc
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
    return basis @ y


def quotient_height(action: TorusAction, x: ProjectivePointQ, tol: float = 1e-12) -> LogValue:
    """Height of the image of x in the GIT quotient.

    Naive height plus the sum of all local instability measures; the finite
    measures vanish off the support primes of the coordinates, so the sum
    is finite and its finite part exact.  Unstable points have no image.

    Examples:
        >>> act = TorusAction(1, ((-2,), (1,), (4,)))
        >>> h = quotient_height(act, ProjectivePointQ.parse("2:2:1"))
        >>> dict(h.finite)
        {2: Fraction(-2, 3)}
    """
    reports = instability_all(action, x, tol)
    if reports[ARCHIMEDEAN].value.neg_inf:
        raise UnstableError("unstable point: no image in the quotient")
    total = naive_height(x)
    for report in reports.values():
        total = total + report.value
    return total


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
    """
    lam = [int(v) for v in one_ps]
    if len(lam) != action.rank:
        raise LengthMismatchError(f"one-parameter subgroup must have {action.rank} entries")
    xs, ms = _active_weights(action, x)
    pairings = [sum(int(m[k]) * lam[k] for k in range(action.rank)) for m in ms]
    out = []
    if place.is_archimedean:
        logs = [math.log(float(c ** 2)) for c in xs]
        for s in xi_grid:
            a = np.array([l + 2.0 * c * s for l, c in zip(logs, pairings)])
            out.append(0.5 * _logsumexp(a))
    else:
        logp = math.log(place.prime)
        vals = [valuation(c, place.prime) for c in xs]
        for s in xi_grid:
            out.append(max(c * s - v * logp for c, v in zip(pairings, vals)))
    return out
