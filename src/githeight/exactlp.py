"""Exact rational linear programming: one two-phase simplex with Bland's rule.

Every program lives on the zero-sum polytope of slopes m_i,
P = {lam >= 0 : sum_i lam_i = 1, sum_i lam_i m_i = 0}, nonempty iff 0 lies in
their hull (Hilbert-Mumford).  By LP duality min over xi of
max_i (m_i . xi + c_i) = max over lam in P of sum_i lam_i c_i, the left side
unbounded below exactly when P is empty.  ``_simplex`` solves the right side
exactly by integer pivoting with Bland's smallest-index rule (Bland 1977),
which cannot cycle.  The minimizer xi is the row multipliers of the optimal
basis, so ties resolve to that basis, not to the lexicographically smallest
minimizer.  When P is empty the phase-1 Farkas vector separates the slopes
from 0 instead, which is the destabilizing direction.
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = tuple[tuple[Fraction, ...], Fraction]


def _simplex(a, b, c):
    """max c . x subject to a x = b, x >= 0, over the rationals.

    Returns (x, y): an optimal vertex x and row multipliers y with
    y . a_j >= c_j for every column j and y . b = c . x; or (None, y) when
    the system is empty, y a Farkas vector: y . a_j >= 0 and y . b < 0.
    An unbounded program raises ValueError.
    """
    m, n = len(a), len(c)
    # row i scaled by s_i to integers with s_i b_i >= 0, artificial column n + i = e_i;
    # entry / d is the tableau value, d > 0 the basis determinant: divisions are exact
    s = [(-1 if bi < 0 else 1) * _lcm_denominators((*row, bi)) for row, bi in zip(a, b)]
    t = [[*_scaled(row, si), *(int(k == i) for k in range(m)), int(si * bi)]
         for i, (row, bi, si) in enumerate(zip(a, b, s))]
    basis, d = list(range(n, n + m)), 1

    def pivot(i, j):
        nonlocal d
        p, pivot_row = t[i][j], t[i]
        sign = 1 if p > 0 else -1
        t[:] = [[sign * (p * v - row[j] * w) // d for v, w in zip(row, pivot_row)] for row in t]
        t[i], d, basis[i] = [sign * w for w in pivot_row], abs(p), j

    def run(cost):
        # objective row: reduced costs, then -value, all times scale * d
        scale = _lcm_denominators(cost)
        ic = _scaled(cost, scale)
        t.append([d * cj - sum(ic[bi] * row[j] for bi, row in zip(basis, t))
                  for j, cj in enumerate(ic + [0])])
        while (j := next((j for j in range(n) if t[-1][j] > 0), None)) is not None:
            rows = [i for i in range(m) if t[i][j] > 0]
            if not rows:
                raise ValueError("unbounded linear program")
            pivot(min(rows, key=lambda i: (Fraction(t[i][-1], t[i][j]), basis[i])), j)
        z = t.pop()
        return [si * (cost[n + k] - Fraction(z[n + k], scale * d)) for k, si in enumerate(s)]

    y = run([0] * n + [-1] * m)
    if any(j >= n and t[i][-1] for i, j in enumerate(basis)):  # an artificial stays positive
        return None, y
    for i in range(m):  # drive degenerate artificials out where a real column can enter
        if basis[i] >= n and (j := next((j for j in range(n) if t[i][j]), None)) is not None:
            pivot(i, j)
    y = run([*c, *[0] * m])
    x = {j: Fraction(t[i][-1], d) for i, j in enumerate(basis)}
    return [x.get(j, Fraction(0)) for j in range(n)], y


def _lcm_denominators(values) -> int:
    return math.lcm(*(v.denominator for v in values))


def _scaled(values, scale: int) -> list[int]:
    return [v.numerator * (scale // v.denominator) for v in values]


def _on_polytope(slopes, rank: int, costs):
    """max sum_i lam_i costs_i over lam in P, as ``_simplex`` returns it.

    Row 0 is sum lam = 1 and row 1 + k is -sum lam_i m_ik = 0, so the row
    multipliers are (value, xi).
    """
    a = [[1] * len(slopes), *([-m[k] for m in slopes] for k in range(rank))]
    return _simplex(a, [1] + [0] * rank, costs)


def minimize_max_affine(slopes: list[tuple[Fraction, ...]], offsets: list[Fraction]):
    """min over xi of max_i (slopes[i] . xi + offsets[i]), exactly.

    Returns (value, argmin) as Fractions, or (None, None) when unbounded
    below.
    """
    x, y = _on_polytope(slopes, len(slopes[0]), offsets)
    return (None, None) if x is None else (y[0], tuple(y[1:]))


def separating_direction(slopes: list[tuple[Fraction, ...]]):
    """A direction xi with m_i . xi > 0 for every slope, or None when 0 is in their hull.

    The costs are zero, so phase 1 of ``_simplex`` decides.  When P is
    empty its Farkas vector y has y_0 < 0 and y_0 - m_i . y[1:] >= 0, so
    xi = -y[1:] gives m_i . xi >= -y_0 > 0 (Hilbert-Mumford).
    """
    x, y = _on_polytope(slopes, len(slopes[0]), [0] * len(slopes))
    return None if x is not None else tuple(-v for v in y[1:])


def feasible(rows: list[Row], nvars: int) -> bool:
    """Is {x : coeffs . x <= rhs for all rows (coeffs, rhs)} nonempty?

    Farkas: it is empty iff some convex combination of the rows has zero
    coefficients and a negative right-hand side.
    """
    x, y = _on_polytope([c for c, _ in rows], nvars, [-r for _, r in rows])
    return x is None or y[0] <= 0


def face_of_zero(slopes: list[tuple[Fraction, ...]]) -> list[int]:
    """Indices i with lam_i > 0 for some lam in P, ascending.

    These are the slopes on the face of their hull whose relative interior
    contains 0 (none when 0 is outside the hull).  Each solve maximizes the
    mass outside the union of the supports found so far and adds its
    support, until that mass is 0: at most |face| + 1 solves.
    """
    face: set[int] = set()
    while True:
        costs = [int(i not in face) for i in range(len(slopes))]
        x, _ = _on_polytope(slopes, len(slopes[0]), costs)
        support = {i for i, v in enumerate(x or ()) if v > 0}
        if support <= face:
            return sorted(face)
        face |= support
