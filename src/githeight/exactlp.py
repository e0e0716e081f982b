"""Exact rational linear programming: a two-phase simplex with Bland's rule.

Every program lives on the zero-sum polytope of slopes m_i,
P = {lam >= 0 : sum_i lam_i = 1, sum_i lam_i m_i = 0}, nonempty iff 0 lies in
their hull (Hilbert-Mumford).  By LP duality min over xi of
max_i (m_i . xi + c_i) = max over lam in P of sum_i lam_i c_i, the left side
unbounded below exactly when P is empty.  ``_Simplex`` solves the right side
exactly by integer pivoting with Bland's smallest-index rule (Bland 1977),
which cannot cycle.  Phase 1 depends only on the slopes, so it runs once per
polytope (``ZeroSumPolytope``) and keeps the feasible tableau it reaches;
each cost vector then runs phase 2 on a copy of that tableau.  The
minimizer xi is the row multipliers of the optimal basis, so ties resolve
to that basis, not to the lexicographically smallest minimizer.  When P is
empty the phase-1 Farkas vector separates the slopes from 0 instead, which
is the destabilizing direction.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction

Row = tuple[tuple[Fraction, ...], Fraction]


class _Simplex:
    """a x = b, x >= 0 over the rationals, after phase 1.

    ``farkas`` is None when the system is feasible; the tableau then holds a
    feasible basis with every degenerate artificial that a real column can
    replace driven out, and ``maximize`` runs phase 2 on a copy of it.
    Otherwise ``farkas`` is a Farkas vector y: y . a_j >= 0 and y . b < 0.
    """

    def __init__(self, a, b):
        self.m, self.n = m, n = len(a), len(a[0])
        # row i scaled by s_i to integers with s_i b_i >= 0, artificial column n + i = e_i;
        # entry / d is the tableau value, d > 0 the basis determinant: divisions are exact
        self.s = [(-1 if bi < 0 else 1) * _lcm_denominators((*row, bi)) for row, bi in zip(a, b)]
        self.t = [[*_scaled(row, si), *(int(k == i) for k in range(m)), int(si * bi)]
                  for i, (row, bi, si) in enumerate(zip(a, b, self.s))]
        self.basis, self.d = list(range(n, n + m)), 1
        y = self._run([0] * n + [-1] * m)
        self.farkas = None
        if any(j >= n and self.t[i][-1] for i, j in enumerate(self.basis)):  # an artificial stays positive
            self.farkas = y
            return
        for i in range(m):  # drive degenerate artificials out where a real column can enter
            if self.basis[i] >= n and (j := next((j for j in range(n) if self.t[i][j]), None)) is not None:
                self._pivot(i, j)

    def maximize(self, c):
        """max c . x, as (x, y): an optimal vertex x and row multipliers y with
        y . a_j >= c_j for every column j and y . b = c . x; or (None, farkas)
        when the system is empty.  An unbounded program raises ValueError.

        Each call starts from the post-phase-1 tableau, never from an earlier
        optimum, so on ties the vertex does not depend on the calls before.
        """
        if self.farkas is not None:
            return None, self.farkas
        # pivots replace rows, never edit them, so the copy may share the row lists
        phase2 = copy.copy(self)
        phase2.t, phase2.basis = self.t[:], self.basis[:]
        y = phase2._run([*c, *[0] * self.m])
        x = {j: Fraction(phase2.t[i][-1], phase2.d) for i, j in enumerate(phase2.basis)}
        return [x.get(j, Fraction(0)) for j in range(self.n)], y

    def _pivot(self, i, j):
        p, pivot_row, d = self.t[i][j], self.t[i], self.d
        sign = 1 if p > 0 else -1
        self.t = [[sign * (p * v - row[j] * w) // d for v, w in zip(row, pivot_row)] for row in self.t]
        self.t[i], self.d, self.basis[i] = [sign * w for w in pivot_row], abs(p), j

    def _leaving_row(self, j):
        """Bland's ratio test on column j: the least t_i,rhs / t_ij over t_ij > 0,
        ties to the smallest basis index, compared by cross-multiplying."""
        t, basis = self.t, self.basis
        rows = (i for i in range(self.m) if t[i][j] > 0)
        best = next(rows, None)
        for i in rows:
            lhs, rhs = t[i][-1] * t[best][j], t[best][-1] * t[i][j]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best = i
        return best

    def _run(self, cost):
        """Optimize cost . x from the current basis; the row multipliers."""
        n, basis = self.n, self.basis
        # objective row: reduced costs, then -value, all times scale * d
        scale = _lcm_denominators(cost)
        ic = _scaled(cost, scale)
        z = [self.d * cj - sum(ic[bi] * row[j] for bi, row in zip(basis, self.t))
             for j, cj in enumerate(ic + [0])]
        self.t.append(z)
        while (j := next((j for j in range(n) if self.t[-1][j] > 0), None)) is not None:
            i = self._leaving_row(j)
            if i is None:
                raise ValueError("unbounded linear program")
            self._pivot(i, j)
        z = self.t.pop()
        return [si * (cost[n + k] - Fraction(z[n + k], scale * self.d)) for k, si in enumerate(self.s)]


def _lcm_denominators(values) -> int:
    return math.lcm(*(v.denominator for v in values))


def _scaled(values, scale: int) -> list[int]:
    return [v.numerator * (scale // v.denominator) for v in values]


class ZeroSumPolytope:
    """The zero-sum polytope P of the slopes, after one phase 1.

    Row 0 is sum lam = 1 and row 1 + k is -sum lam_i m_ik = 0, so the row
    multipliers of every solve are (value, xi).  Each method reads the
    phase-1 result or runs phase 2 on a copy of its feasible tableau.

    Examples:
        >>> P = ZeroSumPolytope([(-2,), (1,), (4,)])
        >>> P.minimize_max_affine([-1, -1, 0])
        (Fraction(-2, 3), (Fraction(-1, 6),))
        >>> P.face_of_zero(), P.separating_direction()
        ([0, 1, 2], None)
    """

    def __init__(self, slopes):
        rank = len(slopes[0]) if slopes else 0
        a = [[1] * len(slopes), *([-m[k] for m in slopes] for k in range(rank))]
        self._program = _Simplex(a, [1] + [0] * rank)

    def minimize_max_affine(self, offsets):
        """min over xi of max_i (slopes[i] . xi + offsets[i]), exactly.

        Returns (value, argmin) as Fractions, or (None, None) when unbounded
        below.
        """
        x, y = self._program.maximize(offsets)
        return (None, None) if x is None else (y[0], tuple(y[1:]))

    def separating_direction(self):
        """A direction xi with m_i . xi > 0 for every slope, or None when 0 is in their hull.

        Phase 1 decides.  When P is empty its Farkas vector y has y_0 < 0
        and y_0 - m_i . y[1:] >= 0, so xi = -y[1:] gives
        m_i . xi >= -y_0 > 0 (Hilbert-Mumford).
        """
        y = self._program.farkas
        return None if y is None else tuple(-v for v in y[1:])

    def face_of_zero(self) -> list[int]:
        """Indices i with lam_i > 0 for some lam in P, ascending.

        These are the slopes on the face of their hull whose relative
        interior contains 0 (none when 0 is outside the hull).  Each phase 2
        maximizes the mass outside the union of the supports found so far
        and adds its support, until that mass is 0: at most |face| + 1
        phase-2 solves.
        """
        face: set[int] = set()
        while True:
            x, _ = self._program.maximize([int(i not in face) for i in range(self._program.n)])
            support = {i for i, v in enumerate(x or ()) if v > 0}
            if support <= face:
                return sorted(face)
            face |= support


def minimize_max_affine(slopes: list[tuple[Fraction, ...]], offsets: list[Fraction]):
    """:meth:`ZeroSumPolytope.minimize_max_affine` of one cost vector."""
    return ZeroSumPolytope(slopes).minimize_max_affine(offsets)


def separating_direction(slopes: list[tuple[Fraction, ...]]):
    """:meth:`ZeroSumPolytope.separating_direction`: phase 1 alone."""
    return ZeroSumPolytope(slopes).separating_direction()


def face_of_zero(slopes: list[tuple[Fraction, ...]]) -> list[int]:
    """:meth:`ZeroSumPolytope.face_of_zero` of the slopes."""
    return ZeroSumPolytope(slopes).face_of_zero()


def feasible(rows: list[Row], nvars: int) -> bool:
    """Is {x : coeffs . x <= rhs for all rows (coeffs, rhs)} nonempty?

    Farkas: it is empty iff some convex combination of the rows has zero
    coefficients and a negative right-hand side, that is iff
    min over xi of max_i (coeffs_i . xi - rhs_i) > 0.  ``nvars`` is the
    length of every coeffs.
    """
    value, _ = ZeroSumPolytope([c for c, _ in rows]).minimize_max_affine([-r for _, r in rows])
    return value is None or value <= 0
