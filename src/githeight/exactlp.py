"""Exact rational linear programming: a two-phase simplex with Bland's rule.

Every program lives on the zero-sum polytope of slopes m_i,
P = {lam >= 0 : sum_i lam_i = 1, sum_i lam_i m_i = 0}, nonempty iff 0 lies in
their hull (Hilbert-Mumford).  By LP duality min over xi of
max_i (m_i . xi + c_i) = max over lam in P of sum_i lam_i c_i, the left side
unbounded below exactly when P is empty.  ``_Simplex`` solves the right side
exactly by integer pivoting with Bland's smallest-index rule (Bland 1977),
which cannot cycle.  Phase 1 depends only on the slopes, so it runs once per
polytope (``ZeroSumPolytope``), on first use, and keeps the feasible
tableau it reaches; each cost vector then runs phase 2 on a copy of that
tableau, so no method changes the polytope and one polytope may be shared.
The minimizer xi is the row multipliers of the optimal basis, so ties
resolve to that basis, not to the lexicographically smallest minimizer.
When P is empty the phase-1 Farkas vector separates the slopes
from 0 instead, which is the destabilizing direction.  The face of zero (the slopes some lam in P
charges) is one more solve on a copy of the same tableau, with one column
appended that shifts every candidate lam_j by a common s; its dual rules
out the slopes off the face, so a full face costs one solve, and the
polytope stores the face it finds.
"""

from __future__ import annotations

import copy
import functools
import math
from fractions import Fraction

Row = tuple[tuple[Fraction, ...], Fraction]


class _Simplex:
    """a x = b, x >= 0 over the rationals, after phase 1.

    ``farkas`` is None when the system is feasible; the tableau then holds a
    feasible basis with every degenerate artificial that a real column can
    replace driven out, and ``maximize`` and ``maximize_shift`` run phase 2
    on a copy of it.  Otherwise ``farkas`` is a Farkas vector y:
    y . a_j >= 0 and y . b < 0.
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
        """max c . x on a feasible system, as (tableau, y): the optimal
        tableau, whose basic column basis[i] takes t[i][-1] / d, and row
        multipliers y with y . a_j >= c_j for every column j and
        y . b = c . x.  An unbounded program raises ValueError.

        Each call starts from the post-phase-1 tableau, never from an earlier
        optimum, so on ties the vertex does not depend on the calls before.
        """
        # pivots replace rows, never edit them, so the copy may share the row lists
        phase2 = copy.copy(self)
        phase2.t, phase2.basis = self.t[:], self.basis[:]
        return phase2, phase2._run([*c, *[0] * self.m])

    def maximize_shift(self, columns):
        """max s such that some feasible x has x_j >= s on ``columns``; the
        system must be feasible, and an unbounded s raises ValueError.

        Phase 2 on a copy of the post-phase-1 tableau with one column s
        appended, the sum of the tableau columns in ``columns``, so that
        x_j = mu_j + s there with mu >= 0.  Only ``columns`` (ascending) and s
        may enter.  Returns (s, x, y, drop): an optimal x (None when s = 0,
        where only the dual is wanted), row multipliers y with y . a_j >= 0
        on ``columns``, y . (sum of those a_j) >= 1 and y . b = s, and the
        columns whose final reduced cost is negative, that is y . a_j > 0.
        """
        k = self.n + self.m  # the appended column, just before the right-hand side
        shift = copy.copy(self)
        shift.t = [[*row[:-1], sum(row[j] for j in columns), row[-1]] for row in self.t]
        shift.basis = self.basis[:]
        y = shift._run([0] * k + [1], [*columns, k])
        mu = {j: shift.t[i][-1] for i, j in enumerate(shift.basis)}  # times d
        s, on = mu.get(k, 0), set(columns)
        x = [Fraction(mu.get(j, 0) + s * (j in on), shift.d) for j in range(self.n)] if s else None
        return Fraction(s, shift.d), x, y, [j for j in columns if shift.reduced[j] < 0]

    def _pivot(self, i, j):
        t, d, pivot_row = self.t, self.d, self.t[i]
        if pivot_row[j] < 0:
            pivot_row = [-w for w in pivot_row]
        p = pivot_row[j]
        # each updated row is a new list in t, so a row list shared with a copy never changes
        for k, row in enumerate(t):
            if k == i:
                t[k] = pivot_row
            elif r := row[j]:
                t[k] = [(p * v - r * w) // d for v, w in zip(row, pivot_row)]
            elif p != d:  # entries are minors, so p v / d is exact
                t[k] = [p * v // d for v in row]
        self.d, self.basis[i] = p, j

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

    def _run(self, cost, entering=None):
        """Optimize cost . x from the current basis; the row multipliers.

        Only the ``entering`` columns, ascending, may enter the basis (every
        real column by default).  The final objective row stays in
        ``reduced``: each column's reduced cost c_j - y . a_j times a
        positive scale.
        """
        n, basis = self.n, self.basis
        entering = range(n) if entering is None else entering
        # objective row: reduced costs, then -value, all times scale * d
        scale = _lcm_denominators(cost)
        ic = _scaled(cost, scale)
        z = [self.d * cj for cj in ic + [0]]
        for bi, row in zip(basis, self.t):
            if ic[bi]:
                z = [zj - ic[bi] * v for zj, v in zip(z, row)]
        self.t.append(z)
        while (j := next((j for j in entering if self.t[-1][j] > 0), None)) is not None:
            i = self._leaving_row(j)
            if i is None:
                raise ValueError("unbounded linear program")
            self._pivot(i, j)
        self.reduced = z = self.t.pop()
        # y_k = s_k (cost_(n+k) - z_(n+k) / (scale d)), one exact division each
        return [Fraction(si * (ic[n + k] * self.d - z[n + k]), scale * self.d) for k, si in enumerate(self.s)]


def _lcm_denominators(values) -> int:
    return math.lcm(*(v.denominator for v in values))


def _scaled(values, scale: int) -> list[int]:
    return [v.numerator * (scale // v.denominator) for v in values]


class ZeroSumPolytope:
    """The zero-sum polytope P of the slopes, with one phase 1.

    Row 0 is sum lam = 1 and row 1 + k is -sum lam_i m_ik = 0, so the row
    multipliers of every solve are (value, xi).  Each method reads the
    phase-1 result, run on first use, or runs phase 2 on a copy of its
    feasible tableau; the face of zero is solved once and stored.  No
    method changes the tableau, so one polytope may be shared.

    Examples:
        >>> P = ZeroSumPolytope([(-2,), (1,), (4,)])
        >>> P.minimize_max_affine([-1, -1, 0])
        (Fraction(-2, 3), (Fraction(-1, 6),))
        >>> P.face_of_zero(), P.separating_direction()
        ([0, 1, 2], None)
    """

    def __init__(self, slopes):
        self.slopes = slopes

    @functools.cached_property
    def _program(self) -> _Simplex:
        rank = len(self.slopes[0]) if self.slopes else 0
        a = [[1] * len(self.slopes), *([-m[k] for m in self.slopes] for k in range(rank))]
        return _Simplex(a, [1] + [0] * rank)

    @property
    def is_empty(self) -> bool:
        """Phase 1's verdict: P is empty, that is 0 is outside the hull of the slopes."""
        return self._program.farkas is not None

    def minimize_max_affine(self, offsets):
        """min over xi of max_i (slopes[i] . xi + offsets[i]), exactly.

        Returns (value, argmin) as Fractions, or (None, None) when unbounded
        below.
        """
        if self.is_empty:
            return None, None
        _, y = self._program.maximize(offsets)  # only the dual is read
        return y[0], tuple(y[1:])

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
        interior contains 0 (none when 0 is outside the hull).  One exact
        elimination (Freund, Roundy and Todd 1985): start from every index
        as the candidate set J and maximize s over lam in P with lam_j >= s
        on J.  If s > 0, J is the face.  If s = 0, the optimal dual is a xi
        with <m_j, xi> >= 0 on J summing to at least 1; since
        sum lam_j <m_j, xi> = 0 on P, every j with <m_j, xi> > 0 is off the
        face (Goldman-Tucker), so drop those and solve again.  One solve for a
        full face, at most (number of indices off the face) + 1 in all, none
        when P is empty.  The elimination runs on the first call only; each
        later call returns a copy of the stored face.

        The certificates stay on the polytope: ``_interior`` is the exact
        lam in P that is positive on the face, and ``_eliminated`` holds each
        round's (xi, dropped indices).
        """
        return list(self._face)

    @functools.cached_property
    def _face(self) -> tuple[int, ...]:
        self._interior, self._eliminated = None, []
        if self.is_empty:
            return ()
        face = list(range(self._program.n))
        while True:
            s, lam, y, drop = self._program.maximize_shift(face)
            if s > 0:
                self._interior = tuple(lam)
                return tuple(face)
            self._eliminated.append((tuple(-v for v in y[1:]), tuple(drop)))
            face = [j for j in face if j not in drop]


def minimize_max_affine(slopes: list[tuple[Fraction, ...]], offsets: list[Fraction]):
    """:meth:`ZeroSumPolytope.minimize_max_affine` of one cost vector."""
    return ZeroSumPolytope(slopes).minimize_max_affine(offsets)


def feasible(rows: list[Row], nvars: int) -> bool:
    """Is {x : coeffs . x <= rhs for all rows (coeffs, rhs)} nonempty?

    Farkas: it is empty iff some convex combination of the rows has zero
    coefficients and a negative right-hand side, that is iff
    min over xi of max_i (coeffs_i . xi - rhs_i) > 0.  ``nvars`` is the
    length of every coeffs.
    """
    value, _ = ZeroSumPolytope([c for c, _ in rows]).minimize_max_affine([-r for _, r in rows])
    return value is None or value <= 0
