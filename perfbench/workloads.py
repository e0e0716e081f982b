"""Seeded inputs for the perfbench workloads.

Every generator takes a seed and returns a list of :class:`Case` objects
built from plain Python integers and Fractions, so the inputs never depend
on the package under test.  A case records how it was built (which points
were made unstable, which matrices were built from known eigenvalues) so
that the oracles can check it, and lists the operations the workload runs
on it.  The same seed always gives the same cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# (rank, number of weights, largest |weight entry|).  The rank and weight
# counts are the ROADMAP ladder; the entry bound shrinks with the rank so
# that the Fourier-Motzkin LP of the seed commit finishes each rung in tens
# of milliseconds and a run still holds hundreds of operations.
TORUS_LADDER = ((1, 10, 3), (2, 16, 2), (3, 12, 1), (4, 8, 1))
# Rungs in the order the points cycle through them.  Operations on rank-1
# and unstable points and destabilizing 1-PSs take a few milliseconds, the
# others tens of milliseconds.  With rank 1 at one point in seven the cheap
# ones are under 40% of all, so the median latency lies inside the costly
# band; at 45% or more it would sit at the edge of the gap and jump across
# it from seed to seed.
TORUS_CYCLE = (0, 1, 2, 3, 1, 2, 3)

# (matrix size, largest |entry| of a dense random matrix, runs the
# fundamental-formula check).  The formula check at n = 12 takes seconds
# at the seed commit, so only n = 4 and 8 run it.
CONJ_LADDER = ((4, 99, True), (8, 9, True), (12, 9, False))

# Known primes of 9 to 11 digits.  The big-primes workload multiplies
# them into its inputs, so the oracles know every factorization.
BIG_PRIMES = (
    998244353, 999999937, 1000000007, 1000000009, 2147483647,
    4294967291, 9999999967, 10000000019, 99999999977,
)
M31, M61, M89 = (1 << 31) - 1, (1 << 61) - 1, (1 << 89) - 1
# Known products of size 10^18 to 10^19.  Torus coordinates take one each,
# so coordinates stay within a factor 10^3 of each other (wider spreads
# stall the archimedean minimizer; the defects workload shows that).
BIG_PRODUCTS = (
    Fraction(1000000007 * 998244353),
    Fraction(999999937 * 1000000009),
    Fraction(M61),
    Fraction(2147483647 * 4294967291),
    Fraction(M61 * M31, 999999937),
)

UNSTABLE_EVERY = 5  # every fifth torus point is built unstable


@dataclass(frozen=True)
class Case:
    """One input and the operations a workload runs on it.

    ``expect`` is "ok", or "unstable" / "nilpotent" for inputs generated
    that way, on which the quotient height must raise the matching error.
    ``eigenvalues`` is set for matrices built from known eigenvalues.
    """

    label: str
    kind: str  # "torus" or "matrix"
    size: str  # ladder rung, for the input-property shares
    ops: tuple[str, ...]
    expect: str = "ok"
    weights: tuple[tuple[int, ...], ...] = ()
    coords: tuple[Fraction, ...] = ()
    rows: tuple[tuple[Fraction, ...], ...] = ()
    eigenvalues: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# torus points
# ---------------------------------------------------------------------------

def _smooth(rng: random.Random) -> Fraction:
    """A signed rational whose numerator and denominator use only 2, 3, 5, 7."""
    q = Fraction(rng.choice((-1, 1)))
    for p in (2, 3, 5, 7):
        q *= Fraction(p) ** rng.choice((-1, 0, 0, 0, 1, 1, 2))
    return q


def _weights(rng: random.Random, rank: int, count: int, bound: int):
    """Random integer weights, not all zero, whose first two are opposite,
    so that 0 lies in the hull of every subset containing both."""
    while True:
        ws = [tuple(rng.randint(-bound, bound) for _ in range(rank)) for _ in range(count)]
        ws[1] = tuple(-c for c in ws[0])
        if any(any(w) for w in ws):
            return tuple(ws)


def _make_unstable(rng: random.Random, weights, coords):
    """Zero the coordinates whose weights pair non-positively with a random
    direction lam; the remaining weights all pair positively with lam, so
    0 is outside their hull and the point is unstable."""
    rank = len(weights[0])
    while True:
        lam = [rng.choice((-1, 0, 1)) for _ in range(rank)]
        keep = [sum(a * b for a, b in zip(w, lam)) > 0 for w in weights]
        if any(keep):
            return tuple(c if k else Fraction(0) for c, k in zip(coords, keep))


def _torus_case(rng, index, weights, coord_fn, ops, unstable=False):
    rank, count = len(weights[0]), len(weights)
    coords = tuple(coord_fn(rng, i) for i in range(count))
    if unstable:
        coords = _make_unstable(rng, weights, coords)
    return Case(
        label=f"torus r{rank}w{count} #{index}",
        kind="torus",
        size=f"r{rank}w{count}",
        ops=ops,
        expect="unstable" if unstable else "ok",
        weights=weights,
        coords=coords,
    )


def torus_ladder(seed: int, count: int = 800) -> list[Case]:
    """Torus points on the ladder, rungs interleaved in the order of
    ``TORUS_CYCLE``, every fifth point unstable.

    The actions (weights) come from one fixed catalogue, the same for every
    seed: the cost of the seed commit's LP varies tenfold between actions of
    one rung, and a seeded choice of actions would move the run's mean cost
    from seed to seed.  The seed draws the points and the unstable ones.
    """
    catalogue = random.Random("torus-ladder:actions")
    rng = random.Random(f"torus-ladder:{seed}")
    cases = []
    for i in range(count):
        rank, nw, bound = TORUS_LADDER[TORUS_CYCLE[i % len(TORUS_CYCLE)]]
        weights = _weights(catalogue, rank, nw, bound)
        unstable = i % UNSTABLE_EVERY == UNSTABLE_EVERY - 1
        ops = ("qh", "sweep", "destab") if unstable else ("qh", "sweep")
        cases.append(_torus_case(rng, i, weights, lambda r, _: _smooth(r), ops, unstable))
    return cases


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _as_rows(a) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in a)


def _conjugate_by_shears(rng: random.Random, a: list[list[int]], shears: int):
    """U a U^-1 for U a product of elementary shears I +- E_ij (unimodular,
    so the result stays integral and keeps the eigenvalues of a)."""
    n = len(a)
    a = [row[:] for row in a]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # left multiply by I + c E_ij: row_i += c row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        # right multiply by I - c E_ij: col_j -= c col_i
        for row in a:
            row[j] -= c * row[i]
    return a


def _from_eigenvalues(rng, n, eigenvalues, bound):
    """An integral matrix with the given eigenvalues and entries <= bound."""
    while True:
        t = [[0] * n for _ in range(n)]
        for i in range(n):
            t[i][i] = eigenvalues[i]
            for j in range(i + 1, n):
                t[i][j] = rng.choice((-1, 0, 0, 1))
        if all(x == 0 for row in t for x in row):
            continue
        a = _conjugate_by_shears(rng, t, n)
        if max(abs(x) for row in a for x in row) <= bound:
            return a


def conj_ladder(seed: int, count: int = 180, keep=None) -> list[Case]:
    """Matrices of size 4, 8, 12 (interleaved).  Successive triples
    alternate between dense random matrices (``keep`` filters them, see
    run.py) and matrices built from known integer eigenvalues, conjugated
    by seeded unimodular matrices; every sixth triple of the latter kind is
    nilpotent.  These shares put the median latency inside the n = 8
    quotient-height operations rather than at the edge of a cost gap."""
    rng = random.Random(f"conj-ladder:{seed}")
    cases = []
    for i in range(count):
        n, bound, formula = CONJ_LADDER[i % len(CONJ_LADDER)]
        ops = ("qhc", "ffc") if formula else ("qhc",)
        eig = None
        expect = "ok"
        if (i // len(CONJ_LADDER)) % 2 == 0:
            kind = "dense"
            while True:
                a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
                if any(x for row in a for x in row) and (keep is None or keep(_as_rows(a))):
                    break
        else:
            if (i // (2 * len(CONJ_LADDER))) % 6 == 5:
                kind, expect, eig = "nilpotent", "nilpotent", (0,) * n
            else:
                # distinct eigenvalues: repeated ones break complex_roots at
                # the seed commit, which the defects workload shows
                kind = "eig"
                scale = rng.choice((1, 1, 2, 3))
                eig = tuple(scale * e for e in rng.sample(range(-6, 7), n))
            a = _from_eigenvalues(rng, n, eig, 99)
        cases.append(Case(
            label=f"matrix n{n} {kind} #{i}",
            kind="matrix",
            size=f"n{n}",
            ops=ops,
            expect=expect,
            rows=_as_rows(a),
            eigenvalues=eig,
        ))
    return cases


# ---------------------------------------------------------------------------
# big primes
# ---------------------------------------------------------------------------

def _small(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2)


# Kinds of big-primes inputs, cycled: (kind, torus rank or matrix size).
# The shares put the median and the 90th percentile of the latencies inside
# bands of similar cost (rank-2 sweeps and 3x3 sweeps; rank-2 quotient
# heights) rather than at a jump between two kinds.
BIG_CYCLE = (("torus", 1), ("matrix", 2), ("torus", 2), ("matrix", 3), ("torus", 2), ("torus", 2))


def big_primes(seed: int, count: int = 240) -> list[Case]:
    """Rank-1/2 torus points and 2x2/3x3 matrices built from known large
    primes, in the proportions of ``BIG_CYCLE``.

    Torus coordinates are a small smooth factor times one of
    ``BIG_PRODUCTS``.  Matrices are triangular with diagonal P*s_i, for one
    known prime P below 2^32 and distinct small s_i, and known primes or
    products above the diagonal, then conjugated by a permutation: the
    eigenvalues P*s_i are known and the characteristic polynomial factors
    over P and small primes.
    """
    rng = random.Random(f"big-primes:{seed}")
    cases = []
    for i in range(count):
        kind, size = BIG_CYCLE[i % len(BIG_CYCLE)]
        if kind == "torus":

            def coord(r, j, i=i):
                return _small(r) * BIG_PRODUCTS[(i + j) % len(BIG_PRODUCTS)]

            cases.append(_torus_case(rng, i, _weights(rng, size, 3 + size, 2), coord, ("qh", "sweep")))
            continue
        n = size
        big = BIG_PRIMES[(i // len(BIG_CYCLE)) % 6]
        eig = tuple(big * s for s in rng.sample((-6, -4, -3, -2, -1, 1, 2, 3, 5), n))
        t = [[0] * n for _ in range(n)]
        for r in range(n):
            t[r][r] = eig[r]
            for c in range(r + 1, n):
                t[r][c] = _small(rng) * rng.choice(BIG_PRODUCTS + BIG_PRIMES)
        perm = rng.sample(range(n), n)
        a = [[t[perm[r]][perm[c]] for c in range(n)] for r in range(n)]
        cases.append(Case(
            label=f"matrix n{n} big #{i}",
            kind="matrix",
            size=f"n{n}",
            ops=("qhc", "sweepc"),
            rows=_as_rows(a),
            eigenvalues=eig,
        ))
    return cases


# ---------------------------------------------------------------------------
# CLI inputs
# ---------------------------------------------------------------------------

def _small_coord(rng: random.Random, _i: int) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12))


def cli_sweep(seed: int, count: int = 160, keep=None) -> list[Case]:
    """Small rank-1 torus points and 2x2/3x3 matrices (alternating) for the
    command line.  ``keep`` filters the random matrices (see run.py)."""
    rng = random.Random(f"cli-sweep:{seed}")
    ops = ("cli-all", "cli-all-exact", "cli-qh")
    cases = []
    for i in range(count):
        if i % 2 == 0:
            nw = 3 + (i // 2) % 3
            cases.append(_torus_case(
                rng, i, _weights(rng, 1, nw, 3), _small_coord, ops,
                unstable=(i // 2) % UNSTABLE_EVERY == UNSTABLE_EVERY - 1,
            ))
            continue
        n = 2 + (i // 2) % 2
        if (i // 2) % 8 == 7:
            eig = (0,) * n
            a = _from_eigenvalues(rng, n, eig, 9)
            cases.append(Case(f"matrix n{n} nilpotent #{i}", "matrix", f"n{n}", ops,
                              "nilpotent", rows=_as_rows(a), eigenvalues=eig))
            continue
        while True:
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            rows = _as_rows(a)
            if any(any(row) for row in a) and (keep is None or keep(rows)):
                break
        cases.append(Case(f"matrix n{n} dense #{i}", "matrix", f"n{n}", ops, rows=rows))
    return cases


# ---------------------------------------------------------------------------
# known defects
# ---------------------------------------------------------------------------

def defects(seed: int, keep=None) -> list[Case]:
    """Inputs on which the seed commit fails, one case per known defect,
    plus seeded small matrices whose nonzero places include a prime that
    divides only the characteristic polynomial (``keep`` selects those)."""
    rng = random.Random(f"defects:{seed}")
    pair = ((-1,), (1,))
    triple = (-4, 4, 3, 3, 3, 6, 1, 8)
    cases = [
        Case("coordinate (2^61-1)(2^89-1)", "torus", "hostile", ("qh", "sweep"),
             weights=pair, coords=(Fraction(M61 * M89), Fraction(1))),
        Case("matrix [[10^200,0],[0,1]]", "matrix", "hostile", ("qhc", "sweepc"),
             rows=_as_rows([[10 ** 200, 0], [0, 1]]), eigenvalues=(10 ** 200, 1)),
        Case("point 10^200:1", "torus", "hostile", ("qh", "sweep"),
             weights=pair, coords=(Fraction(10 ** 200), Fraction(1))),
        Case("rank-2 point with coordinates 10^27 apart", "torus", "hostile", ("qh",),
             weights=((1, -1), (-1, 1), (0, 1), (0, -1), (1, 2)),
             coords=tuple(Fraction(c) for c in (-2 * M61 * M31, -1000000007, -999999937,
                                                 -2, 18 * 998244353))),
        Case("matrix [[1,1],[1,1]]", "matrix", "hostile", ("cli-all", "cli-all-exact"),
             rows=_as_rows([[1, 1], [1, 1]])),
        Case("point -5:8:-7:-12, weights -3,3,-1,-1", "torus", "hostile",
             ("qh", "cli-qh"), weights=((-3,), (3,), (-1,), (-1,)),
             coords=tuple(Fraction(c) for c in (-5, 8, -7, -12))),
        Case("8x8 matrix with eigenvalue 3 of multiplicity 3", "matrix", "hostile", ("qhc",),
             rows=_as_rows(_from_eigenvalues(rng, 8, triple, 99)), eigenvalues=triple),
    ]
    small = [c for c in cli_sweep(seed, 40, keep=keep) if c.kind == "matrix" and c.expect == "ok"]
    return cases + [
        Case(c.label, c.kind, "hostile", ("cli-all", "cli-all-exact"), rows=c.rows)
        for c in small[:4]
    ]
