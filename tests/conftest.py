import contextlib
import random
import signal
from fractions import Fraction

import pytest

from githeight.conjugation import MatrixQ, naive_matrix_height
from githeight.exactpoly import PolyQ


class CallTimeout(BaseException):
    """Raised by SIGALRM in a call that ran past its limit; a BaseException,
    so no ``except Exception`` in the package swallows it."""


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` fails the test once the block runs longer."""

    @contextlib.contextmanager
    def limit(seconds):
        def on_alarm(signum, frame):
            raise CallTimeout(f"call ran past {seconds} s")

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    return limit


def mul(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """The product a b of two n x n matrices."""
    cols = list(zip(*b.rows))
    return MatrixQ(tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.rows))


def transpose(a: MatrixQ) -> MatrixQ:
    return MatrixQ(tuple(zip(*a.rows)))


def scaled(a: MatrixQ, c) -> MatrixQ:
    """c a, c an int or a Fraction."""
    return MatrixQ(tuple(tuple(c * x for x in row) for row in a.rows))


def _orbit_bound_by_products(phi, samples, seed):
    """Minimum naive height over sampled SL_n(Q) conjugates of phi.

    Sample 0 is phi itself, and the only sample when n == 1, as SL_1 is
    trivial; each later one conjugates by the dense product
    g of 1 to 4 seeded elementary shears I + c E_ij with small rational c,
    and by the reversed product g^-1 of the negated shears.  The result can
    never drop below the quotient height.
    """
    rng = random.Random(seed)
    n = phi.n
    best = naive_matrix_height(phi)
    if n == 1:
        return best
    for _ in range(samples - 1):
        g = ginv = MatrixQ.identity(n)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            shear_rows = [[Fraction(int(r == s)) for s in range(n)] for r in range(n)]
            shear_rows[i][j] = c
            g = mul(g, MatrixQ.from_lists(shear_rows))
            shear_rows[i][j] = -c
            ginv = mul(MatrixQ.from_lists(shear_rows), ginv)
        h = naive_matrix_height(mul(mul(g, phi), ginv))
        if h.to_float() < best.to_float():
            best = h
    return best


@pytest.fixture
def orbit_bound():
    """``orbit_bound(phi, samples, seed)``: the sampled upper bound on the
    least naive height in phi's conjugation orbit, an oracle for the
    quotient height."""
    return _orbit_bound_by_products


def _from_roots(roots, lead=1):
    """lead * prod (T - r) expanded exactly over Q."""
    out = [Fraction(lead)]
    for r in roots:
        r = Fraction(r)
        out = [Fraction(0)] + out
        for i in range(len(out) - 1):
            out[i] -= r * out[i + 1]
    return PolyQ(out)


@pytest.fixture
def from_roots():
    """``from_roots(roots, lead=1)``: the PolyQ lead * prod (T - r) for
    rational roots r, an oracle for root valuations and root solves."""
    return _from_roots
