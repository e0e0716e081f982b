"""Explicit slope bounds, antisymmetrization maps, and convex minima.

The minimal height of a nonzero invariant-defined class admits an explicit
lower bound in terms of the slopes of the factor lattices:

    h_min >= - sum_i b_i mu_i - sum_{rank_i >= 3} (|b_i| / 2) ell(rank_i),

with ell(n) = log(n!) / n <= log(n), asymptotically log(n) - 1, and
equality when every twisting exponent b_i vanishes.

The correction term comes from the norms of the antisymmetrization maps
eps_w on a rank-w space.  For w = 2 the map E tensor E -> End(E) tensor det
is an isometric isomorphism (operator norm 1); for w > 2 the map
t -> sum_R sum_gamma sign(gamma) t_R x_R tensor x_gamma^dual tensor det
has operator norm exactly sqrt(w!), which `epsilon_norm_check` checks in
integers: no two columns share a row, so the Gram matrix is diagonal, with
w! on the diagonal for w > 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .heights import twist_shift
from .places import LogValue, RationalLike, _is_int, as_fraction

CONVEX_LEMMA_VARIANTS = ("log3", "log_sqrt3")
_EXACT_FACTORIAL_MAX = 170  # the largest n whose n! is a double
_GRID_TOL = 1e-10  # golden-section bracket width: 55 steps from [-10, 10]


def ell(n: int) -> float:
    """log(n!) / n, the per-rank archimedean defect.

    Up to 170, where n! is a double, the exact factorial and one float log,
    so ell(2) is bit-identical to 0.5 * log(2); beyond it lgamma(n + 1) / n,
    since the exact n! grows to about n log10(n) digits.

    Examples:
        >>> ell(2) == 0.5 * math.log(2)
        True
        >>> abs(ell(10000) - (math.log(10000) - 1)) < 0.01  # Stirling
        True
    """
    if not _is_int(n) or n < 1:
        raise InputError(f"ell needs a positive integer, got {n!r}")
    if n <= _EXACT_FACTORIAL_MAX:
        return math.log(math.factorial(n)) / n
    return math.lgamma(n + 1) / n


def _require_finite(name: str, value) -> None:
    """Refuse a number or LogValue whose double is infinite or nan."""
    try:
        ok = math.isfinite(value.to_float() if isinstance(value, LogValue) else float(value))
    except (OverflowError, ValueError):  # float(10**400), fsum([inf, -inf])
        ok = False
    if not ok:
        raise InputError(f"{name} is not finite as a double")


def explicit_lower_bound(
    multipliers: Sequence[RationalLike],
    slopes: Sequence[LogValue],
    ranks: Sequence[int],
) -> LogValue:
    """Lower bound for the minimal height after twisting.

    multipliers are the twisting exponents b_i, slopes the factor slopes
    mu_i (exact LogValues), ranks the factor ranks.  The bound is an
    equality when all multipliers vanish.  A multiplier, slope or bound
    whose double is not finite raises InputError.

    Examples:
        >>> explicit_lower_bound([0], [LogValue({2: 1})], [2]).is_exact_zero
        True
        >>> slopes = [LogValue({2: 1}), LogValue.from_arch(0.25)]
        >>> explicit_lower_bound([0, 0], slopes, [2, 3]).is_exact_zero
        True

        A lattice of rank r with Gram determinant D has the exact slope
        -(1/2r) log D; Z^2 with Gram matrix diag(2, 2) has D = 4 and r = 2:

        >>> from githeight.places import exact_log_abs_arch
        >>> explicit_lower_bound([1], [exact_log_abs_arch(4).scaled("-1/4")], [2])
        LogValue(finite={2: 1/2}, arch=0.0)
    """
    if not (len(multipliers) == len(slopes) == len(ranks)):
        raise InputError("multipliers, slopes and ranks must align")
    bs = [as_fraction(b) for b in multipliers]
    penalty = 0.0
    for i, (b, mu, r) in enumerate(zip(bs, slopes, ranks)):
        if not _is_int(r) or r < 1:
            raise InputError(f"rank must be a positive integer, got {r!r}")
        _require_finite(f"multiplier {i}", b)
        _require_finite(f"slope {i}", mu)
        if r >= 3 and b != 0:
            penalty += abs(float(b)) / 2.0 * ell(r)
    try:
        total = twist_shift(LogValue.zero(), bs, slopes) + LogValue.from_arch(-penalty)
    except InputError:  # LogValue refuses an arch part past the double range
        raise InputError("the bound is not finite as a double") from None
    _require_finite("the bound", total)
    return total


# ---------------------------------------------------------------------------
# antisymmetrization maps
# ---------------------------------------------------------------------------

class EpsilonMap(NamedTuple):
    """A +-1 matrix stored by columns: column c has the entry signs[c, j]
    in row rows[c, j], and every other entry of it is 0."""

    shape: tuple[int, int]
    rows: np.ndarray
    signs: np.ndarray


def epsilon_map(w: int) -> EpsilonMap:
    """The antisymmetrization map on a rank-w space, by its nonzero entries.

    w = 2: the 4 x 4 isometric isomorphism E tensor E -> End(E) tensor det,
    whose inverse sends phi tensor (e1 wedge e2) to
    phi(e1) tensor e2 - phi(e2) tensor e1.

    w = 3, 4: the (w^2w) x (w^w) map sending the basis tensor x_R to
    sum_gamma sign(gamma) x_R tensor x_gamma^dual (tensor the volume form);
    rows are indexed by pairs (R, gamma-image) packed base w, so each
    column has w! entries.

    Examples:
        >>> eps = epsilon_map(2)
        >>> eps.rows.ravel().tolist(), eps.signs.ravel().tolist()
        ([1, 0, 3, 2], [-1, 1, -1, 1])
        >>> eps = epsilon_map(3)
        >>> eps.shape, eps.rows.shape
        ((729, 27), (27, 6))
    """
    if not isinstance(w, int) or not 2 <= w <= 4:
        raise InputError(f"implemented for sizes 2 to 4, got {w!r}")
    if w == 2:
        rows = np.array([[1], [0], [3], [2]])
        signs = np.array([[-1], [1], [-1], [1]], dtype=np.int8)
        return EpsilonMap((4, 4), rows, signs)
    size = w ** w
    perms = np.array(list(itertools.permutations(range(w))))
    # a permutation's sign is -1 to the number of its inversions
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    rows = np.arange(size)[:, None] * size + np.ravel_multi_index(perms.T, (w,) * w)
    signs = np.tile((-1) ** inversions, (size, 1)).astype(np.int8)
    return EpsilonMap((size * size, size), rows, signs)


@dataclass(frozen=True)
class EpsilonNormResult:
    size: int
    norm: float
    bound: float
    ok: bool


def epsilon_norm_check(w: int) -> EpsilonNormResult:
    """The operator norm of epsilon_map(w) against the bound sqrt(w!), exactly.

    When no two entries of the map share a row, the Gram matrix is diagonal
    with the columns' sums of squares on it, so the norm is the square root
    of the largest one.  ok holds when the rows are pairwise distinct and
    that largest sum is at most w!, both decided in integers; norm reports
    the largest column norm, a lower bound when rows are shared.  At w = 2
    the map is an isometry, norm exactly 1; at w = 3, 4 the bound is met.

    Examples:
        >>> epsilon_norm_check(2).norm, epsilon_norm_check(4).norm == math.sqrt(24)
        (1.0, True)
        >>> [epsilon_norm_check(w).ok for w in (2, 3, 4)]
        [True, True, True]
    """
    eps = epsilon_map(w)
    disjoint = len(np.unique(eps.rows)) == eps.rows.size
    largest = int(np.square(eps.signs, dtype=np.int64).sum(axis=1).max())
    bound = math.factorial(w)
    return EpsilonNormResult(
        w, math.sqrt(largest), math.sqrt(bound), disjoint and largest <= bound
    )


# ---------------------------------------------------------------------------
# one-variable convex minima
# ---------------------------------------------------------------------------

def _lemma_profile(variant: str):
    if variant == "log3":
        return lambda x: 2.0 * max(x, -2.0 * x) + 0.5 * math.log(
            4.0 * math.exp(-4.0 * x) + 4.0 * math.exp(2.0 * x) + math.exp(8.0 * x)
        )
    if variant == "log_sqrt3":
        return lambda x: max(0.0, -x) + 0.5 * math.log(2.0 + math.exp(2.0 * x))
    raise InputError(f"variant must be one of {CONVEX_LEMMA_VARIANTS}, got {variant!r}")


def _golden_section(f, a: float, b: float) -> tuple[float, float]:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GRID_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def convex_lemma_min(variant: str) -> float:
    """Global minimum of a named one-variable convex height profile.

    Both profiles take their minimum at 0: value log(3) for "log3" and
    log(sqrt(3)) for "log_sqrt3".

    Examples:
        >>> abs(convex_lemma_min("log3") - math.log(3)) <= 1e-8
        True
        >>> abs(convex_lemma_min("log_sqrt3") - 0.5 * math.log(3)) <= 1e-8
        True
    """
    return _golden_section(_lemma_profile(variant), -10.0, 10.0)[1]


def convex_lemma_argmin(variant: str) -> float:
    """Location of the minimum (0 for both shipped profiles).

    Examples:
        >>> abs(convex_lemma_argmin("log3")) <= 1e-6, abs(convex_lemma_argmin("log_sqrt3")) <= 1e-6
        (True, True)
    """
    return _golden_section(_lemma_profile(variant), -10.0, 10.0)[0]
