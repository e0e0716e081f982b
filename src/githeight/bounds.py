"""Explicit slope bounds, antisymmetrization maps, and invariant checks.

The minimal height of a nonzero invariant-defined class admits an explicit
lower bound in terms of the slopes of the factor lattices:

    h_min >= - sum_i b_i mu_i - sum_{rank_i >= 3} (|b_i| / 2) ell(rank_i),

with ell(n) = log(n!) / n <= log(n), asymptotically log(n) - 1, and
equality when every twisting exponent b_i vanishes.

The correction term comes from the norms of the antisymmetrization maps
eps_w on a rank-w space.  For w = 2 the map E tensor E -> End(E) tensor det
is an isometric isomorphism (operator norm 1); for w > 2 the map
t -> sum_R sum_gamma sign(gamma) t_R x_R tensor x_gamma^dual tensor det
has operator norm exactly sqrt(w!), which `epsilon_norm_check` certifies
numerically against that bound.

Invariants of products of conjugation actions are spanned by tensor
products of slot-permutation operators; `perm_invariant_check` verifies
their equivariance and trace pairing in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionTooLargeError,
    InputError,
    LengthMismatchError,
    NonPositiveError,
    UnsupportedSizeError,
)
from .places import LogValue, RationalLike, _is_int, as_fraction

MAX_TENSOR_DIM = 4096
CONVEX_LEMMA_VARIANTS = ("log3", "log_sqrt3")
# power iteration: the relative change of the Rayleigh quotient, and a step cap
_POWER_TOL = 1e-10
_POWER_MAX_ITERS = 500
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
        raise NonPositiveError(f"ell needs a positive integer, got {n!r}")
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
        >>> slopes = [LogValue({2: Fraction(1)}), LogValue.from_arch(0.25)]
        >>> explicit_lower_bound([0, 0], slopes, [2, 3]).is_exact_zero
        True
    """
    if not (len(multipliers) == len(slopes) == len(ranks)):
        raise LengthMismatchError("multipliers, slopes and ranks must align")
    bs = [as_fraction(b) for b in multipliers]
    penalty = 0.0
    for i, (b, mu, r) in enumerate(zip(bs, slopes, ranks)):
        if not _is_int(r) or r < 1:
            raise NonPositiveError(f"rank must be a positive integer, got {r!r}")
        _require_finite(f"multiplier {i}", b)
        _require_finite(f"slope {i}", mu)
        if r >= 3 and b != 0:
            penalty += abs(float(b)) / 2.0 * ell(r)
    try:
        total = LogValue.zero()
        for b, mu in zip(bs, slopes):
            total = total - mu.scaled(b)
        total = total + LogValue.from_arch(-penalty)
    except InputError:  # LogValue refuses an arch part past the double range
        raise InputError("the bound is not finite as a double") from None
    _require_finite("the bound", total)
    return total


# ---------------------------------------------------------------------------
# antisymmetrization maps
# ---------------------------------------------------------------------------

def epsilon_map(w: int) -> sp.csr_matrix:
    """Matrix of the antisymmetrization map on a rank-w space.

    w = 2: the 4 x 4 isometric isomorphism E tensor E -> End(E) tensor det,
    whose inverse sends phi tensor (e1 wedge e2) to
    phi(e1) tensor e2 - phi(e2) tensor e1.

    w = 3, 4: the (w^2w) x (w^w) map sending the basis tensor x_R to
    sum_gamma sign(gamma) x_R tensor x_gamma^dual (tensor the volume form);
    rows are indexed by pairs (R, gamma-image) packed base w.

    Examples:
        >>> epsilon_map(3).shape
        (729, 27)
        >>> eps = epsilon_map(2).toarray().astype(int)
        >>> inv = np.zeros((4, 4), dtype=int)
        >>> inv[1, 0], inv[0, 1], inv[3, 2], inv[2, 3] = 1, -1, 1, -1
        >>> bool((eps @ inv == np.eye(4, dtype=int)).all() and (inv @ eps == np.eye(4, dtype=int)).all())
        True
    """
    if not isinstance(w, int) or not 2 <= w <= 4:
        raise UnsupportedSizeError(f"implemented for sizes 2 to 4, got {w!r}")
    if w == 2:
        rows = [0, 1, 2, 3]
        cols = [1, 0, 3, 2]
        vals = [1, -1, 1, -1]
        return sp.csr_matrix((vals, (rows, cols)), shape=(4, 4), dtype=np.int8)
    size = w ** w
    perms = np.array(list(itertools.permutations(range(w))))
    # a permutation's sign is -1 to the number of its inversions
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    cols = np.repeat(np.arange(size), len(perms))
    rows = cols * size + np.tile(np.ravel_multi_index(perms.T, (w,) * w), size)
    vals = np.tile((-1) ** inversions, size)
    return sp.csr_matrix((vals, (rows, cols)), shape=(size * size, size), dtype=np.int8)


@dataclass(frozen=True)
class EpsilonNormResult:
    size: int
    norm: float
    bound: float
    ok: bool
    iterations: int


def epsilon_norm_check(w: int) -> EpsilonNormResult:
    """Power iteration on the Gram matrix certifies the operator norm bound.

    The bound is sqrt(w!); the check passes when the computed norm is at
    most bound + 1e-8.  At w = 2 the map is an isometry, norm exactly 1.

    Examples:
        >>> abs(epsilon_norm_check(2).norm - 1.0) <= 1e-8
        True
        >>> [epsilon_norm_check(w).ok for w in (2, 3, 4)]
        [True, True, True]
    """
    m = epsilon_map(w).astype(np.float64)
    gram = np.asarray((m.T @ m).todense())
    v = np.ones(gram.shape[0]) / math.sqrt(gram.shape[0])
    lam_prev = 0.0
    # the Gram matrix is a positive multiple of the identity, so u is never zero
    for iterations in range(1, _POWER_MAX_ITERS + 1):
        u = gram @ v
        lam = float(v @ u)
        v = u / float(np.linalg.norm(u))
        if abs(lam - lam_prev) <= _POWER_TOL * max(1.0, abs(lam)):
            break
        lam_prev = lam
    norm = math.sqrt(max(lam, 0.0))
    bound = math.sqrt(math.factorial(w))
    return EpsilonNormResult(w, norm, bound, norm <= bound + 1e-8, iterations)


# ---------------------------------------------------------------------------
# permutation invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermSpec:
    """Slot permutations of a product of tensor powers.

    Factor i is some space raised to the arities[i]-th tensor power and
    perms[i] permutes its slots (one-line notation, 0-based).  Underlying
    dimensions are supplied where an operator is actually built, so one
    spec serves every dimension vector.

    Examples:
        >>> PermSpec((3,), ((1, 2, 0),)).arities
        (3,)
    """

    arities: tuple[int, ...]
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        arities, perms = tuple(self.arities), tuple(tuple(p) for p in self.perms)
        if len(arities) != len(perms):
            raise LengthMismatchError("arities and perms must align")
        if not arities:
            raise InputError("need at least one tensor factor")
        for a, p in zip(arities, perms):
            if not _is_int(a) or a < 1:
                raise NonPositiveError(f"arities must be positive integers, got {a!r}")
            # the length first, so a huge arity builds no range to compare with
            if len(p) != a or not all(_is_int(s) for s in p) or sorted(p) != list(range(a)):
                raise InputError(f"{p} is not a permutation of 0..{a - 1}")
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "perms", perms)

    def dim(self, dims: Sequence[int]) -> int:
        if len(dims) != len(self.arities):
            raise LengthMismatchError("one dimension per tensor factor")
        if not all(_is_int(d) and d >= 1 for d in dims):
            raise NonPositiveError(f"dimensions must be positive integers, got {dims!r}")
        out = math.prod(d ** a for d, a in zip(dims, self.arities))
        if out > MAX_TENSOR_DIM:
            raise DimensionTooLargeError(
                f"tensor dimension {out} exceeds {MAX_TENSOR_DIM}"
            )
        return out


def permutation_operator(spec: PermSpec, dims: Sequence[int]) -> np.ndarray:
    """Dense 0/1 matrix of the tensor-product permutation operator.

    Basis tensors are indexed by their slot digits packed in mixed radix,
    factor 0 first and slot 0 most significant within each factor.  The
    operator sends e_t to e_u, where slot s of factor i moves to slot
    perms[i][s]: u[perms[i][s]] = t[s].
    """
    full_map = _full_index_map(spec, dims)
    op = np.zeros((full_map.size, full_map.size), dtype=np.int8)
    op[full_map, np.arange(full_map.size)] = 1
    return op


def _random_sl(n: int, rng: random.Random) -> list[list[Fraction]]:
    g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if n == 1:
        return g
    for _ in range(rng.randint(2, 3)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        # g <- g . (I + c E_ij): adds c * column i to column j
        for r in range(n):
            g[r][j] += c * g[r][i]
    return g


def perm_invariant_check(
    spec: PermSpec, dims: Sequence[int], trials: int = 4, seed: int = 0
) -> bool:
    """Exact equivariance and trace-pairing checks for slot permutations.

    Per trial: draw one SL(dims[i], Q) element per factor as a product of
    elementary shears and verify, factor by factor and entry by entry in
    exact rational arithmetic, that g^(tensor arity) commutes with the slot
    permutation (hence the full tensor operator is conjugation-invariant,
    Kronecker factors commute).  Then verify two trace identities computed
    by independent routes: the pairing of the operator against a random
    sparse rational matrix equals the trace of the composition with the
    inverse operator, and the trace of the composition with a second random
    slot permutation equals the product of dims^cycles closed form.
    """
    dim = spec.dim(dims)
    if not _is_int(trials) or trials < 1:
        raise NonPositiveError(f"trials must be a positive integer, got {trials!r}")
    rng = random.Random(seed)
    for _ in range(trials):
        for d, a, p in zip(dims, spec.arities, spec.perms):
            g = _random_sl(d, rng)
            size = d ** a
            mp = _full_index_map(PermSpec((a,), (p,)), (d,))
            mp, inv_mp = mp.tolist(), np.argsort(mp).tolist()
            tuples = list(itertools.product(range(d), repeat=a))

            def kron_entry(u: int, t: int) -> Fraction:
                acc = Fraction(1)
                for us, ts in zip(tuples[u], tuples[t]):
                    acc *= g[us][ts]
                    if acc == 0:
                        break
                return acc

            for u in range(size):
                for t in range(size):
                    if kron_entry(u, mp[t]) != kron_entry(inv_mp[u], t):
                        return False
        # trace pairing on a random sparse rational matrix, two routes
        full_map = _full_index_map(spec, dims)
        full_map, inv_full = full_map.tolist(), np.argsort(full_map).tolist()
        phi = {}
        for _ in range(min(64, dim * dim)):
            phi[(rng.randrange(dim), rng.randrange(dim))] = Fraction(
                rng.randint(-5, 5), rng.randint(1, 4)
            )
        pairing = sum(
            (v for (u, t), v in phi.items() if u == full_map[t]), Fraction(0)
        )
        trace = sum(
            (phi.get((t, inv_full[t]), Fraction(0)) for t in range(dim)), Fraction(0)
        )
        if pairing != trace:
            return False
        # composite trace against a second permutation vs cycle count
        other = tuple(
            tuple(rng.sample(range(a), a)) for a in spec.arities
        )
        other_map = _full_index_map(PermSpec(spec.arities, other), dims).tolist()
        computed = sum(1 for t in range(dim) if other_map[inv_full[t]] == t)
        closed = 1
        for d, a, p, q in zip(dims, spec.arities, spec.perms, other):
            composite = [q[s] for s in np.argsort(p)]
            seen = [False] * a
            cycles = 0
            for s in range(a):
                if not seen[s]:
                    cycles += 1
                    while not seen[s]:
                        seen[s] = True
                        s = composite[s]
            closed *= d ** cycles
        if computed != closed:
            return False
    return True


def _full_index_map(spec: PermSpec, dims: Sequence[int]) -> np.ndarray:
    """Row index of the image of each basis column (see permutation_operator):
    one axis transpose of the packed index array."""
    dim = spec.dim(dims)
    shape, axes = [], []
    for d, a, p in zip(dims, spec.arities, spec.perms):
        axes += [len(shape) + s for s in p]
        shape += [d] * a
    return np.arange(dim).reshape(shape).transpose(axes).ravel()


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
