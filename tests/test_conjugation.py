import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from githeight import conjugation
from githeight.conjugation import (
    MatrixQ,
    charpoly_of,
    eigen_data,
    fundamental_formula_residual_conj,
    instability_all_conj,
    instability_conj,
    is_minimal_arch,
    is_minimal_nonarch,
    is_semistable_conj,
    moment_map_conj,
    naive_matrix_height,
    orbit_sampling_bound,
    quotient_height_conj,
    skew_hermitian_basis,
)
from githeight.errors import (
    InputError,
    NilpotentError,
    NonSquareError,
    NotSkewHermitianError,
    ZeroMatrixError,
)
from githeight.exactpoly import newton_polygon
from githeight.heights import ProjectivePointQ
from githeight.places import ARCHIMEDEAN, LogValue, Place, valuation_table
from githeight.torus import TorusAction, instability_all, is_semistable, quotient_height

UNIPOTENT = MatrixQ.from_lists([[1, 1], [0, 1]])
NILPOTENT = MatrixQ.from_lists([[0, 1], [0, 0]])
DIAG23 = MatrixQ.from_lists([[2, 0], [0, 3]])


def random_matrix(rng, n, lo=-5, hi=5):
    return MatrixQ.from_lists(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def random_sl(rng, n):
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        for r in range(n):
            rows[r][j] += c * rows[r][i]
    return MatrixQ.from_lists(rows)


def test_matrix_type():
    assert UNIPOTENT.n == 2
    with pytest.raises(NonSquareError):
        MatrixQ.from_lists([[1, 2, 3], [4, 5, 6]])
    m = MatrixQ.from_json([["1/2", 1], [0, "3"]])
    assert m.rows[0][0] == Fraction(1, 2)
    assert MatrixQ.from_json(m.to_json()) == m


@pytest.mark.parametrize("rows", [[1, 2], [[1, 2], 3], ["12", "34"], 5, None])
def test_matrix_rows_that_are_not_lists_are_refused(rows):
    with pytest.raises(InputError):
        MatrixQ.from_json(rows)
    with pytest.raises(InputError):
        MatrixQ.from_lists(rows)


def test_semistable_examples():
    assert is_semistable_conj(UNIPOTENT)
    assert not is_semistable_conj(NILPOTENT)
    assert is_semistable_conj(MatrixQ.from_lists([[0, 0, 0], [0, 0, 0], [0, 0, 1]]))


def test_quotient_height_examples():
    h = quotient_height_conj(UNIPOTENT)
    assert not h.finite
    assert abs(h.to_float() - 0.5 * math.log(2)) < 1e-10
    h23 = quotient_height_conj(DIAG23)
    assert not h23.finite
    assert abs(h23.to_float() - 0.5 * math.log(13)) < 1e-9
    eye = MatrixQ.from_lists([[1, 0], [0, 1]])
    assert abs(quotient_height_conj(eye).to_float() - 0.5 * math.log(2)) < 1e-10
    with pytest.raises(NilpotentError):
        quotient_height_conj(NILPOTENT)


def test_quotient_height_diagonal_formula():
    # diag(4, 1/6): finite parts from max |lambda|_p, arch from sqrt(sum)
    m = MatrixQ.from_lists([[4, 0], [0, Fraction(1, 6)]])
    h = quotient_height_conj(m)
    # |4|_2 = 1/4 vs |1/6|_2 = 2 -> max 2; |1/6|_3 = 3
    assert dict(h.finite) == {2: Fraction(1), 3: Fraction(1)}
    assert abs(h.arch - 0.5 * math.log(16 + Fraction(1, 36))) < 1e-9


def test_eigen_data_structure():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n)
        if all(x == 0 for x in m.entries):
            continue
        data = eigen_data(m)
        assert data.charpoly.degree == n
        assert data.arch_roots.total == n
        for p, polygon in data.polygons:
            assert data.zero_multiplicity + sum(
                length for _, length in polygon.segments
            ) == n


def test_eigen_data_polygons_match_newton_polygon():
    # each polygon is the charpoly's own, zero roots counted in, and every
    # prime of a charpoly coefficient left out carries smallest root valuation 0
    rng = random.Random(53)
    matrices = [
        MatrixQ.from_lists([[0, 0, 0], [0, 2, 1], [0, 0, 6]]),
        MatrixQ.from_lists([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),  # nilpotent
        MatrixQ.from_lists([[0, Fraction(1, 2)], [0, 0]]),  # nilpotent, d = 2
        MatrixQ.from_lists([[Fraction(1, 2)]]),  # a root of valuation -1 at 2 only; g = 1
        MatrixQ.from_lists([[12]]),  # d = 1
        MatrixQ.from_lists([[Fraction(-9, 25)]]),
    ]
    for _ in range(30):
        rows = [list(row) for row in random_matrix(rng, rng.randint(2, 4), -6, 6).rows]
        if rng.random() < 0.5:  # a zero row: at least one zero eigenvalue
            rows[rng.randrange(len(rows))] = [0] * len(rows)
        matrices.append(MatrixQ.from_lists(rows))
    for _ in range(30):
        n = rng.randint(1, 4)
        matrices.append(MatrixQ.from_lists(
            [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 9, 25])) for _ in range(n)]
             for _ in range(n)]))
    zero_counts = set()
    for m in matrices:
        if m.is_zero:
            continue
        data = eigen_data(m)
        zero_counts.add(data.zero_multiplicity > 0)
        for p, polygon in data.polygons:
            assert polygon == newton_polygon(data.charpoly, p)
        if data.zero_multiplicity == m.n:
            assert data.polygons == ()
            continue
        # the old route: every prime of a coefficient of the nonzero-root part
        built = {p for p, _ in data.polygons}
        reduced, _ = data.charpoly.shift_out_zero_roots()
        for p in valuation_table(reduced.coeffs):
            assert p in built or newton_polygon(data.charpoly, p).min_root_valuation == 0
    assert zero_counts == {False, True}


def test_instability_examples():
    v = instability_conj(DIAG23, Place.finite(2), norm="sup")
    assert v.is_exact_zero
    va = instability_conj(UNIPOTENT, ARCHIMEDEAN, norm="frobenius")
    assert abs(va.to_float() - (0.5 * math.log(2) - 0.5 * math.log(3))) < 1e-9
    for place in (ARCHIMEDEAN, Place.finite(2), Place.finite(7)):
        assert instability_conj(NILPOTENT, place).neg_inf
    with pytest.raises(InputError):
        instability_conj(DIAG23, ARCHIMEDEAN, norm="operator")
    with pytest.raises(ZeroMatrixError):
        instability_conj(MatrixQ.from_lists([[0, 0], [0, 0]]), ARCHIMEDEAN)


def test_instability_arch_sup_norm_diagonal():
    # largest |eigenvalue| equals the largest singular value for diag(2,3)
    v = instability_conj(DIAG23, ARCHIMEDEAN, norm="sup")
    assert abs(v.to_float()) < 1e-12


def test_instability_nonpositive_everywhere():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, -4, 4)
        if all(x == 0 for x in m.entries):
            continue
        nilpotent = not is_semistable_conj(m)
        for place in (ARCHIMEDEAN, Place.finite(2), Place.finite(3)):
            v = instability_conj(m, place)
            assert v.neg_inf == nilpotent
            if not v.neg_inf:
                assert v.to_float() <= 1e-9


def test_minimality_arch_examples():
    assert is_minimal_arch(MatrixQ.from_lists([[1, 0], [0, 2]])).minimal
    assert not is_minimal_arch(UNIPOTENT).minimal
    assert is_minimal_arch(MatrixQ.from_lists([[0, -1], [1, 0]])).minimal
    report = is_minimal_arch(UNIPOTENT)
    assert str(report.place) == "oo"
    assert report.defect > 0


def test_minimality_nonarch_examples():
    eye = MatrixQ.from_lists([[1, 0], [0, 1]])
    for p in (2, 3, 5):
        assert is_minimal_nonarch(eye, p).minimal
    assert is_minimal_nonarch(UNIPOTENT, 2).minimal
    assert instability_conj(UNIPOTENT, Place.finite(2)).is_exact_zero
    off = MatrixQ.from_lists([[0, 1], [2, 0]])
    assert not is_minimal_nonarch(off, 2).minimal
    v = instability_conj(off, Place.finite(2))
    assert dict(v.finite) == {2: Fraction(-1, 2)}


def test_minimality_nonarch_matches_instability():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 3)
        m = random_matrix(rng, n, -6, 6)
        if all(x == 0 for x in m.entries):
            continue
        for p in (2, 3, 5):
            minimal = is_minimal_nonarch(m, p).minimal
            value = instability_conj(m, Place.finite(p))
            assert minimal == value.is_exact_zero


def test_moment_map_examples():
    normal = MatrixQ.from_lists([[1, 2], [2, 1]])
    for a in skew_hermitian_basis(2):
        assert abs(moment_map_conj(normal, a)) < 1e-12
    a = ((1j, 0), (0, -1j))
    got = moment_map_conj(UNIPOTENT, a)
    assert abs(got - 1 / (3 * math.pi)) < 1e-12  # Tr([A,phi] phi^H) = 2i
    assert moment_map_conj(UNIPOTENT, ((0, 0), (0, 0))) == 0.0
    with pytest.raises(NotSkewHermitianError):
        moment_map_conj(UNIPOTENT, ((1, 0), (0, 1)))
    with pytest.raises(NonSquareError):
        moment_map_conj(UNIPOTENT, ((1j,),))


def test_moment_map_of_entries_beyond_the_double_range():
    # the pairing is homogeneous of degree 0, so the matrix enters scaled by a power of two
    for big in ("1e400", "1e-400"):
        scaled = MatrixQ.from_lists([[big, big], [0, big]])
        for a in skew_hermitian_basis(2):
            assert abs(moment_map_conj(scaled, a) - moment_map_conj(UNIPOTENT, a)) < 1e-15
    tiny = MatrixQ.from_lists([["1e-400", 0], [0, "1e-400"]])  # normal, and not the zero matrix
    assert all(moment_map_conj(tiny, a) == 0.0 for a in skew_hermitian_basis(2))
    with pytest.raises(ZeroMatrixError):
        moment_map_conj(MatrixQ.from_lists([[0, 0], [0, 0]]), skew_hermitian_basis(2)[0])


def test_skew_basis_spans():
    basis = skew_hermitian_basis(3)
    assert len(basis) == 9
    for a in basis:
        for i in range(3):
            for j in range(3):
                assert a[i][j] + a[j][i].conjugate() == 0


def test_minimal_arch_iff_moment_map_vanishes():
    rng = random.Random(47)
    for k in range(40):
        n = rng.randint(2, 3)
        m = random_matrix(rng, n, -3, 3)
        if k % 3 == 0:
            # symmetrize: normal branch needs coverage too
            rows = [
                [m.rows[i][j] + m.rows[j][i] for j in range(n)] for i in range(n)
            ]
            m = MatrixQ.from_lists(rows)
        if all(x == 0 for x in m.entries):
            continue
        worst = max(abs(moment_map_conj(m, a)) for a in skew_hermitian_basis(n))
        assert is_minimal_arch(m).minimal == (worst <= 1e-10)


def test_quotient_height_is_conjugation_invariant():
    rng = random.Random(59)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        m = random_matrix(rng, n)
        if not is_semistable_conj(m):
            continue
        done += 1
        g = random_sl(rng, n)
        conj = g.mul(m).mul(_inverse(g))
        a = quotient_height_conj(m)
        b = quotient_height_conj(conj)
        assert a.finite == b.finite
        assert abs(a.arch - b.arch) < 1e-8


def _inverse(g: MatrixQ) -> MatrixQ:
    n = g.n
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(g.rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return MatrixQ.from_lists([row[n:] for row in aug])


def test_fundamental_formula_residual_examples():
    assert fundamental_formula_residual_conj(UNIPOTENT) < 1e-9
    assert fundamental_formula_residual_conj(DIAG23) < 1e-9
    eye = MatrixQ.from_lists([[1, 0], [0, 1]])
    assert fundamental_formula_residual_conj(eye) < 1e-12
    with pytest.raises(NilpotentError):
        fundamental_formula_residual_conj(NILPOTENT)


def test_naive_matrix_height():
    h = naive_matrix_height(UNIPOTENT)
    assert not h.finite
    assert abs(h.to_float() - 0.5 * math.log(3)) < 1e-12
    hq = naive_matrix_height(MatrixQ.from_lists([[Fraction(1, 2), 0], [0, 1]]))
    assert dict(hq.finite) == {2: Fraction(1)}


def test_orbit_sampling_bound():
    # identity is central: every sample sees the same height
    eye = MatrixQ.from_lists([[1, 0], [0, 1]])
    v = orbit_sampling_bound(eye, samples=20, seed=1)
    assert abs(v.to_float() - 0.5 * math.log(2)) < 1e-12
    bound = orbit_sampling_bound(UNIPOTENT, samples=100, seed=0)
    assert bound.to_float() >= 0.5 * math.log(2) - 1e-9
    assert bound.to_float() >= 0.5 * math.log(3) - 1e-9  # equality at g = id
    d = orbit_sampling_bound(DIAG23, samples=50, seed=2)
    assert d.to_float() >= 0.5 * math.log(13) - 1e-9
    # 0, and a float, str or bool that is no positive integer (2.5 and "3" were a TypeError)
    for samples in (0, 2.5, "3", True):
        with pytest.raises(InputError):
            orbit_sampling_bound(UNIPOTENT, samples=samples, seed=0)


def _orbit_bound_by_products(phi, samples, seed):
    """orbit_sampling_bound's draws, conjugating by the dense product g of
    the shears and the reversed product g^-1 of the negated shears."""
    rng = random.Random(seed)
    n = phi.n
    best = naive_matrix_height(phi)
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
            g = g.mul(MatrixQ.from_lists(shear_rows))
            shear_rows[i][j] = -c
            ginv = MatrixQ.from_lists(shear_rows).mul(ginv)
        h = naive_matrix_height(g.mul(phi).mul(ginv))
        if h.to_float() < best.to_float():
            best = h
    return best


def test_orbit_sampling_bound_matches_shear_products():
    rng = random.Random(211)
    for k in range(12):
        n = 2 + k % 3
        phi = MatrixQ.from_lists([[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                                  for _ in range(n)])
        if phi.is_zero:
            continue
        assert orbit_sampling_bound(phi, samples=15, seed=k) == _orbit_bound_by_products(phi, 15, k)


def test_orbit_sampling_bound_of_a_one_by_one_matrix(time_limit):
    # SL_1 is trivial; drawing a shear with i != j from one index never ended
    with time_limit(5):
        bound = orbit_sampling_bound(MatrixQ.from_lists([[5]]), samples=2)
    assert bound == naive_matrix_height(MatrixQ.from_lists([[5]]))


def test_quotient_height_of_repeated_eigenvalues():
    phi = MatrixQ.from_lists([[2 if i == j < 2 else 3 if i == j else 0 for j in range(5)]
                              for i in range(5)])
    assert abs(quotient_height_conj(phi).arch - 0.5 * math.log(35)) < 1e-8


def _repeated_block_matrix(rng):
    """(matrix, sum of squared eigenvalue moduli): a block diagonal integer
    matrix of repeated eigenvalues, repeated rotation blocks [[a, -b], [b, a]]
    and Jordan blocks, conjugated by unimodular shears I + c E_ij."""
    n = rng.randint(2, 12)
    scalars = rng.sample([-4, -3, -2, -1, 1, 2, 3, 4, 5], rng.randint(2, 3))
    rotations = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    a = [[0] * n for _ in range(n)]
    at, square_sum = 0, 0
    while at < n:
        kind = rng.choice(("scalar", "rotation", "jordan") if n - at >= 2 else ("scalar",))
        if kind == "rotation":
            x, y = rng.choice(rotations)
            a[at][at], a[at][at + 1], a[at + 1][at], a[at + 1][at + 1] = x, -y, y, x
            size, square_sum = 2, square_sum + 2 * (x * x + y * y)
        else:
            e = rng.choice(scalars)
            size = 1 if kind == "scalar" else rng.randint(2, min(3, n - at))
            for i in range(at, at + size):
                a[i][i] = e
                if i + 1 < at + size:
                    a[i][i + 1] = 1
            square_sum += size * e * e
        at += size
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # S A S^-1 with S = I + c E_ij: row i += c row j, then column j -= c column i
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] -= c * row[i]
    return MatrixQ.from_lists(a), square_sum


def test_quotient_height_arch_part_on_repeated_blocks():
    rng = random.Random(10)
    for _ in range(240):
        phi, square_sum = _repeated_block_matrix(rng)
        assert abs(quotient_height_conj(phi).arch - 0.5 * math.log(square_sum)) < 5e-3


def _memo_matrices(rng):
    """Small matrices, some nilpotent and some singular, each next to an
    equal copy or a multiple of itself."""
    out = []
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:  # strictly upper triangular: nilpotent
            rows = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
        if not any(any(row) for row in rows):
            rows[0][-1] = Fraction(1)
        phi = MatrixQ.from_lists(rows)
        out += [phi, MatrixQ.from_lists(rows), phi.scaled(rng.choice([2, Fraction(1, 3)]))]
    return out


def _conj_entry_points(phi):
    """Every public call on one matrix, by name, at each prime of the
    entries and the charpoly, a prime outside them, and both norms at oo."""
    primes = set(valuation_table(phi.entries))
    reduced, _ = charpoly_of(phi).shift_out_zero_roots()
    if reduced.degree > 0:
        primes |= set(valuation_table(reduced.coeffs))
    primes.add(next(p for p in (2, 3, 5, 7, 11, 13) if p not in primes))
    calls = {
        "charpoly": lambda: charpoly_of(phi),
        "eigen": lambda: eigen_data(phi),
        "semistable": lambda: is_semistable_conj(phi),
        "height": lambda: quotient_height_conj(phi),
        "residual": lambda: fundamental_formula_residual_conj(phi),
        "all": lambda: instability_all_conj(phi),
        "all sup": lambda: instability_all_conj(phi, norm="sup"),
        "oo": lambda: instability_conj(phi, ARCHIMEDEAN),
        "oo sup": lambda: instability_conj(phi, ARCHIMEDEAN, norm="sup"),
    }
    calls.update({p: lambda p=p: instability_conj(phi, Place.finite(p)) for p in primes})
    return calls


def _conj_outcome(call):
    try:
        return repr(call())
    except NilpotentError as exc:
        return type(exc), str(exc)


def test_matrix_memo_answers_as_a_cold_one():
    rng = random.Random(29)
    matrices = _memo_matrices(rng)
    calls = [(i, name, call) for i, phi in enumerate(matrices)
             for name, call in _conj_entry_points(phi).items()]
    cold = {}
    for i, name, call in calls:
        conjugation._MATRICES.cache_clear()
        cold[i, name] = _conj_outcome(call)
    assert 10 <= sum(cold[i, "semistable"] == "False" for i in range(len(matrices))) <= 40
    conjugation._MATRICES.cache_clear()
    for i, name, call in calls:
        assert _conj_outcome(call) == cold[i, name]
    rng.shuffle(calls)
    for i, name, call in calls:
        assert _conj_outcome(call) == cold[i, name]


def test_matrix_memo_keys_on_the_exact_entries():
    # [[1, 2], [3, 4]] and [[2, 4], [6, 8]] are one projective class with two charpolys
    phi, twice = MatrixQ.from_lists([[1, 2], [3, 4]]), MatrixQ.from_lists([[2, 4], [6, 8]])
    warm = [(f(phi), f(twice)) for f in (charpoly_of, quotient_height_conj, instability_all_conj)]
    conjugation._MATRICES.cache_clear()
    assert warm[0][0].coeffs == (-2, -5, 1) and warm[0][1].coeffs == (-8, -10, 1)
    for (first, second), f in zip(warm, (charpoly_of, quotient_height_conj, instability_all_conj)):
        conjugation._MATRICES.cache_clear()
        assert f(phi) == first
        conjugation._MATRICES.cache_clear()
        assert f(twice) == second


def test_matrix_memo_is_bounded():
    conjugation._MATRICES.cache_clear()
    records = []
    for k in range(50):
        phi = MatrixQ.from_lists([[k + 1, 1], [0, 2]])
        quotient_height_conj(phi)
        records.append(weakref.ref(conjugation._MATRICES.record))
    gc.collect()
    assert [r() is not None for r in records] == [False] * 49 + [True]
    assert conjugation._MATRICES.key == phi


def _torus_inside_conjugation(rng, kind, n):
    """(matrix, the diagonal torus of GL_n acting on its n^2 entries by
    conjugation): entry (i, j) has weight e_i - e_j, with e_n = 0, so the
    torus has rank n - 1."""
    def entry():
        return Fraction(rng.randint(-9999, 9999), rng.randint(1, 9999))

    if kind == "triangular":
        rows = [[entry() if i <= j else 0 for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:  # lower triangular
            rows = [list(col) for col in zip(*rows)]
    elif kind == "full":
        rows = [[entry() for _ in range(n)] for _ in range(n)]
    else:  # half-sparse
        rows = [[entry() if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
    weights = [tuple(int(i == k) - int(j == k) for k in range(n - 1)) for i in range(n) for j in range(n)]
    return MatrixQ.from_lists(rows), TorusAction(n - 1, weights)


def test_the_diagonal_torus_never_goes_lower_than_conjugation():
    # The quotient height is an orbit infimum at each place (Burnol), so the
    # diagonal torus, a subgroup, gives a measure at least the conjugation
    # one at every place.  On a triangular matrix the torus drives the
    # off-diagonal entries to 0 and both infima are the diagonal: equality.
    # The two engines share no code past places: LP, face of zero and Newton
    # against charpoly, Newton polygons and Aberth.
    rng = random.Random(20)
    checked = {"triangular": 0, "full": 0, "sparse": 0}
    for k in range(300):
        kind, n = ("triangular", "full", "sparse")[k % 3], 2 + k // 3 % 4
        phi, action = _torus_inside_conjugation(rng, kind, n)
        if phi.is_zero:
            continue
        x = ProjectivePointQ(phi.entries)
        if not is_semistable(action, x):
            # 0 lies in the torus orbit closure, hence in the conjugation one
            assert not is_semistable_conj(phi)
            continue
        if not is_semistable_conj(phi):
            continue
        torus = {place: report.value for place, report in instability_all(action, x).items()}
        conj = instability_all_conj(phi)
        for place in torus.keys() | conj.keys():
            t, c = torus.get(place, LogValue.zero()), conj.get(place, LogValue.zero())
            if place.is_archimedean:
                assert t.arch >= c.arch - 1e-9, (phi, place)
                assert kind != "triangular" or abs(t.arch - c.arch) <= 1e-9, (phi, place)
            else:
                assert t.finite_coefficient(place.prime) >= c.finite_coefficient(place.prime), (phi, place)
                assert kind != "triangular" or t == c, (phi, place)
        h_torus, h_conj = quotient_height(action, x).to_float(), quotient_height_conj(phi).to_float()
        assert h_torus >= h_conj - 1e-9 * (1 + abs(h_conj)), phi
        checked[kind] += 1
    assert min(checked.values()) >= 80, checked
