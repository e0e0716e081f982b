import gc
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from githeight import conjugation
from githeight.conjugation import (
    MatrixQ,
    charpoly_of,
    fundamental_formula_residual_conj,
    instability_all_conj,
    instability_conj,
    is_minimal_arch,
    is_minimal_nonarch,
    is_semistable_conj,
    naive_matrix_height,
    quotient_height_conj,
)
from githeight.errors import InputError, NilpotentError
from githeight.exactpoly import charpoly, complex_roots, log_root_norm, newton_polygon
from githeight.heights import ProjectivePointQ
from githeight.places import ARCHIMEDEAN, LogValue, Place, _log_sum_squares, valuation, valuation_table
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
    with pytest.raises(InputError, match="matrix must be square and nonempty"):
        MatrixQ.from_lists([[1, 2, 3], [4, 5, 6]])
    m = MatrixQ.from_lists([["1/2", 1], [0, "3"]])
    assert m.rows[0][0] == Fraction(1, 2)
    assert MatrixQ.from_lists([[str(x) for x in row] for row in m.rows]) == m


@pytest.mark.parametrize("rows", [[1, 2], (1, 2), [[1, 2], 3], ["12", "34"], 5, None])
@pytest.mark.parametrize("build", [MatrixQ.from_lists, MatrixQ, charpoly], ids=["from_lists", "MatrixQ", "charpoly"])
def test_matrix_rows_that_are_not_lists_are_refused(build, rows):
    # every constructor reads one row check, so none ends in a TypeError
    with pytest.raises(InputError, match="array of rows"):
        build(rows)


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


def test_charpoly_roots_and_polygons_structure():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n)
        if all(x == 0 for x in m.entries):
            continue
        f = charpoly_of(m)
        assert f.degree == n
        assert len(complex_roots(f)) == n
        _, zeros = f.shift_out_zero_roots()
        for p in valuation_table(f.coeffs):
            polygon = newton_polygon(f, p)
            assert polygon.zero_root_multiplicity == zeros
            assert zeros + sum(length for _, length in polygon.segments) == n


def test_height_finite_parts_match_newton_polygon():
    # at every prime of a charpoly coefficient the finite part is the charpoly's
    # own steepest slope, zero roots counted in, also where the record builds no polygon
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
    zero_counts, checked = set(), 0
    for m in matrices:
        if m.is_zero:
            continue
        f = charpoly_of(m)
        _, zeros = f.shift_out_zero_roots()
        if zeros == m.n:
            with pytest.raises(NilpotentError):
                quotient_height_conj(m)
            continue
        zero_counts.add(zeros > 0)
        h = quotient_height_conj(m)
        primes = set(valuation_table(f.coeffs))
        assert set(h.finite) <= primes
        for p in primes:
            assert h.finite.get(p, 0) == -newton_polygon(f, p).min_root_valuation, (m, p)
            checked += 1
    assert zero_counts == {False, True} and checked >= 100


def test_instability_examples():
    v = instability_conj(DIAG23, Place.finite(2))
    assert v.is_exact_zero
    va = instability_conj(UNIPOTENT, ARCHIMEDEAN)
    assert abs(va.to_float() - (0.5 * math.log(2) - 0.5 * math.log(3))) < 1e-9
    for place in (ARCHIMEDEAN, Place.finite(2), Place.finite(7)):
        assert instability_conj(NILPOTENT, place).neg_inf
    with pytest.raises(InputError, match="the zero matrix has no projective class"):
        instability_conj(MatrixQ.from_lists([[0, 0], [0, 0]]), ARCHIMEDEAN)


def test_instability_arch_of_a_normal_diagonal():
    # diag(2,3) is normal, so it already attains the Frobenius infimum of its orbit
    v = instability_conj(DIAG23, ARCHIMEDEAN)
    assert abs(v.to_float()) < 1e-12


def test_conjugation_heights_are_projective_invariants():
    # [c phi] = [phi]: the quotient height and the term at oo cannot see c,
    # even where c phi's eigenvalues lie within 1e-6 of each other or of 0
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(2, 5)
        diagonal = rng.sample(range(-9, 10), n)
        phi = MatrixQ.from_lists([[diagonal[i] if i == j else rng.randint(-9, 9) if j > i else 0
                                   for j in range(n)] for i in range(n)])
        want = [quotient_height_conj(phi).to_float(), instability_conj(phi, ARCHIMEDEAN).to_float()]
        for c in (Fraction(1, 10**12), Fraction(1, 10**7), 10**7, 10**30):
            scaled = phi.scaled(c)
            got = [quotient_height_conj(scaled).to_float(), instability_conj(scaled, ARCHIMEDEAN).to_float()]
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, (phi.rows, c)


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


def _moment_map(m):
    """[phi, phi^T] as a float array; the moment map of a real phi is proportional to it."""
    a = np.array(m.rows, dtype=float)
    return a @ a.T - a.T @ a


def test_moment_map_examples():
    # the defect is |[phi, phi^T]|_F / |phi|_F^2, zero exactly on normal matrices
    for rows, normal in [([[1, 2], [2, 1]], True), ([[0, -1], [1, 0]], True), ([[2, 0], [0, 3]], True),
                         ([[1, 1], [0, 1]], False), ([[1, 2], [0, 3]], False),
                         ([[1, 2, 0], [0, 1, 2], [2, 0, 1]], True), ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], False)]:
        m = MatrixQ.from_lists(rows)
        mu = _moment_map(m)
        report = is_minimal_arch(m)
        assert report.minimal == normal == (not mu.any())
        a = np.array(rows, dtype=float)
        assert math.isclose(report.defect, np.linalg.norm(mu) / (a * a).sum(), rel_tol=1e-12)
    assert (_moment_map(UNIPOTENT) == [[1, 0], [0, -1]]).all()


def test_moment_map_of_entries_beyond_the_double_range():
    # the defect is homogeneous of degree 0, and the commutator is taken in exact rationals
    for big in ("1e400", "1e-400"):
        scaled = MatrixQ.from_lists([[big, big], [0, big]])
        report = is_minimal_arch(scaled)
        assert not report.minimal
        assert math.isclose(report.defect, is_minimal_arch(UNIPOTENT).defect, rel_tol=1e-12)
    tiny = MatrixQ.from_lists([["1e-400", 0], [0, "1e-400"]])  # normal, and not the zero matrix
    assert is_minimal_arch(tiny).minimal and is_minimal_arch(tiny).defect == 0.0
    with pytest.raises(InputError, match="the zero matrix has no projective class"):
        is_minimal_arch(MatrixQ.from_lists([[0, 0], [0, 0]]))


def test_minimality_at_oo_is_invariant_under_rational_rotations():
    # minimal points of an orbit form one orbit of the compact group (Kempf-Ness)
    r2 = MatrixQ.from_lists([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    r3 = MatrixQ.from_lists([[0, Fraction(3, 5), Fraction(-4, 5)], [0, Fraction(4, 5), Fraction(3, 5)], [1, 0, 0]])
    rng = random.Random(89)
    for k in range(30):
        n, r = (2, r2) if k % 2 else (3, r3)
        if k % 3 == 0:  # symmetric, hence normal
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        else:
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        m = MatrixQ.from_lists(rows)
        if m.is_zero:
            continue
        assert r.mul(r.transpose()) == MatrixQ.identity(n)
        before, after = is_minimal_arch(m), is_minimal_arch(r.mul(m).mul(r.transpose()))
        assert before.minimal == after.minimal
        assert math.isclose(before.defect, after.defect, rel_tol=1e-12)


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
        # the moment map of a real matrix is proportional to [m, m^T]; small integers multiply exactly
        a = np.array(m.rows, dtype=float)
        assert is_minimal_arch(m).minimal == (not (a @ a.T - a.T @ a).any())


def _minimal_nonarch_by_reduction(phi, p):
    """(flag, witness) of minimality at p the direct way: scale phi so its
    smallest entry valuation is 0, reduce mod p and run Berkowitz on the reduction."""
    vmin = min(valuation(x, p) for x in phi.entries if x)
    scaled = phi.scaled(Fraction(p) ** -vmin)
    cp = charpoly([[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in scaled.rows])
    mod_coeffs = [int(c) % p for c in cp.coeffs]
    return any(mod_coeffs[:-1]), "charpoly of reduction mod {}: [{}]".format(p, ", ".join(map(str, mod_coeffs)))


def test_minimality_at_p_matches_the_reduction_mod_p():
    # the record's charpoly, scaled and reduced coefficient by coefficient, against
    # the charpoly of the reduced matrix: same flag and same witness
    rng = random.Random(61)
    pairs = flags = 0
    for k in range(560):
        n = rng.randint(1, 5)
        p = rng.choice((2, 3, 5, 7))
        scale = Fraction(p) ** rng.randint(-3, 3)
        rows = [[scale * Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5, 7, 9]))
                 for _ in range(n)] for _ in range(n)]
        if k % 5 == 0:  # strictly upper triangular: nilpotent
            rows = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
        elif k % 5 == 1:  # p times a unimodular shear of a nilpotent: nilpotent mod p, not over Q
            rows = [[x * p if i != j else 1 + p * rng.randint(-2, 2) for j, x in enumerate(row)]
                    for i, row in enumerate(rows)]
            rows = [[x - int(i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
        m = MatrixQ.from_lists(rows)
        if m.is_zero:
            continue
        for q in (2, 3, 5, 7):
            report = is_minimal_nonarch(m, q)
            assert (report.minimal, report.witness) == _minimal_nonarch_by_reduction(m, q), (m, q)
            assert report.place == Place.finite(q) and report.defect == (0.0 if report.minimal else 1.0)
            pairs += 1
            flags += report.minimal
    assert pairs >= 2000 and 300 <= pairs - flags <= pairs - 300


def _minimal_arch_by_products(phi):
    """(flag, |[phi, phi^T]|_F / |phi|_F^2) from the commutator built as Fraction matrix products."""
    t = phi.transpose()
    entries = [a - b for r1, r2 in zip(phi.mul(t).rows, t.mul(phi).rows) for a, b in zip(r1, r2)]
    if not any(entries):
        return True, 0.0
    return False, math.exp(0.5 * _log_sum_squares(entries) - _log_sum_squares(phi.entries))


def test_minimality_at_oo_matches_the_fraction_commutator():
    # the record's integer commutator of d phi gives the same float, bit for bit; the
    # last fixed matrix is not normal, though its defect underflows to 0.0
    rng = random.Random(67)
    matrices = [MatrixQ.from_lists([[big, big], [0, big]]) for big in ("1e400", "1e-400")]
    matrices += [MatrixQ.from_lists([["1e-400", 0], [0, "1e-400"]]), MatrixQ.from_lists([["1e400", 1], [0, "1e-400"]])]
    for k in range(300):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(n)] for _ in range(n)]
        if k % 3 == 0:  # symmetric, hence normal
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        m = MatrixQ.from_lists(rows)
        if not m.is_zero:
            matrices += [m, m.scaled(Fraction(10) ** rng.choice((-400, 400)))]
    normal = 0
    for m in matrices:
        report = is_minimal_arch(m)
        assert (report.minimal, report.defect) == _minimal_arch_by_products(m), m
        normal += report.minimal
    assert 100 <= normal <= len(matrices) - 100


@pytest.mark.parametrize("call", [
    charpoly_of, is_semistable_conj, naive_matrix_height, quotient_height_conj, instability_all_conj,
    fundamental_formula_residual_conj, is_minimal_arch,
    lambda m: is_minimal_nonarch(m, 2),
    lambda m: instability_conj(m, ARCHIMEDEAN),
    lambda m: instability_conj(m, Place.finite(2)),
], ids=["charpoly", "semistable", "naive", "height", "all", "residual", "minimal_oo", "minimal_p", "oo", "p"])
def test_zero_matrix_is_refused_by_every_entry_point(call):
    with pytest.raises(InputError, match="^the zero matrix has no projective class$"):
        call(MatrixQ.from_lists([[0, 0], [0, 0]]))


def _diagonal(*entries):
    return MatrixQ.from_lists([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])


def test_term_at_oo_of_a_normal_matrix_is_exact():
    # Schur: sum |lambda|^2 <= |phi|_F^2, equal iff phi is normal, so a normal
    # matrix's term at oo is 0 exactly and the residual has nothing to round
    normal = [_diagonal(10**200, 1), _diagonal(2, 2, 2, 5, 5), MatrixQ.from_lists([[0, -1], [1, 0]]),
              MatrixQ.from_lists([[1, 2], [2, 1]])] + [MatrixQ.identity(n) for n in range(2, 13)]
    for m in normal:
        assert instability_conj(m, ARCHIMEDEAN) == LogValue.zero(), m
        assert instability_all_conj(m)[ARCHIMEDEAN].arch == 0.0
        assert fundamental_formula_residual_conj(m) == 0.0
    for n in range(2, 13):
        assert quotient_height_conj(MatrixQ.identity(n)) == LogValue.from_arch(0.5 * math.log(n))


def test_term_at_oo_of_a_non_normal_matrix_reads_the_roots():
    # a Jordan block J_3(1) and seeded non-normal matrices keep the root value, also
    # the nearly normal one whose roots read 4e-15 above the Frobenius value
    rng = random.Random(71)
    matrices = [MatrixQ.from_lists([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), MatrixQ.from_lists([[2, "1e-20"], [0, 3]])]
    matrices += [random_matrix(rng, rng.randint(2, 4)) for _ in range(40)]
    for m in matrices:
        if not is_semistable_conj(m) or is_minimal_arch(m).minimal:
            continue
        roots = log_root_norm(complex_roots(charpoly_of(m)))
        assert instability_conj(m, ARCHIMEDEAN).arch == roots - 0.5 * _log_sum_squares(m.entries)
        assert quotient_height_conj(m).arch == roots


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


def test_orbit_sampling_bound(orbit_bound):
    # identity is central: every sample sees the same height
    eye = MatrixQ.from_lists([[1, 0], [0, 1]])
    v = orbit_bound(eye, samples=20, seed=1)
    assert abs(v.to_float() - 0.5 * math.log(2)) < 1e-12
    bound = orbit_bound(UNIPOTENT, samples=100, seed=0)
    assert bound.to_float() >= 0.5 * math.log(2) - 1e-9
    assert bound.to_float() >= 0.5 * math.log(3) - 1e-9  # equality at g = id
    d = orbit_bound(DIAG23, samples=50, seed=2)
    assert d.to_float() >= 0.5 * math.log(13) - 1e-9


def test_orbit_bound_stays_above_the_quotient_height(orbit_bound):
    rng = random.Random(211)
    for k in range(12):
        n = 2 + k % 2
        phi = MatrixQ.from_lists([[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                                  for _ in range(n)])
        if phi.is_zero or not is_semistable_conj(phi):
            continue
        bound = orbit_bound(phi, samples=15, seed=k)
        assert bound.to_float() <= naive_matrix_height(phi).to_float()  # sample 0 is phi
        assert bound.to_float() >= quotient_height_conj(phi).to_float() - 1e-9


def test_orbit_bound_of_a_one_by_one_matrix(orbit_bound, time_limit):
    # SL_1 is trivial; drawing a shear with i != j from one index never ends
    five = MatrixQ.from_lists([[5]])
    with time_limit(5):
        bound = orbit_bound(five, samples=2, seed=0)
    assert bound == naive_matrix_height(five)
    assert bound.close_to(quotient_height_conj(five), 1e-12)


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
    entries and the charpoly, a prime outside them, and oo."""
    primes = set(valuation_table(phi.entries))
    reduced, _ = charpoly_of(phi).shift_out_zero_roots()
    if reduced.degree > 0:
        primes |= set(valuation_table(reduced.coeffs))
    primes.add(next(p for p in (2, 3, 5, 7, 11, 13) if p not in primes))
    calls = {
        "charpoly": lambda: charpoly_of(phi),
        "naive": lambda: naive_matrix_height(phi),
        "minimal oo": lambda: is_minimal_arch(phi),
        "semistable": lambda: is_semistable_conj(phi),
        "height": lambda: quotient_height_conj(phi),
        "residual": lambda: fundamental_formula_residual_conj(phi),
        "all": lambda: instability_all_conj(phi),
        "oo": lambda: instability_conj(phi, ARCHIMEDEAN),
    }
    calls.update({p: lambda p=p: instability_conj(phi, Place.finite(p)) for p in primes})
    calls.update({("minimal", p): lambda p=p: is_minimal_nonarch(phi, p) for p in primes})
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
