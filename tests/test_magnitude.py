import random
from itertools import permutations
from math import factorial, inf

import pytest
from conftest import random_connected
from oracles import dets_at_pivoting, euler_check, zeta_matrix

from maghom import (
    complete_graph,
    cycle_graph,
    from_edges,
    magnitude_rational,
    magnitude_series,
    path_graph,
    star_graph,
)
from maghom import magnitude
from maghom.errors import BudgetExceeded, ValidationError
from maghom.polyq import IntPoly, RatFunc
from maghom.symmetry import equitable_partition


def _det_bareiss(m):
    """Fraction-free determinant over Z[q]; every division is exact."""
    n = len(m)
    if n == 0:
        return IntPoly.one()
    m = [row[:] for row in m]
    sign = 1
    prev = IntPoly.one()
    for r in range(n - 1):
        if not m[r][r]:
            for rr in range(r + 1, n):
                if m[rr][r]:
                    m[r], m[rr] = m[rr], m[r]
                    sign = -sign
                    break
            else:
                return IntPoly.zero()
        piv = m[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                m[i][j] = (piv * m[i][j] - m[i][r] * m[r][j]).exact_div(prev)
            m[i][r] = IntPoly.zero()
        prev = piv
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def _bareiss_dets(g):
    z = zeta_matrix(g)
    one = IntPoly.one()
    bordered = [row + [one] for row in z] + [[one] * g.n + [IntPoly.zero()]]
    return _det_bareiss(z), _det_bareiss(bordered)


RANDOM_GRAPHS = [random_connected(random.Random(seed), 2 + seed % 8) for seed in range(30)]


@pytest.fixture
def oracle_graphs(g1, g2, g3, c4):
    named = [c4, g1, g2, g3, star_graph(3)] + [complete_graph(n) for n in range(1, 6)]
    return named + RANDOM_GRAPHS


def _is_prime_mr(n):
    """Miller-Rabin with the prime bases up to 37: a proof for n < 3.18e23
    (Sorenson and Webster, 2015)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert n < 318_665_857_834_031_151_167_461
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_mersenne_prime(e):
    """Lucas-Lehmer test of 2^e - 1 for an odd prime exponent e."""
    m, s = 2**e - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def test_prime_table_is_proved():
    primes = magnitude._PRIMES
    assert primes[0] == 2**89 - 1 and _is_prime_mr(89) and _is_mersenne_prime(89)
    assert all(p < 2**61 and _is_prime_mr(p) for p in primes[1:])
    assert len(set(primes)) == len(primes)
    # 2^11 - 1 = 23 * 89; 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7
    assert not _is_mersenne_prime(11)
    assert not _is_prime_mr(2**61 - 3) and not _is_prime_mr(3215031751)


def test_modular_dets_equal_bareiss(oracle_graphs):
    for g in oracle_graphs:
        assert magnitude.bordered_dets(g) == _bareiss_dets(g)


def test_modular_dets_with_small_primes(monkeypatch, oracle_graphs):
    """Tiny primes force skipped points, dropped primes and many-prime CRT."""
    calls = []

    def recording(dist, t, p):
        out = real(dist, t, p)
        calls.append((p, out is None))
        return out

    real = magnitude._dets_at
    small = [p for p in range(5, 140) if all(p % d for d in range(2, p))]
    monkeypatch.setattr(magnitude, "_dets_at", recording)
    monkeypatch.setattr(magnitude, "_PRIMES", tuple(small))
    skipped = dropped = 0
    for g in oracle_graphs:
        calls.clear()
        # for n >= 4, 2 n n! > 139 needs several primes, so CRT is exercised
        assert magnitude.bordered_dets(g) == _bareiss_dets(g)
        skipped += sum(none for _, none in calls)
        # a prime with fewer than D + 1 nonzero points is dropped
        dropped += any(p - 1 <= magnitude.det_bounds(g)[0] for p, _ in calls)
    assert skipped and dropped


def test_small_prime_table_exhausted(monkeypatch, g1):
    monkeypatch.setattr(magnitude, "_PRIMES", (5, 7))
    with pytest.raises(ValidationError, match="too large for the prime table"):
        magnitude_rational(g1)


def _assignment_by_subsets(w):
    """Largest sum_i w[i][sigma(i)] over permutations, by dynamic programming
    over the sets of columns taken by the first rows."""
    best = {0: 0}
    for row in w:
        nxt = {}
        for mask, val in best.items():
            for j, x in enumerate(row):
                if not mask >> j & 1 and nxt.get(mask | 1 << j, -inf) < val + x:
                    nxt[mask | 1 << j] = val + x
        best = nxt
    return max(best.values())


def _degree_matrix(g, cells):
    """E_ij = max_{y in C_j} d(x_i, y), x_i the first vertex of C_i."""
    return [[max(g.dist[ci[0]][y] for y in cj) for cj in cells] for ci in cells]


def test_assignment_bound_is_the_largest_permutation_sum():
    rng = random.Random(7)
    for _ in range(300):
        r = rng.randint(1, 7)
        w = [[rng.randint(-3, 9) for _ in range(r)] for _ in range(r)]
        best = max(sum(w[i][s[i]] for i in range(r)) for s in permutations(range(r)))
        assert magnitude._max_assignment(w) == best == _assignment_by_subsets(w)


def test_det_bounds(oracle_graphs):
    for g in oracle_graphs:
        top, bound = magnitude.det_bounds(g)
        discrete = tuple((v,) for v in g.vertices)
        assert top == _assignment_by_subsets(_degree_matrix(g, discrete))
        assert top <= sum(max(g.dist[x][1:]) for x in g.vertices)
        for det in _bareiss_dets(g):
            assert det.degree <= top
            assert max(abs(c) for c in det.coeffs) <= bound
    # det Z(K_n) = (1 - q)^(n-1) (1 + (n-1) q) attains the degree bound n
    for n in range(1, 6):
        g = complete_graph(n)
        assert magnitude.bordered_dets(g)[0].degree == magnitude.det_bounds(g)[0]


def test_interpolation_and_crt_recover_a_polynomial():
    coeffs = [-(10**20), 3, 0, 7, -1]
    p1, p2 = 2**61 - 1, 2**89 - 1
    acc, m = [0] * 5, 1
    for p in (p1, p2):
        xs = [1, 2, 4, 5, 9]
        ys = [sum(c * x**k for k, c in enumerate(coeffs)) % p for x in xs]
        inv = [0] + [pow(d, -1, p) for d in range(1, 9)]
        acc, m = magnitude._crt(acc, m, magnitude._interpolate(xs, ys, p, inv), p), m * p
    assert [c - m if 2 * c > m else c for c in acc] == coeffs


def test_series_matches_rational_on_random_graphs():
    for g in RANDOM_GRAPHS:
        assert magnitude_series(g, 8) == magnitude_rational(g).series(8)


def test_zeta_k2():
    z = zeta_matrix(complete_graph(2))
    assert z == [[IntPoly([1]), IntPoly([0, 1])], [IntPoly([0, 1]), IntPoly([1])]]


def test_zeta_c4(c4):
    z = zeta_matrix(c4)
    for i in range(4):
        degrees = sorted(p.degree for p in z[i])
        assert degrees == [0, 1, 1, 2]  # self, two neighbors, one antipode


def test_zeta_g1(g1):
    z = zeta_matrix(g1)
    squares = {
        (x, y)
        for x in range(6)
        for y in range(6)
        if z[x][y] == IntPoly([0, 0, 1])
    }
    expected = {(1, 3), (1, 4), (1, 6), (2, 4), (3, 5)}
    expected = {(a - 1, b - 1) for a, b in expected}
    assert squares == expected | {(b, a) for a, b in expected}


def test_magnitude_k1():
    r = magnitude_rational(complete_graph(1))
    assert r.num == IntPoly([1]) and r.den == IntPoly([1])


def test_magnitude_k2():
    # hand inversion of [[1, q], [q, 1]] gives entry sum 2/(1+q)
    r = magnitude_rational(complete_graph(2))
    assert r.num == IntPoly([2])
    assert r.den == IntPoly([1, 1])


def test_magnitude_g1_exact(g1):
    r = magnitude_rational(g1)
    assert list(r.num.coeffs) == [-6, -10, 4, 2]
    assert list(r.den.coeffs) == [-1, -5, -6, 0, 1, 1]


def test_series_k1():
    assert magnitude_series(complete_graph(1), 3) == [1, 0, 0, 0]


def test_series_g1(g1):
    assert magnitude_series(g1, 7) == [6, -20, 60, -182, 556, -1702, 5214, -15980]


def test_series_g3_c3(g3):
    # the length-3 coefficient is 2 - 50 from the off-diagonal rank 2
    assert magnitude_series(g3, 3)[3] == -48


def test_series_matches_rational_expansion(g1, g2, g3, c4):
    for g in (g1, g2, g3, c4, complete_graph(4), star_graph(3)):
        rat = magnitude_rational(g)
        assert magnitude_series(g, 6) == rat.series(6)


def test_low_order_coefficients(g1, g2, g3, c4):
    for g in (g1, g2, g3, c4, path_graph(5)):
        series = magnitude_series(g, 1)
        assert series[0] == g.n
        assert series[1] == -2 * g.m


def test_euler_check_trees():
    for g in (star_graph(3), path_graph(4)):
        assert euler_check(g, 3)


def test_euler_check_g2(g2):
    assert euler_check(g2, 4)
    assert magnitude_series(g2, 4) == [5, -12, 22, -38, 66]


def test_euler_check_g3(g3):
    assert euler_check(g3, 4)
    # length 4: ranks 82 (diagonal) and 10 at degree 3 give 82 - 10
    assert magnitude_series(g3, 4)[4] == 72


# Leinster's closed forms (arXiv:1401.4623), compared exactly by
# cross-multiplying numerators and denominators.


def _same(num, den, r):
    """Is num/den equal to the rational function r?"""
    return num * r.den == den * r.num


def _wedge(g, h):
    """g and h glued at vertex 1 of each."""
    shift = {v: 1 if v == 1 else g.n + v - 1 for v in h.vertices}
    return from_edges(list(g.edges) + [(shift[u], shift[v]) for u, v in h.edges])


def _box(g, h):
    """Cartesian product: (u, v) ~ (u', v') when one side agrees, the other adjacent."""
    idx = {(u, v): (u - 1) * h.n + v for u in g.vertices for v in h.vertices}
    edges = [(idx[u, v], idx[w, v]) for u, w in g.edges for v in h.vertices]
    edges += [(idx[u, v], idx[u, w]) for v, w in h.edges for u in g.vertices]
    return from_edges(edges, n=g.n * h.n)


@pytest.mark.parametrize("n", range(3, 31))
def test_leinster_cycle(n):
    # C_n is homogeneous: #G = n / sum_y q^d(x, y)
    g = cycle_graph(n)
    row_sum = sum((IntPoly.monomial(1, g.dist[1][y]) for y in g.vertices), IntPoly.zero())
    assert _same(IntPoly([n]), row_sum, magnitude_rational(g))


def test_leinster_wedge(g1, g2, g3, c4):
    for g, h in ((c4, g1), (g1, g2), (g2, g3), (g3, c4), (g1, g1)):
        a, b = magnitude_rational(g), magnitude_rational(h)
        den = a.den * b.den
        assert _same(a.num * b.den + b.num * a.den - den, den, magnitude_rational(_wedge(g, h)))


def test_leinster_cartesian_product(g1, c4):
    for g, h in ((c4, path_graph(3)), (complete_graph(2), g1)):
        a, b = magnitude_rational(g), magnitude_rational(h)
        assert _same(a.num * b.num, a.den * b.den, magnitude_rational(_box(g, h)))


# The quotient by the coarsest equitable partition (symmetry.py) is the
# route magnitude_rational takes; bordered_dets with no cells is the
# general elimination on Z itself.

PETERSEN = from_edges(
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
)
K33 = from_edges([(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])


def test_quotient_equals_bareiss_oracle(g1, g3):
    for g, cells in ((cycle_graph(9), 1), (PETERSEN, 1), (K33, 1), (g1, 4), (g3, 4)):
        partition = equitable_partition(g)
        assert len(partition) == cells
        det_m, det_b = magnitude.bordered_dets(g, partition)
        det_z, det_bz = _bareiss_dets(g)
        assert RatFunc(-det_b, det_m) == RatFunc(-det_bz, det_z) == magnitude_rational(g)
        top, bound = magnitude.det_bounds(g, partition)
        assert top == _assignment_by_subsets(_degree_matrix(g, partition))
        for det in (det_m, det_b):
            assert det.degree <= top
            assert max(abs(c) for c in det.coeffs) <= bound


def test_quotient_bounds_shrink_to_one_cell():
    g = cycle_graph(25)
    cells = equitable_partition(g)
    # one cell: D = ecc(1) = 12 and C = 1 * 1! * 25
    assert magnitude.det_bounds(g, cells) == (12, 25)
    assert magnitude.det_bounds(g) == (25 * 12, 25 * factorial(25))


def test_general_elimination_on_a_discrete_25_vertex_graph():
    g = random_connected(random.Random(0), 25)
    assert len(equitable_partition(g)) == g.n  # the quotient is Z itself
    # 2C exceeds the first prime, 2^89 - 1, so two primes are combined
    assert 2 * magnitude.det_bounds(g)[1] > magnitude._PRIMES[0]
    assert magnitude_rational(g).series(10) == magnitude_series(g, 10)


def _leading_minor_vanishes(quotient, t, p):
    """Is det M_[k](t) = 0 mod p for a leading k x k block of M, k = 1..r?
    The block is the quotient on the first k cells, whose columns come
    last in each row."""
    dist, sizes = quotient
    for k in range(1, len(sizes) + 1):
        width = sum(sizes[:k])
        if dets_at_pivoting(([row[-width:] for row in dist[:k]], sizes[:k]), t, p) is None:
            return True
    return False


def test_symmetric_elimination_matches_the_pivoting_oracle(g1, g3):
    cases = [(g, None) for g in (g1, g3, RANDOM_GRAPHS[7], RANDOM_GRAPHS[13])]
    cases += [(g, equitable_partition(g)) for g in (g1, g3)]
    only_a_minor = 0
    for g, cells in cases:
        quotient = magnitude._quotient(g, cells)
        assert cells is None or len(set(quotient[1])) > 1  # cells of unequal sizes
        for p in (2**89 - 1, 5, 7, 11, 13):
            for t in range(1, 41):
                got, want = magnitude._dets_at(quotient, t, p), dets_at_pivoting(quotient, t, p)
                if _leading_minor_vanishes(quotient, t, p):
                    assert got is None
                    only_a_minor += want is not None
                else:
                    assert got == want and want is not None
    assert only_a_minor
    # on G1, the leading 5 x 5 minor of Z(2) is 0 mod 5, while det Z(2) = 1
    quotient = magnitude._quotient(g1, None)
    assert magnitude._dets_at(quotient, 2, 5) is None
    assert dets_at_pivoting(quotient, 2, 5) == (1, 3)


@pytest.mark.parametrize("g, cell, primes", [
    (PETERSEN, 10, (5, 7, 11, 13)),
    (K33, 6, (3, 5, 7, 11, 13)),
])
def test_primes_no_larger_than_a_cell_are_passed_over(monkeypatch, g, cell, primes):
    calls = []

    def recording(quotient, t, p):
        calls.append(p)
        return real(quotient, t, p)

    real = magnitude._dets_at
    monkeypatch.setattr(magnitude, "_dets_at", recording)
    monkeypatch.setattr(magnitude, "_PRIMES", primes)
    partition = equitable_partition(g)
    assert [len(c) for c in partition] == [cell]
    det_m, det_b = magnitude.bordered_dets(g, partition)
    det_z, det_bz = _bareiss_dets(g)
    assert RatFunc(-det_b, det_m) == RatFunc(-det_bz, det_z)
    assert calls and min(calls) > cell
    # mod a prime dividing the cell size, S(t) is 0 and every point is skipped
    quotient = magnitude._quotient(g, partition)
    assert all(real(quotient, t, primes[0]) is None for t in range(1, primes[0]))


def test_series_table_is_capped(monkeypatch, g1):
    # n * (order + 1) coefficients are held at once
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "60")
    assert magnitude_series(g1, 9)[:8] == [6, -20, 60, -182, 556, -1702, 5214, -15980]
    with pytest.raises(BudgetExceeded, match="series"):
        magnitude_series(g1, 10)
