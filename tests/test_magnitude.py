import random

import pytest

from maghom import (
    complete_graph,
    cycle_graph,
    euler_check,
    from_edges,
    magnitude_rational,
    magnitude_series,
    path_graph,
    star_graph,
    zeta_matrix,
)
from maghom import magnitude
from maghom.errors import ValidationError
from maghom.polyq import IntPoly


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


def _random_connected(rng, n):
    """A random spanning tree on 1..n plus a random number of extra edges."""
    edges = {tuple(sorted((v, rng.randrange(1, v)))) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges |= set(rng.sample(pairs, rng.randrange(len(pairs) // 2 + 1)))
    return from_edges(sorted(edges), n=n)


RANDOM_GRAPHS = [_random_connected(random.Random(seed), 2 + seed % 8) for seed in range(30)]


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


def test_det_bounds(oracle_graphs):
    for g in oracle_graphs:
        top, bound = magnitude.det_bounds(g)
        assert top == sum(max(g.dist[x][1:]) for x in g.vertices)
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
