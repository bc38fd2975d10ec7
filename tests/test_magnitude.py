import random
from math import isqrt

import pytest
from conftest import K33, PETERSEN, load_fixture, random_connected
from oracles import Poly, euler_check, zeta_matrix

from maghom import (
    complete_graph,
    cycle_graph,
    from_edges,
    magnitude_rational,
    magnitude_series,
    mh_column,
    path_graph,
    star_graph,
)
from maghom import magnitude, polyq
from maghom.errors import BudgetExceeded, InternalCheckError
from maghom.homology import merge_torsion
from maghom.polyq import IntPoly, RatFunc
from maghom.symmetry import equitable_partition


def _poly_det(m):
    """Fraction-free determinant over Z[q] with row exchanges; every
    division is exact."""
    n = len(m)
    if n == 0:
        return IntPoly.one()
    m = [list(map(Poly, row)) for row in m]
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


def _quotient_matrix(g, cells):
    """M_ij = sum_{y in C_j} q^d(x_i, y), x_i the first vertex of C_i; Z
    itself when there are no cells."""
    if cells is None:
        return zeta_matrix(g)
    return [
        [sum((Poly.monomial(1, g.dist[ci[0]][y]) for y in cj), IntPoly.zero()) for cj in cells]
        for ci in cells
    ]


def _sizes(g, cells):
    return [1] * g.n if cells is None else [len(c) for c in cells]


def _bareiss_dets(g, cells=None):
    """det M and det B of the quotient on ``cells`` (M = Z by default),
    B being M bordered by a column of ones, a row of the cell sizes and a
    0 corner."""
    m = _quotient_matrix(g, cells)
    bordered = [row + [IntPoly.one()] for row in m]
    bordered.append([IntPoly([s]) for s in _sizes(g, cells)] + [IntPoly.zero()])
    return _poly_det(m), _poly_det(bordered)


RANDOM_GRAPHS = [random_connected(random.Random(seed), 2 + seed % 8) for seed in range(30)]


@pytest.fixture
def oracle_graphs(g1, g2, g3, c4):
    named = [c4, g1, g2, g3, star_graph(3)] + [complete_graph(n) for n in range(1, 6)]
    return named + RANDOM_GRAPHS


def test_modular_dets_equal_bareiss(oracle_graphs):
    # each coefficient is read back as a balanced residue mod 2^K of one
    # exact determinant; all of them must equal the polynomial oracle's
    for g in oracle_graphs:
        for cells in (None, equitable_partition(g)):
            assert magnitude.bordered_dets(g, cells) == _bareiss_dets(g, cells)


def test_dets_charge_the_basis_cap(monkeypatch, g1):
    # 4 cells with eccentricities 2, 2, 2, 2: 4^2 x (8 + 1) = 144 coefficients
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "144")
    r = magnitude_rational(g1)
    assert list(r.num.coeffs) == [-6, -10, 4, 2]
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "143")
    with pytest.raises(BudgetExceeded) as err:
        magnitude_rational(g1)
    assert str(err.value) == (
        "elimination on 4 cells needs 16 x 9 coefficients, over the basis cap 143"
    )


def test_det_bounds(oracle_graphs):
    # every coefficient of det M, det B and each leading minor det M_[k]
    for g in oracle_graphs:
        for cells in (None, equitable_partition(g)):
            m = _quotient_matrix(g, cells)
            bound = magnitude.det_bound(_sizes(g, cells))
            minors = [_poly_det([row[:k] for row in m[:k]]) for k in range(1, len(m))]
            for det in [*_bareiss_dets(g, cells), *minors]:
                assert max(map(abs, det.coeffs)) <= bound


@pytest.mark.parametrize("k", [2, 3, 8, 61, 100])
def test_unpack_round_trips_balanced_digits(k):
    half = 1 << (k - 1)
    assert polyq.unpack(0, k, 3) == [0, 0, 0]
    for coeffs in ([half - 1, 1 - half, 0, -half], [1 - half, half - 1], [0, 0, -1], [-half]):
        value = sum(c << (k * d) for d, c in enumerate(coeffs))
        assert polyq.unpack(value, k, len(coeffs) + 1) == coeffs + [0]
        with pytest.raises(InternalCheckError):
            polyq.unpack(value, k, len(coeffs) - 1)


def test_symmetric_elimination_matches_the_pivoting_oracle():
    # the kernel returns the last two leading minors; _poly_det exchanges rows
    rng = random.Random(3)
    refused = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [[IntPoly()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = IntPoly([rng.randint(-9, 9)])
        minors = [_poly_det([row[:k] for row in a[:k]]) for k in range(n + 1)]
        rows = [[a[i][j].lead for j in range(n - 1, i - 1, -1)] for i in range(n)]
        if all(minors[1:-1]):
            assert magnitude._det_bareiss(rows) == (minors[-2].lead, minors[-1].lead)
        else:
            refused += 1
            with pytest.raises(InternalCheckError):
                magnitude._det_bareiss(rows)
    assert 0 < refused < 30


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


@pytest.mark.parametrize("name", ["petersen", "g3"])
def test_euler_check_at_length_9(name, g3):
    # the length of the longest mh-table runs; Petersen has 4,444,470
    # length-9 chains over all degrees
    assert euler_check({"petersen": PETERSEN, "g3": g3}[name], 9)


# Leinster's closed forms (arXiv:1401.4623), compared exactly by
# cross-multiplying numerators and denominators.


def _same(num, den, r):
    """Is num/den equal to the rational function r?"""
    return Poly(num) * r.den == Poly(den) * r.num


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
    row_sum = sum((Poly.monomial(1, g.dist[1][y]) for y in g.vertices), IntPoly.zero())
    assert _same(IntPoly([n]), row_sum, magnitude_rational(g))


def test_leinster_wedge(g1, g2, g3, c4):
    for g, h in ((c4, g1), (g1, g2), (g2, g3), (g3, c4), (g1, g1)):
        a, b = magnitude_rational(g), magnitude_rational(h)
        den = Poly(a.den) * b.den
        num = Poly(a.num) * b.den + Poly(b.num) * a.den - den
        assert _same(num, den, magnitude_rational(_wedge(g, h)))


# Pendant trees: magnitude_rational strips them and eliminates on the
# 2-core; the whole-graph elimination below is the oracle.


def _whole_graph(g):
    """-det B / det M on the quotient of all of g, pendant trees and all."""
    det_m, det_b = magnitude.bordered_dets(g, equitable_partition(g))
    return RatFunc(-det_b, det_m)


def _random_tree(rng, n):
    return from_edges([(rng.randrange(1, v), v) for v in range(2, n + 1)], n=n)


def _hang_trees(rng, g, extra):
    """g with ``extra`` more vertices, each joined to one vertex before it."""
    return from_edges(list(g.edges) + [(rng.randrange(1, v), v) for v in range(g.n + 1, g.n + extra + 1)])


def _caterpillar(spine, legs):
    """A path 1..spine with ``legs`` leaves on each of its vertices."""
    edges = [(i, i + 1) for i in range(1, spine)]
    edges += [(i, spine + legs * (i - 1) + j) for i in range(1, spine + 1) for j in range(1, legs + 1)]
    return from_edges(edges, n=spine * (legs + 1))


def _lollipop(m, tail):
    """K_m with a path of ``tail`` more vertices hung on vertex m."""
    edges = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return from_edges(edges + [(v, v + 1) for v in range(m, m + tail)], n=m + tail)


def _spider(legs):
    """Paths of the given lengths joined at vertex 1."""
    edges, n = [], 1
    for length in legs:
        edges += [(1 if i == 0 else n + i, n + i + 1) for i in range(length)]
        n += length
    return from_edges(edges, n=n)


def test_leinster_tree_formula():
    # each pendant vertex adds #K_2 - 1 = (1 - q)/(1 + q) to #K_1 = 1
    rng = random.Random(7)
    trees = [_random_tree(rng, n) for n in [*range(2, 31), 60, 125, 250]]
    trees.append(load_fixture("T500"))
    for g in trees:
        r = magnitude_rational(g)
        assert (r.num, r.den) == (IntPoly([g.n, 2 - g.n]), IntPoly([1, 1]))
        assert magnitude_series(g, 8) == r.series(8)
        core, t = magnitude.two_core(g)
        assert (core.n, t) == (1, g.n - 1)
        if g.n <= 12:
            assert r == _whole_graph(g)
    # the whole-graph quotient of T500 has 410 cells, over the basis cap
    with pytest.raises(BudgetExceeded, match="elimination on 410 cells"):
        _whole_graph(trees[-1])


def test_two_core_route_equals_whole_graph_elimination(g1, g3):
    graphs = [complete_graph(1), complete_graph(2), path_graph(7), star_graph(5)]
    graphs += [_caterpillar(spine, legs) for spine, legs in ((3, 1), (4, 2), (6, 1))]
    graphs += [_lollipop(m, tail) for m, tail in ((3, 1), (3, 4), (5, 2), (6, 6))]
    graphs += [_spider(legs) for legs in ((1, 2, 3), (2, 2, 2, 2), (4, 1, 1))]
    rng = random.Random(11)
    graphs += [_hang_trees(rng, g, 3) for g in (g1, g3, cycle_graph(5), PETERSEN)]
    graphs += [_hang_trees(rng, random_connected(rng, 3 + seed % 10), 1 + seed % 7) for seed in range(50)]
    for g in graphs:
        assert magnitude.two_core(g)[1] or g.n == 1
        r = magnitude_rational(g)
        assert r == _whole_graph(g)
        assert magnitude_series(g, 8) == r.series(8)


def test_two_core_keeps_the_distances_of_the_graph(g1):
    # a Graph compares by all of its fields, its distances among them
    assert magnitude.two_core(_lollipop(4, 3)) == (complete_graph(4), 3)
    assert magnitude.two_core(g1) == (g1, 0)  # no leaf: g itself
    rng = random.Random(2)
    for _ in range(20):
        g = _hang_trees(rng, cycle_graph(6), 5)
        assert magnitude.two_core(g) == (cycle_graph(6), 5)
        assert cycle_graph(6).dist == tuple(row[:7] for row in g.dist[:7])


def test_magnitude_homology_of_a_wedge_is_the_direct_sum(g1, g2, g3, c4):
    # Hepworth-Willerton: MH_(k,l)(G v H) = MH_(k,l)(G) + MH_(k,l)(H) for l >= 1.
    # A wedge's Aut(G) differs from its blocks', so its pair orbits do too.
    rp2h = load_fixture("RP2H")
    cases = [(c4, g1, 5), (g1, g3, 5), (g2, cycle_graph(5), 5), (complete_graph(4), g3, 5),
             (c4, c4, 5), (g3, g3, 5), (rp2h, c4, 4), (rp2h, g1, 4)]
    for g, h, lmax in cases:
        wedge = _wedge(g, h)
        for length in range(1, lmax + 1):
            summed = [
                (rank_g + rank_h, merge_torsion([(tors_g, 1), (tors_h, 1)]))
                for (rank_g, tors_g), (rank_h, tors_h) in zip(mh_column(g, length), mh_column(h, length))
            ]
            assert mh_column(wedge, length) == summed
    assert mh_column(_wedge(rp2h, c4), 4)[3] == mh_column(_wedge(rp2h, g1), 4)[3] == (450, (2, 2))


def test_leinster_cartesian_product(g1, c4):
    for g, h in ((c4, path_graph(3)), (complete_graph(2), g1)):
        a, b = magnitude_rational(g), magnitude_rational(h)
        assert _same(Poly(a.num) * b.num, Poly(a.den) * b.den, magnitude_rational(_box(g, h)))


# The quotient by the coarsest equitable partition (symmetry.py) is the
# route magnitude_rational takes; bordered_dets with no cells is the
# general elimination on Z itself.


def test_quotient_equals_bareiss_oracle(g1, g3):
    for g, cells in ((cycle_graph(9), 1), (PETERSEN, 1), (K33, 1), (g1, 4), (g3, 4)):
        partition = equitable_partition(g)
        assert len(partition) == cells
        det_m, det_b = magnitude.bordered_dets(g, partition)
        assert (det_m, det_b) == _bareiss_dets(g, partition)
        det_z, det_bz = _bareiss_dets(g)
        assert RatFunc(-det_b, det_m) == RatFunc(-det_bz, det_z) == magnitude_rational(g)
    # cells of unequal sizes, so the scaling by sizes is not a common factor
    for g in (g1, g3):
        assert len({len(c) for c in equitable_partition(g)}) > 1


def test_quotient_bounds_shrink_to_one_cell():
    g = cycle_graph(25)
    sizes = [len(c) for c in equitable_partition(g)]
    # one cell of 25: H = (625 + 1)^(1/2) * 625^(1/2), rounded down 625
    assert sizes == [25] and magnitude.det_bound(sizes) == 625
    assert magnitude.det_bound([1] * 25) == isqrt(26**25 * 25)


def test_general_elimination_on_a_discrete_25_vertex_graph():
    g = random_connected(random.Random(0), 25)
    assert len(equitable_partition(g)) == g.n  # the quotient is Z itself
    # H = 26^12.5 * 5 is just above 2^61, so the digits have 63 bits
    assert magnitude.det_bound([1] * 25).bit_length() == 62
    assert magnitude.bordered_dets(g) == _bareiss_dets(g)
    assert magnitude_rational(g).series(10) == magnitude_series(g, 10)


def test_series_table_is_capped(monkeypatch, g1):
    # n * (order + 1) coefficients are held at once
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "60")
    assert magnitude_series(g1, 9)[:8] == [6, -20, 60, -182, 556, -1702, 5214, -15980]
    with pytest.raises(BudgetExceeded, match="series"):
        magnitude_series(g1, 10)


def test_series_coefficients_within_the_charged_bound(g1):
    # |coefficient of q^m| <= n^(m+1); K_n attains n (n-1)^m
    for g in (g1, complete_graph(5), cycle_graph(7)):
        series = magnitude_series(g, 30)
        assert all(abs(c) <= g.n ** (m + 1) for m, c in enumerate(series))


SERIES_GRAPHS = ["C4", "G1", "G2", "G3", "RP2H", "K1", "K4", "K5", "star3", "star6", "P9",
                 "C7"] + [f"random{seed}" for seed in range(10)]


def _series_graph(name):
    if name.startswith("random"):
        seed = int(name[6:])
        return random_connected(random.Random(seed), 15 + seed % 6)
    named = {"K1": complete_graph(1), "K4": complete_graph(4), "K5": complete_graph(5),
             "star3": star_graph(3), "star6": star_graph(6), "P9": path_graph(9),
             "C7": cycle_graph(7)}
    return named[name] if name in named else load_fixture(name)


@pytest.mark.parametrize("name", SERIES_GRAPHS)
def test_series_matches_rational_expansion(name):
    # K5 attains the digit-width bound; the random graphs have n = 15..20
    g = _series_graph(name)
    rat = magnitude_rational(g)
    for order in (0, 1, 2, 8, 30, 100):
        assert magnitude_series(g, order) == rat.series(order)


def _neumann_coefficients(g, order):
    """c[k][x][m]: the q^m coefficient of ((-N)^k.1)_x for k, m <= order,
    from the definition, one coefficient at a time."""
    vs = range(g.n)
    c = [[[1] + [0] * order for _ in vs]]
    for _ in range(order):
        prev = c[-1]
        c.append([
            [-sum(prev[y][m - g.dist[x + 1][y + 1]] for y in vs
                  if y != x and g.dist[x + 1][y + 1] <= m)
             for m in range(order + 1)]
            for x in vs
        ])
    return c


@pytest.mark.parametrize("name", ["C4", "G1", "G3", "RP2H", "K1", "K5", "star6", "P9",
                                  "random0", "random3"])
def test_series_bounds_cover_every_held_coefficient(name):
    g = _series_graph(name)
    order = 12
    bounds = magnitude.series_bounds(g, order)
    c = _neumann_coefficients(g, order)
    for x in range(g.n):
        for m in range(order + 1):
            assert sum(abs(c[k][x][m]) for k in range(order + 1)) <= bounds[m]
    series = magnitude_series(g, order)
    assert all(abs(s) <= g.n * b for s, b in zip(series, bounds))


def test_series_bounds_are_attained_on_complete_graphs():
    for n in range(1, 7):
        g = complete_graph(n)
        assert magnitude.series_bounds(g, 20) == [(n - 1) ** m for m in range(21)]
        # 1/(1 + (n-1)q) per vertex: the total is n (-(n-1))^m
        assert magnitude_series(g, 20) == [n * (1 - n) ** m for m in range(21)]


def test_series_charges_machine_words(monkeypatch, g1):
    # n = 6 <= 2^3, so q^m is charged 3(m + 1) bits: one word through q^19,
    # two from q^20 on (3 * 21 + 1 > 62 + 1)
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "120")  # 6 x 20 x 1
    head = magnitude_series(g1, 19)
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "252")  # 6 x 21 x 2
    assert magnitude_series(g1, 20)[:20] == head
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "251")
    with pytest.raises(BudgetExceeded) as err:
        magnitude_series(g1, 20)
    assert str(err.value) == (
        "series through q^20 needs 6 x 21 coefficients of 2 machine words each, "
        "over the basis cap 251"
    )


def test_reach_on_the_forty_vertex_graph(monkeypatch):
    # the largest gcd met so far, of degree 36; the determinants are kept
    # from the one elimination, on the 36-vertex 2-core (4 pendant
    # vertices), and the Euclid oracle is not run on them
    g = load_fixture("R40")
    dets = []
    eliminate = magnitude.bordered_dets
    monkeypatch.setattr(
        magnitude, "bordered_dets", lambda *args: dets.append(eliminate(*args)) or dets[0]
    )
    r = magnitude_rational(g)
    [(det_m, det_b)] = dets
    assert r.series(8) == magnitude_series(g, 8)
    # lifted: t det M (1 - q) - det B (1 + q) over det M (1 + q), t = 4
    num = Poly(det_m) * Poly([4, -4]) - Poly(det_b) * Poly([1, 1])
    den = Poly(det_m) * Poly([1, 1])
    gcd = den.exact_div(r.den)
    assert (Poly(r.num) * gcd, Poly(r.den) * gcd) == (num, den)
    assert gcd.degree == 36
