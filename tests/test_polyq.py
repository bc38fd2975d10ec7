import random
from itertools import combinations

import pytest
from oracles import Poly, euclid_gcd, unpack_by_digit

from maghom import cycle_graph, from_edges, polyq
from maghom.errors import InternalCheckError, MaghomError
from maghom.magnitude import bordered_dets
from maghom.polyq import IntPoly, RatFunc, poly_gcd
from maghom.symmetry import equitable_partition


def test_construction_trims_and_normalizes():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert not IntPoly()
    assert IntPoly([5]).degree == 0
    assert IntPoly().degree == -1


def test_ring_identities():
    p = Poly([-6, -10, 4, 2])
    q = Poly([3, 0, 1])
    assert p + IntPoly.zero() == p
    assert p * IntPoly.one() == p
    assert p - p == IntPoly.zero()
    assert p * q == q * p
    assert (p + q) * q == p * q + q * q
    assert p * 2 == p + p


def test_str():
    assert str(IntPoly([-6, -10, 4, 2])) == "2*q^3 + 4*q^2 - 10*q - 6"
    assert str(IntPoly()) == "0"
    assert str(IntPoly([0, 1])) == "q"
    assert str(IntPoly([1, -1])) == "-q + 1"


def test_exact_div():
    p = IntPoly([-1, 0, 1])       # q^2 - 1
    d = IntPoly([1, 1])           # q + 1
    assert p.exact_div(d) == IntPoly([-1, 1])
    with pytest.raises(MaghomError):
        IntPoly([1, 1, 1]).exact_div(d)
    with pytest.raises(ZeroDivisionError):
        p.exact_div(IntPoly())


def gcd_checked(a, b):
    """The gcd from poly_gcd(a, b), once its cofactors are checked to give
    back a and b."""
    g, over_a, over_b = poly_gcd(a, b)
    assert Poly(g) * over_a == a and Poly(g) * over_b == b
    return g


def test_gcd():
    assert gcd_checked(IntPoly([-1, 0, 1]), IntPoly([1, 1])) == IntPoly([1, 1])
    assert gcd_checked(IntPoly([2, 2]), IntPoly([4])) == IntPoly([2])
    assert gcd_checked(IntPoly(), IntPoly([0, -3])) == IntPoly([0, 3])
    # gcd of coprime polynomials is a constant
    g = gcd_checked(IntPoly([1, 1]), IntPoly([2, 1]))
    assert g.degree == 0
    # the cofactors keep the contents and the signs of the inputs
    assert poly_gcd(IntPoly([2, 2]), IntPoly([4])) == (IntPoly([2]), IntPoly([1, 1]), IntPoly([2]))
    assert poly_gcd(IntPoly([-4]), IntPoly([-6])) == (IntPoly([2]), IntPoly([-2]), IntPoly([-3]))
    assert poly_gcd(IntPoly([0, -3]), IntPoly()) == (IntPoly([0, 3]), IntPoly([-1]), IntPoly())


@pytest.mark.parametrize("k", [1, 2, 5, 30, 31, 64, 97])
def test_unpack_matches_the_digit_by_digit_reader(k):
    rng = random.Random(k)
    half = 1 << (k - 1)
    values = [0, 1, -1, half, -half - 1]
    for digits in (1, 7, 8, 9, 16, 17, 40, 129):
        values += [rng.randrange(-(1 << (k * digits + 3)), 1 << (k * digits + 3)) for _ in range(4)]
        for top in (half - 1, -half, 1, -1):  # balanced top digits, and one digit too many
            low = sum(rng.randrange(-half, half) << (k * d) for d in range(digits - 1))
            values += [low + (top << (k * (digits - 1))), low + (top << (k * digits))]
    for v in values:
        for digits in (0, 1, 7, 8, 9, 16, 17, 40, 129):
            want = unpack_by_digit(v, k, digits)
            if want is None:
                with pytest.raises(InternalCheckError):
                    polyq.unpack(v, k, digits)
            else:
                assert polyq.unpack(v, k, digits) == want


@pytest.fixture
def reads(monkeypatch):
    """The k of each packed gcd that poly_gcd reads back; a 20th read
    before the list is cleared fails, so a retry loop that never ends
    fails too."""
    ks = []
    unpack = polyq.unpack

    def reader(v, k, digits):
        ks.append(k)
        assert len(ks) < 20, f"k does not grow: {ks}"
        return unpack(v, k, digits)

    monkeypatch.setattr(polyq, "unpack", reader)
    return ks


def _random_poly(rng, degree, size):
    lead = rng.choice((-1, 1)) * rng.randint(1, size)
    return Poly([rng.randint(-size, size) for _ in range(degree)] + [lead])


def test_gcd_matches_euclid_on_planted_factors(reads):
    rng = random.Random(11)
    retried = 0
    for _ in range(400):
        g = _random_poly(rng, rng.randint(0, 5), 30)
        a = g * _random_poly(rng, rng.randint(0, 6), 9) * rng.randint(-12, 12)
        b = g * _random_poly(rng, rng.randint(0, 6), 9) * rng.randint(-12, 12)
        reads.clear()
        h = gcd_checked(a, b)
        assert h == euclid_gcd(a, b)
        if a and b:
            assert Poly(h).exact_div(g.primitive())   # raises unless g divides h
        retried += len(reads) > 1
    assert retried > 0


def test_gcd_of_zero_and_constant_inputs():
    zero, q = Poly(), Poly([0, 1])
    for a, b in [
        (zero, zero), (zero, Poly(5)), (Poly(-5), zero), (zero, -3 * q), (q * q - 4, zero),
        (Poly(4), Poly(6)), (Poly(-4), Poly(-6)), (Poly(7), q * q + 1), (6 * q + 4, Poly(-2)),
        (Poly(1), 5 * q - 3), (Poly(-1), Poly(-1)),
    ]:
        assert gcd_checked(a, b) == euclid_gcd(a, b) == gcd_checked(b, a)


def _graph(rng, n, m):
    """A random connected graph on 1..n with m edges: a random tree plus
    m - n + 1 more edges."""
    edges = {tuple(sorted((v, rng.randrange(1, v)))) for v in range(2, n + 1)}
    rest = [e for e in combinations(range(1, n + 1), 2) if e not in edges]
    return from_edges(sorted(edges | set(rng.sample(rest, m - n + 1))), n=n)


def test_gcd_on_magnitude_determinants(c4, g1, g2, g3):
    # the pairs RatFunc reduces, -det B over det M, as magnitude_rational
    # makes them; the random graphs have the benchmark's shape, m = 2n - 5
    rng = random.Random(5)
    graphs = [c4, g1, g2, g3, cycle_graph(15)]
    graphs += [_graph(rng, n, 2 * n - 5) for n in range(15, 20)]
    degrees = []
    for g in graphs:
        det_m, det_b = bordered_dets(g, equitable_partition(g))
        h = gcd_checked(-det_b, det_m)
        assert h == euclid_gcd(-det_b, det_m)
        degrees.append(h.degree)
    assert min(degrees[-5:]) > 0


def test_gcd_retries_with_one_more_bit(reads):
    # at k = 4, gcd(a(16), b(16)) reads as q - 4, which does not divide b;
    # k = 5 fails the division too, and k = 6 gives the gcd 1
    a, b = Poly([-4, 1]), Poly([4, -2, -5])   # q - 4, -5q^2 - 2q + 4
    assert gcd_checked(a, b) == euclid_gcd(a, b) == IntPoly.one()
    assert reads == [4, 5, 6]


def test_ratfunc_canonical_form():
    r = RatFunc(IntPoly([2, -2]), IntPoly([-1, 0, 1]))  # (2-2q)/(q^2-1)
    assert r.num == IntPoly([-2])
    assert r.den == IntPoly([1, 1])
    # re-canonicalizing is idempotent
    assert RatFunc(r.num, r.den) == r
    assert r.den.lead > 0


def test_ratfunc_divides_nothing_after_the_gcd(monkeypatch):
    # num and den are the cofactors that poly_gcd returns
    gcd = polyq.poly_gcd
    found = []

    def then_no_division(a, b):
        found.append(gcd(a, b))
        monkeypatch.setattr(IntPoly, "exact_div", None)
        return found[-1]

    monkeypatch.setattr(polyq, "poly_gcd", then_no_division)
    r = RatFunc(IntPoly([2, -2]), IntPoly([1, 0, -1]))  # (2-2q)/(1-q^2)
    _, num, den = found[0]
    assert (r.num, r.den) == (-num, -den) == (IntPoly([2]), IntPoly([1, 1]))


def test_ratfunc_series_geometric():
    r = RatFunc(IntPoly([2]), IntPoly([1, 1]))  # 2/(1+q)
    assert r.series(5) == [2, -2, 2, -2, 2, -2]


def test_ratfunc_series_times_den_gives_num():
    """den x series = num mod q^(L+1) on seeded random fractions, with
    den(0) = +-1 and each degree below and above the order L."""
    rng = random.Random(20211)
    signs, shapes = set(), set()
    for _ in range(200):
        order = rng.randint(0, 12)
        num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 2 * order + 3))])
        tail = [rng.randint(-9, 9) for _ in range(rng.randint(0, 2 * order + 2))]
        den = Poly([rng.choice((1, -1))] + tail)
        if not num:
            continue
        r = RatFunc(num, den)
        series = r.series(order)
        assert len(series) == order + 1
        product = Poly(r.den) * Poly(series)
        assert [product.coefficient(k) for k in range(order + 1)] == [
            r.num.coefficient(k) for k in range(order + 1)
        ]
        signs.add(r.den.coefficient(0))
        shapes.add((r.num.degree > order, r.den.degree > order))
    assert signs == {1, -1}
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_ratfunc_series_requires_unit_constant():
    r = RatFunc(IntPoly([1]), IntPoly([2, 1]))
    with pytest.raises(MaghomError):
        r.series(3)


def test_ratfunc_zero():
    r = RatFunc(IntPoly(), IntPoly([5, 1]))
    assert r.num == IntPoly() and r.den == IntPoly.one()
