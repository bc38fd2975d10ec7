"""Exact magnitude of a graph, as a rational function and a power series.

The similarity matrix Z has (x, y) entry q^d(x,y).  Its inverse's entry
sum is computed two independent ways: as -det B / det Z, with B the
bordered matrix (exact rational function), and by truncated Neumann
inversion of Z = I + N with N the strictly positive-distance part (exact
power series).  Agreement of the two is a standing cross-check, and the
series ties into magnitude homology through the alternating rank sum.

det Z and det B are integer polynomials recovered exactly from arithmetic
with small moduli: evaluation at points t modulo primes, interpolation, CRT
(von zur Gathen-Gerhard, Modern Computer Algebra, ch. 5).  Two bounds
make the result certain rather than likely:

* degree: each permutation term of det Z is +-q^(sum_x d(x, sigma(x))),
  of degree at most D = sum_x ecc(x); B's border row and column add
  degree 0.  So D + 1 points determine either polynomial.
* coefficients: every term is a monomial with coefficient +-1, and det B
  has (n+1)! - n! = n*n! permutation terms (det Z has n!), so no
  coefficient exceeds C = n*n! in size.  Residues modulo a product of
  primes above 2C, taken symmetrically, are the coefficients themselves.
"""

from __future__ import annotations

from math import factorial

from .errors import InternalCheckError, ValidationError
from .graph import Graph
from .homology import mh_column
from .polyq import IntPoly, RatFunc


def zeta_matrix(g: Graph) -> list[list[IntPoly]]:
    """Matrix with (x, y) entry the monomial q^d(x,y)."""
    return [
        [IntPoly.monomial(1, g.dist[x][y]) for y in g.vertices] for x in g.vertices
    ]


# Tried in order.  The Mersenne prime 2^89 - 1 alone exceeds 2C for n <= 24;
# primes below 2^61 follow.  All fit in three 30-bit digits of a Python int,
# so each costs about the same per operation.  The test suite proves each
# prime (Lucas-Lehmer for 2^89 - 1, deterministic Miller-Rabin otherwise).
_PRIMES = (2**89 - 1,) + tuple(2**61 - d for d in (
    1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759, 799, 819,
))


def det_bounds(g: Graph) -> tuple[int, int]:
    """(D, C): det Z and det B have degree <= D and coefficients in [-C, C]."""
    return sum(max(g.dist[x][1:]) for x in g.vertices), g.n * factorial(g.n)


def _dets_at(dist: list[list[int]], t: int, p: int) -> tuple[int, int] | None:
    """(det Z(t), det B(t)) mod p, or None when det Z(t) = 0 mod p.

    One elimination of B(t) = [[Z(t), 1], [1, 0]] with pivots taken from
    Z's rows only: det Z(t) is the signed pivot product and the corner
    left at the end is the Schur complement det B(t) / det Z(t).
    """
    pw = [pow(t, d, p) for d in range(max(map(max, dist)) + 1)]
    rows = [[pw[d] for d in row] + [1] for row in dist]
    rows.append([1] * len(dist) + [0])
    det = 1
    while len(rows) > 1:
        i = next((i for i, row in enumerate(rows[:-1]) if row[0]), None)
        if i is None:
            return None
        piv = rows.pop(i)  # moving row i to the top has sign (-1)^i
        det = (-det if i % 2 else det) * piv[0] % p
        h = pow(piv[0], -1, p)
        piv = [b * h % p for b in piv[1:]]
        rows = [
            [(a - f * b) % p for a, b in zip(row[1:], piv)] if (f := row[0]) else row[1:]
            for row in rows
        ]
    return det, det * rows[0][0] % p


def _interpolate(
    xs: tuple[int, ...], ys: tuple[int, ...], p: int, inv: list[int]
) -> list[int]:
    """Coefficients mod p, lowest first, of the polynomial of degree
    < len(xs) through the points (xs[i], ys[i]), with xs increasing and
    inv[d] = 1/d mod p for every difference d of two points (Newton form).

    >>> inv = [0] + [pow(d, -1, 101) for d in range(1, 4)]
    >>> _interpolate([1, 2, 4], [6, 17, 57], 101, inv)   # 3q^2 + 2q + 1
    [1, 2, 3]
    """
    c = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv[xs[i] - xs[i - j]] % p
    out: list[int] = []
    for x, ci in zip(reversed(xs), reversed(c)):  # out = out * (q - x) + ci
        out = [(a - x * b) % p for a, b in zip([0] + out, out + [0])]
        out[0] = (out[0] + ci) % p
    return out


def _crt(acc: list[int], m: int, res: list[int], p: int) -> list[int]:
    """Merge residues ``acc`` mod m with ``res`` mod p into residues mod m*p.

    >>> _crt([2, 0], 3, [3, 4], 5)   # x = 2 (3), 3 (5) and y = 0 (3), 4 (5)
    [8, 9]
    """
    h = pow(m, -1, p)
    return [a + m * ((r - a) * h % p) for a, r in zip(acc, res)]


def bordered_dets(g: Graph) -> tuple[IntPoly, IntPoly]:
    """det Z and det B, B being Z with an all-ones row and column and a 0 corner.

    Both are interpolated mod each prime from D + 1 points t = 1, 2, ...
    with det Z(t) != 0 mod p, and primes are combined by CRT until their
    product m exceeds 2C (see det_bounds).  A nonzero polynomial of degree
    <= D has at most D roots, so after D + 1 skipped points det Z vanishes
    mod p and the prime is dropped, as it is when t runs out of room below p.
    """
    top, bound = det_bounds(g)
    dist = [g.dist[x][1:] for x in g.vertices]
    acc_z, acc_b, m = [0] * (top + 1), [0] * (top + 1), 1
    for p in _PRIMES:
        if m > 2 * bound:
            break
        points, t = [], 0
        while len(points) <= top and t - len(points) <= top and t < p - 1:
            t += 1
            if dets := _dets_at(dist, t, p):
                points.append((t, *dets))
        if len(points) <= top:
            continue
        xs, zs, bs = zip(*points)
        inv = [0, 1]  # 1/d mod p for d <= t, as -(p // d) / (p mod d)
        for d in range(2, t + 1):
            inv.append(-(p // d) * inv[p % d] % p)
        acc_z = _crt(acc_z, m, _interpolate(xs, zs, p, inv), p)
        acc_b = _crt(acc_b, m, _interpolate(xs, bs, p, inv), p)
        m *= p
    if m <= 2 * bound:
        raise ValidationError(f"graph with {g.n} vertices is too large for the prime table")
    return tuple(IntPoly([c - m if 2 * c > m else c for c in acc]) for acc in (acc_z, acc_b))


def magnitude_rational(g: Graph) -> RatFunc:
    """Sum of the inverse similarity matrix's entries, in lowest terms.

    Uses the bordered-determinant identity: appending an all-ones row and
    column (with 0 corner) gives det B = -det(Z) * sum(Z^{-1}), so the
    magnitude is -det(B)/det(Z).
    """
    det_z, det_b = bordered_dets(g)
    if not det_z:
        raise InternalCheckError("similarity matrix determinant reduced to zero")
    return RatFunc(-det_b, det_z)


def magnitude_series(g: Graph, order: int) -> list[int]:
    """Magnitude coefficients through q^order by Neumann inversion.

    Z = I + N with every entry of N of positive degree, so the entry sum
    of Z^{-1} is sum_k 1.(-N)^k.1, and (-N)^k has no term below q^k.  The
    vectors (-N)^k.1 are built by ``order`` matrix-vector products on
    coefficient lists truncated at q^order.
    """
    if order < 0:
        raise ValidationError("series order must be >= 0")
    dist = [g.dist[x][1:] for x in g.vertices]
    vec = [[1] + [0] * order for _ in dist]
    total = [len(dist)] + [0] * order
    for _ in range(order):
        nxt = []
        for row in dist:
            acc = [0] * (order + 1)
            for d, v in zip(row, vec):
                if 0 < d <= order:
                    acc[d:] = [a - b for a, b in zip(acc[d:], v)]
            nxt.append(acc)
        vec = nxt
        total = [s + sum(col) for s, col in zip(total, zip(*vec))]
    return total


def euler_check(g: Graph, lmax: int) -> bool:
    """Does sum_k (-1)^k rank MH_k^l match the series coefficient of q^l?

    Checked for every l <= lmax; torsion does not enter the rank count.
    """
    series = magnitude_series(g, lmax)
    for length in range(lmax + 1):
        alt = 0
        for k, (rank, _) in enumerate(mh_column(g, length)):
            alt += rank if k % 2 == 0 else -rank
        if alt != series[length]:
            return False
    return True
