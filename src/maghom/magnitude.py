"""Exact magnitude of a graph, as a rational function and a power series.

The similarity matrix Z has (x, y) entry q^d(x,y).  Its inverse's entry
sum is computed two independent ways: as a ratio of bordered
determinants (exact rational function, below), and by truncated Neumann
inversion of Z = I + N with N the strictly positive-distance part (exact
power series).  Agreement of the two is a standing cross-check, and the
series ties into magnitude homology through the alternating rank sum.

The bordered determinants are taken on a quotient of Z.  On a partition
of the vertices into cells C_1..C_r that is equitable for the distances
(``symmetry.equitable_partition``: the multiset of d(x, y) over y in C_j
is the same for every x in C_i), set M_ij = sum_{y in C_j} q^d(x_i,y)
for any x_i in C_i.  Z maps vectors constant on cells to such vectors,
so the weighting w with Z w = 1 is constant on cells, with values u,
M u = 1, and the magnitude is sum_i |C_i| u_i.  With B the matrix M
bordered by a column of ones, a row of the cell sizes and a 0 corner,
det B = -det(M) * sum_i |C_i| u_i, so the magnitude is -det B / det M.
M(0) is the identity, so det M is not the zero polynomial.  The discrete
partition gives M = Z; a cycle gives r = 1, Leinster's formula
n / sum_y q^d(x,y) for homogeneous graphs (arXiv:1401.4623).

det M and det B are integer polynomials recovered exactly from arithmetic
with small moduli: evaluation at points t modulo primes, interpolation, CRT
(von zur Gathen-Gerhard, Modern Computer Algebra, ch. 5).  Two bounds
make the result certain rather than likely:

* degree: M_ij has degree at most ecc(x_i), so each permutation term of
  det M has degree at most D = sum_i ecc(x_i); in each term of det B one
  row i of M gives way to the border column, and the border row adds
  degree 0.  So D + 1 points determine either polynomial.
* coefficients: M_ij has nonnegative coefficients adding up to |C_j|,
  so a permutation term of det M, a product with one entry from each
  column, has coefficients adding up to at most P = prod_j |C_j|; a term
  of det B swaps one column of M for the border entry |C_j| and one row
  for the entry 1, which leaves the same total.  det B has
  (r+1)! - r! = r*r! terms (det M has r!), so no coefficient exceeds
  C = r*r!*P in size; the discrete partition gives C = n*n!.  Residues
  modulo a product of primes above 2C, taken symmetrically, are the
  coefficients themselves.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial, prod

from .errors import InternalCheckError, ValidationError
from .graph import Graph
from .homology import mh_column
from .polyq import IntPoly, RatFunc
from .symmetry import Cells, equitable_partition


# Tried in order.  The Mersenne prime 2^89 - 1 alone exceeds 2C = 2n*n! for n <= 24;
# primes below 2^61 follow.  All fit in three 30-bit digits of a Python int,
# so each costs about the same per operation.  The test suite proves each
# prime (Lucas-Lehmer for 2^89 - 1, deterministic Miller-Rabin otherwise).
_PRIMES = (2**89 - 1,) + tuple(2**61 - d for d in (
    1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759, 799, 819,
))


def _quotient(g: Graph, cells: Cells | None) -> tuple[list[list[int]], list[int]]:
    """Row i: d(x_i, y) for the first vertex x_i of cell i and every y, cell
    by cell; and the cell sizes.  No cells means the discrete partition."""
    if cells is None:
        cells = tuple((v,) for v in g.vertices)
    order = [y for cell in cells for y in cell]
    return [[g.dist[cell[0]][y] for y in order] for cell in cells], list(map(len, cells))


def det_bounds(g: Graph, cells: Cells | None = None) -> tuple[int, int]:
    """(D, C): det M and det B of the quotient on ``cells`` (the discrete
    partition by default, where M = Z) have degree <= D and coefficients
    in [-C, C]."""
    rows, sizes = _quotient(g, cells)
    r = len(sizes)
    return sum(map(max, rows)), r * factorial(r) * prod(sizes)


def _dets_at(
    quotient: tuple[list[list[int]], list[int]], t: int, p: int
) -> tuple[int, int] | None:
    """(det M(t), det B(t)) mod p, or None when det M(t) = 0 mod p, for the
    quotient (rows, sizes) of ``_quotient``.

    One elimination of B(t) = [[M(t), 1], [sizes, 0]] with pivots taken
    from M's rows only: det M(t) is the signed pivot product and the
    corner left at the end is the Schur complement det B(t) / det M(t).
    """
    dist, sizes = quotient
    pw = [pow(t, d, p) for d in range(max(map(max, dist)) + 1)]
    rows = [[pw[d] for d in row] for row in dist]
    if len(sizes) < len(dist[0]):  # add up each cell's columns; singletons need no pass
        bounds = list(zip(accumulate(sizes, initial=0), accumulate(sizes)))
        rows = [[sum(row[a:b]) % p for a, b in bounds] for row in rows]
    rows = [row + [1] for row in rows] + [sizes + [0]]
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


def bordered_dets(g: Graph, cells: Cells | None = None) -> tuple[IntPoly, IntPoly]:
    """det M and det B of the quotient on ``cells``: M = Z and B is Z with an
    all-ones row and column and a 0 corner on the discrete partition, the
    default (see the module docstring).

    Both are interpolated mod each prime from D + 1 points t = 1, 2, ...
    with det M(t) != 0 mod p, and primes are combined by CRT until their
    product m exceeds 2C (see det_bounds).  A nonzero polynomial of degree
    <= D has at most D roots, so after D + 1 skipped points det M vanishes
    mod p and the prime is dropped, as it is when t runs out of room below p.
    """
    top, bound = det_bounds(g, cells)
    quotient = _quotient(g, cells)
    acc_m, acc_b, m = [0] * (top + 1), [0] * (top + 1), 1
    for p in _PRIMES:
        if m > 2 * bound:
            break
        points, t = [], 0
        while len(points) <= top and t - len(points) <= top and t < p - 1:
            t += 1
            if dets := _dets_at(quotient, t, p):
                points.append((t, *dets))
        if len(points) <= top:
            continue
        xs, ms, bs = zip(*points)
        inv = [0, 1]  # 1/d mod p for d <= t, as -(p // d) / (p mod d)
        for d in range(2, t + 1):
            inv.append(-(p // d) * inv[p % d] % p)
        acc_m = _crt(acc_m, m, _interpolate(xs, ms, p, inv), p)
        acc_b = _crt(acc_b, m, _interpolate(xs, bs, p, inv), p)
        m *= p
    if m <= 2 * bound:
        raise ValidationError(f"graph with {g.n} vertices is too large for the prime table")
    return tuple(IntPoly([c - m if 2 * c > m else c for c in acc]) for acc in (acc_m, acc_b))


def magnitude_rational(g: Graph) -> RatFunc:
    """Sum of the inverse similarity matrix's entries, in lowest terms.

    Uses the bordered-determinant identity -det B / det M on the quotient
    by the coarsest equitable partition (see the module docstring).
    """
    det_m, det_b = bordered_dets(g, equitable_partition(g))
    if not det_m:
        raise InternalCheckError("similarity matrix determinant reduced to zero")
    return RatFunc(-det_b, det_m)


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
