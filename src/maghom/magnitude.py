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

* degree: E_ij = max_{y in C_j} d(x_i, y) is the degree of M_ij, so a
  permutation term prod_i M_{i,sigma(i)} of det M has degree at most
  sum_i E_{i,sigma(i)}, and det M has degree at most D*, the largest such
  sum over all sigma: a maximum-weight assignment, found by the
  Hungarian method in O(r^3).  In each term of det B the border column
  sits in some row i and the border row in some column j, both of
  degree 0, and the other rows go bijectively onto the other columns;
  adding the pair (i, j), with E_ij >= 0, makes that bijection a
  permutation, so det B has degree at most D* as well.  As E_ij <=
  ecc(x_i), D* <= sum_i ecc(x_i), with equality for K_n.  So D* + 1
  points determine either polynomial.
* coefficients: M_ij has nonnegative coefficients adding up to |C_j|,
  so a permutation term of det M, a product with one entry from each
  column, has coefficients adding up to at most P = prod_j |C_j|; a term
  of det B swaps one column of M for the border entry |C_j| and one row
  for the entry 1, which leaves the same total.  det B has
  (r+1)! - r! = r*r! terms (det M has r!), so no coefficient exceeds
  C = r*r!*P in size; the discrete partition gives C = n*n!.  Residues
  modulo a product of primes above 2C, taken symmetrically, are the
  coefficients themselves.

At each point the bordered matrix is made symmetric and eliminated
without pivoting.  With s the cell sizes, |C_i| M_ij = sum over x in C_i
and y in C_j of q^d(x,y) = |C_j| M_ji, so scaling row i of M by s_i gives
the symmetric S = [[diag(s) M, s], [s^T, 0]]: B with its first r rows
scaled, det S = prod_i s_i * det B.  Elimination without row exchanges
keeps S symmetric, so only its upper triangle is stored and updated, half
the products of a general elimination.  The k-th pivot is the ratio of
the leading principal minors of orders k and k - 1; the first r pivots
multiply to prod_i s_i * det M(t), and the entry left in the corner is
det S / (prod_i s_i * det M) = det B(t) / det M(t).  A point where a
pivot vanishes mod p is skipped.  Those are the roots of the leading
minors S_[k] = prod_{i<k} s_i * det M_[k], k = 1..r.  M(0) is the
identity, so S_[k] has constant term prod_{i<k} s_i, which is nonzero mod
a prime p above every cell size (smaller primes are not used); and
det M_[k] has degree at most D*, since an assignment of the leading k x k
block extends to all of E by the diagonal, E_ii >= 0.  So each leading
minor has at most D* roots mod p, and at most r*D* points are ever
skipped.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial, inf, prod
from operator import add, sub

from .errors import BudgetExceeded, InternalCheckError, ValidationError
from .graph import Graph
from .homology import basis_cap
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
    """Row i: d(x_i, y) for the first vertex x_i of cell i and every y, the
    cells taken last to first; and the cell sizes.  No cells means the
    discrete partition.  With the cells reversed, the columns of cells
    j >= i, which make up the upper triangle, are a prefix of row i."""
    if cells is None:
        cells = tuple((v,) for v in g.vertices)
    order = [y for cell in reversed(cells) for y in cell]
    return [[g.dist[cell[0]][y] for y in order] for cell in cells], list(map(len, cells))


def _cell_spans(sizes: list[int]) -> list[tuple[int, int]]:
    """The column range of each cell in a ``_quotient`` row, last cell first."""
    ends = list(accumulate(reversed(sizes), initial=0))
    return list(zip(ends, ends[1:]))


def _max_assignment(w: list[list[int]]) -> int:
    """The largest sum_i w[i][sigma(i)] over permutations sigma: the Hungarian
    method with row and column potentials on the costs -w, O(r^3).

    >>> _max_assignment([[1, 5, 0], [4, 1, 0], [0, 0, 2]])
    11
    """
    r = len(w)
    u, v = [0] * (r + 1), [0] * (r + 1)  # potentials; index 0 is a free column
    owner, way = [0] * (r + 1), [0] * (r + 1)  # owner[j]: row (1-based) on column j
    for i in range(1, r + 1):
        owner[0], j0 = i, 0
        slack, used = [inf] * (r + 1), [False] * (r + 1)
        while owner[j0]:  # grow a tree of tight edges until a free column joins it
            used[j0] = True
            row, i0, delta, j1 = w[owner[j0] - 1], owner[j0], inf, 0
            for j in range(1, r + 1):
                if not used[j]:
                    cur = -row[j - 1] - u[i0] - v[j]
                    if cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(r + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # shift the assignment along the path found
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    return sum(w[owner[j] - 1][j - 1] for j in range(1, r + 1))


def det_bounds(g: Graph, cells: Cells | None = None) -> tuple[int, int]:
    """(D*, C): det M and det B of the quotient on ``cells`` (the discrete
    partition by default, where M = Z) have degree <= D* and coefficients
    in [-C, C] (see the module docstring)."""
    rows, sizes = _quotient(g, cells)
    spans = _cell_spans(sizes)[::-1]
    top = _max_assignment([[max(row[a:b]) for a, b in spans] for row in rows])
    r = len(sizes)
    return top, r * factorial(r) * prod(sizes)


def _dets_at(
    quotient: tuple[list[list[int]], list[int]], t: int, p: int
) -> tuple[int, int] | None:
    """(det M(t), det B(t)) mod p, or None when a leading principal minor
    of M(t) vanishes mod p, for the quotient (rows, sizes) of ``_quotient``
    and a prime p above every cell size.

    Eliminates S(t) = [[diag(sizes) M(t), sizes], [sizes, 0]] without
    pivoting (see the module docstring).  Row i holds S_ij for j = r down
    to i, so its pivot comes last and entry j sits at index r - j; the
    update of row i by pivot row k zips the two, and zip stops at column i.
    """
    dist, sizes = quotient
    r = len(sizes)
    pw = [pow(t, d, p) for d in range(max(map(max, dist)) + 1)]
    if r == len(dist[0]):  # singletons: sizes are 1 and S = B
        rows = [[1] + [pw[d] for d in row[: r - i]] for i, row in enumerate(dist)]
    else:
        spans = _cell_spans(sizes)
        rows = [
            [s] + [s * sum([pw[d] for d in row[a:b]]) % p for a, b in spans[: r - i]]
            for i, (row, s) in enumerate(zip(dist, sizes))
        ]
    rows.append([0])
    det = 1
    for k in range(r):
        piv = rows[k]
        if not (a := piv[-1]):
            return None
        det = det * a % p
        h = pow(a, -1, p)
        for i in range(k + 1, r + 1):
            if f := piv[r - i]:
                f = f * h % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], piv)]
    det = det * pow(prod(sizes), -1, p) % p
    return det, det * rows[r][0] % p


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

    Both are interpolated mod each prime from D* + 1 points t = 1, 2, ...
    where ``_dets_at`` succeeds, and primes are combined by CRT until their
    product m exceeds 2C (see det_bounds).  At most r*D* points are
    skipped; a prime is dropped after more, or when t runs out of room
    below p.  Primes no larger than a cell are passed over, since the
    scaling by cell sizes needs their inverses.
    """
    top, bound = det_bounds(g, cells)
    quotient = _quotient(g, cells)
    sizes = quotient[1]
    allowance = len(sizes) * top
    acc_m, acc_b, m = [0] * (top + 1), [0] * (top + 1), 1
    for p in _PRIMES:
        if m > 2 * bound:
            break
        if p <= max(sizes):
            continue
        points, t = [], 0
        while len(points) <= top and t - len(points) <= allowance and t < p - 1:
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
    coefficient lists truncated at q^order.  Those n lists of order + 1
    coefficients count against the basis cap (``MAGHOM_BASIS_CAP``).
    """
    if order < 0:
        raise ValidationError("series order must be >= 0")
    cap = basis_cap()
    if g.n * (order + 1) > cap:
        raise BudgetExceeded(
            f"series through q^{order} needs {g.n} x {order + 1} coefficients, "
            f"over the basis cap {cap}"
        )
    # shells[x][d]: the vertices at distance d from x, for 0 < d <= order,
    # whose vectors are summed before one shift by q^d
    shells = []
    for x in g.vertices:
        shell: dict[int, list[int]] = {}
        for y, d in enumerate(g.dist[x][1:]):
            if 0 < d <= order:
                shell.setdefault(d, []).append(y)
        shells.append(shell)
    vec = [[1] + [0] * order for _ in shells]
    total = [len(shells)] + [0] * order
    for _ in range(order):
        nxt = []
        for shell in shells:
            acc = [0] * (order + 1)
            for d, ys in shell.items():
                summed = vec[ys[0]]
                for y in ys[1:]:
                    summed = list(map(add, summed, vec[y]))
                acc[d:] = map(sub, acc[d:], summed)  # stops at order
            nxt.append(acc)
        vec = nxt
        total = [s + sum(col) for s, col in zip(total, zip(*vec))]
    return total

