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

det M and det B are integer polynomials, found by one exact elimination
over Z at q = X = 2^K (Kronecker substitution, see ``maghom.polyq``):
eliminating at X gives det M(X) and det B(X), and a polynomial with
coefficients in [-X/2, X/2) is read off its value at X (``polyq.unpack``).
A zero value then means the zero polynomial.  One bound makes the result
certain:

* coefficients (Hadamard): the coefficient of q^d in p is the mean of
  p(z) z^-d over |z| = 1, so no coefficient exceeds max_{|z|=1} |p(z)|.
  For |z| = 1, |M_ij(z)| <= |C_j| = s_j, so each row of M has Euclidean
  length at most sqrt(Q), Q = sum_j s_j^2; each row of B but the last
  adds an entry 1, and the last, (s, 0), has length sqrt(Q).  By
  Hadamard's inequality no coefficient of det B exceeds
  H = (Q + 1)^(r/2) * Q^(1/2) in size, and none of det M or of a leading
  minor det M_[k] (the first k cells) exceeds Q^(k/2) <= H.  So
  2^(K-1) > H suffices.  The discrete partition gives
  H = (n + 1)^(n/2) * n^(1/2), about 2^61 at n = 25.

The bordered matrix is made symmetric and eliminated fraction-free
(Bareiss) without pivoting.  With s the cell sizes, |C_i| M_ij = sum
over x in C_i and y in C_j of q^d(x,y) = |C_j| M_ji, so scaling row i of
M by s_i gives the symmetric S = [[diag(s) M, s], [s^T, 0]]: B with its
first r rows scaled, det S = prod_i s_i * det B.  Elimination without
row exchanges keeps S symmetric, so only its upper triangle is stored
and updated, half the products of a general elimination.  In Bareiss's
elimination every division is exact and the k-th pivot is the leading
principal minor of order k: the r-th is prod_i s_i * det M(X), and the
entry left in the corner is det S(X) = prod_i s_i * det B(X).  No pivot
vanishes.  The leading minor of order k <= r is
s_1 ... s_k * det M_[k](X), and det M_[k] is not the zero polynomial
(M(0) = I gives it constant term 1) and has coefficients below X/2, so
its value at X is not 0.

Every entry of S after a step of the elimination is a minor of S(X).
Row i <= r of S has degree at most e_i = max_y d(x_i, y), and the border
row degree 0, so such a minor, det M and det B among them, is the value
at X of a polynomial of degree at most D = sum_i e_i.  So D + 1 digits
are read, and a value left over is an internal error.  The r^2 x (D + 1)
coefficients that the elimination stands for count against the basis
cap (``errors.check_table_cap``), as the series table does.  The
fraction -det B / det M is brought to lowest terms by
``polyq.poly_gcd``, at q = 2^k as well.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt, prod
from operator import mul

from .errors import InternalCheckError, ValidationError, check_table_cap
from .graph import Graph
from .polyq import IntPoly, RatFunc, unpack
from .symmetry import Cells, equitable_partition


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


def det_bound(sizes: list[int]) -> int:
    """H rounded down, for cells of these sizes: no coefficient of det M,
    det B or a leading minor det M_[k] exceeds it in size (see the module
    docstring)."""
    q = sum(s * s for s in sizes)
    return isqrt((q + 1) ** len(sizes) * q)


def _det_bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """The last two leading principal minors of a symmetric integer matrix
    of order r + 1 given by its upper triangle: ``rows[i]`` holds the
    entries of columns r down to i, its diagonal entry last.  The rows
    are overwritten.

    Fraction-free elimination without pivoting (see the module
    docstring); every leading minor of order <= r must be nonzero.  The
    update of row i by pivot row k zips the two, and zip stops at column i.
    """
    r = len(rows) - 1
    prev = 1
    for k in range(r):
        piv = rows[k]
        if not (a := piv[-1]):
            raise InternalCheckError("a leading minor of the similarity quotient vanished")
        for i in range(k + 1, r + 1):
            f = piv[r - i]
            rows[i] = [(a * x - f * y) // prev for x, y in zip(rows[i], piv)]
        prev = a
    return prev, rows[r][0]


def bordered_dets(g: Graph, cells: Cells | None = None) -> tuple[IntPoly, IntPoly]:
    """det M and det B of the quotient on ``cells``: M = Z and B is Z with an
    all-ones row and column and a 0 corner on the discrete partition, the
    default (see the module docstring).

    Both come from one elimination of S(2^K), with 2^(K-1) above
    ``det_bound``, and are unpacked from its last two pivots.  Each has
    degree at most D (see the module docstring), so D + 1 digits hold it.
    """
    dist, sizes = _quotient(g, cells)
    r = len(sizes)
    top = sum(map(max, dist))
    check_table_cap(f"elimination on {r} cells", r * r, top + 1)
    k = det_bound(sizes).bit_length() + 1
    pw = [1 << (k * d) for d in range(max(map(max, dist)) + 1)]
    spans = _cell_spans(sizes)
    rows = [
        [s] + [s * sum([pw[d] for d in row[a:b]]) for a, b in spans[: r - i]]
        for i, (row, s) in enumerate(zip(dist, sizes))
    ]
    rows.append([0])
    scale = prod(sizes)
    return tuple(IntPoly(unpack(det // scale, k, top + 1)) for det in _det_bareiss(rows))


def magnitude_rational(g: Graph) -> RatFunc:
    """Sum of the inverse similarity matrix's entries, in lowest terms.

    Uses the bordered-determinant identity -det B / det M on the quotient
    by the coarsest equitable partition (see the module docstring).
    """
    det_m, det_b = bordered_dets(g, equitable_partition(g))
    return RatFunc(-det_b, det_m)


def series_bounds(g: Graph, order: int) -> list[int]:
    """B_0..B_order: B_0 = 1 and B_m = max_x sum_(1 <= d <= m) |shell_x(d)|
    B_(m-d), with shell_x(d) the vertices at distance d from x.  The q^m
    coefficients of the Neumann vectors N^k.1 at one vertex add up, over
    k, to at most B_m (see ``magnitude_series``).  K_n gives
    B_m = (n-1)^m."""
    profiles = {
        tuple(row.count(d) for d in range(1, min(order, max(row)) + 1))
        for row in g.dist[1:]
    }
    bounds = [1]
    for _ in range(order):
        # zip pairs |shell_x(d)| with B_(m-d) for d <= m
        bounds.append(max(sum(map(mul, p, reversed(bounds))) for p in profiles))
    return bounds


def magnitude_series(g: Graph, order: int) -> list[int]:
    """Magnitude coefficients through q^order by Neumann inversion.

    Z = I + N with every entry of N of positive degree, so the entry sum
    of Z^{-1} is sum_k (-1)^k 1.N^k.1, and N^k has no term below q^k.  The
    q^m coefficient of (N^k.1)_x is the number of walks x = x_0, ..., x_k
    with x_(i+1) != x_i whose distances add up to m.

    The vectors N^k.1 are built by ``order`` matrix-vector products,
    truncated at q^order, on packed integers (Kronecker substitution, see
    ``maghom.polyq``).  Each vertex's entry of N^k.1 is held divided by
    q^k, as one integer: its value at q = X = 2^K, whose base-X digits are
    the order - k + 1 coefficients of q^k through q^order.  With
    shell_x(d) the vertices at distance d from x, step k + 1 gives x
    sum_d X^(d-1) sum_(y in shell_x(d)) v_y: one integer sum per shell,
    shifted by K(d - 1), the one power of q fewer being the next step's
    division by q^(k+1).  Truncation keeps the t = order - k digits of
    q^(k+1) through q^order, and is one mask, the sum mod X^t: every
    coefficient is a walk count in [0, X), so no digit borrows and the
    low t digits of the sum are the coefficients kept (a balanced mask
    is not needed).  Step k adds (-1)^k times the sum of its vectors,
    shifted back by K k, to the total, whose order + 1 signed
    coefficients are read once as balanced base-X digits
    (``polyq.unpack``).

    K comes from the graph.  Let b_m(x) be the number of such walks from
    x of distance sum m and any number of steps.  A walk's first step goes
    to some y in shell_x(d) with 1 <= d <= m and goes on as a walk from y
    of distance sum m - d, so b_0(x) = 1 and
    b_m(x) = sum_d sum_(y in shell_x(d)) b_(m-d)(y), and by induction
    b_m(x) <= B_m (``series_bounds``).  So every coefficient held for x at
    q^m is at most B_m, and the q^m coefficient of the total, a signed
    sum of such walk counts over x and k, is at most n B_m in size.
    K = bit_length(n max_(m <= order) B_m) + 2 puts both below X/4.  K_n
    attains the bound: its q^m coefficient is n (-(n-1))^m.

    The charge against the basis cap uses the coarser bound n^(m+1).  No
    coefficient held at q^m exceeds n^(m+1) in size: there are at most
    (n-1)^k walks of k steps, and 0 for k > m; the sums over shells add
    walks of one sign, and the entry sum adds n of them for each k <= m,
    at most n * sum_(k<=m) (n-1)^k <= n * ((n-1) + 1)^m.  So with
    n <= 2^e every coefficient through q^order is at most
    2^(e * (order + 1)) in size, and fits in w signed 64-bit words (which
    hold sizes up to 2^(64w - 2)), w = floor((e * (order + 1) + 1) / 64) + 1;
    the n vectors of order + 1 coefficients count n x (order + 1) x w
    machine words against the basis cap (``errors.check_table_cap``):
    n x (order + 1) while w = 1.  The packed digits fit the words charged:
    by induction B_m <= (n-1) n^(m-1) for m >= 1, so n B_m < 2^(e(m+1)),
    and n B_0 = n <= 2^e; so K <= e * (order + 1) + 2 <= 64w for
    order >= 1, and K <= e + 3 < 64 for order 0.
    """
    if order < 0:
        raise ValidationError("series order must be >= 0")
    e = (g.n - 1).bit_length()
    words = (e * (order + 1) + 1) // 64 + 1
    check_table_cap(f"series through q^{order}", g.n, order + 1, words)
    kbits = (g.n * max(series_bounds(g, order))).bit_length() + 2
    # shells[x]: (K(d - 1), the vertices at distance d from x) for 0 < d <= order
    shells = []
    for x in g.vertices:
        shell: dict[int, list[int]] = {}
        for y, d in enumerate(g.dist[x][1:]):
            if 0 < d <= order:
                shell.setdefault(d, []).append(y)
        shells.append([(kbits * (d - 1), ys) for d, ys in shell.items()])
    vec = [1] * g.n
    totals = [g.n, 0]  # the steps k that add, even k, and those that subtract
    for step in range(1, order + 1):
        width = kbits * (order - step + 1)
        mask = (1 << width) - 1
        get = vec.__getitem__
        # a shell shifted by the whole width adds no digit kept
        vec = [
            sum([sum(map(get, ys)) << shift for shift, ys in shell if shift < width]) & mask
            for shell in shells
        ]
        totals[step % 2] += sum(vec) << (kbits * step)
    return unpack(totals[0] - totals[1], kbits, order + 1)
