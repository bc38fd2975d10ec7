"""Exact magnitude of a graph, as a rational function and a power series.

The similarity matrix Z has (x, y) entry q^d(x,y).  Its inverse's entry
sum is computed two independent ways: as a ratio of bordered
determinants (exact rational function, below), and by truncated Neumann
inversion of Z = I + N with N the strictly positive-distance part (exact
power series).  The series is a recursion on plain integers: the q^m
coefficient of the weighting at x is minus the sum, over the vertices y
at each distance d <= m from x, of y's coefficient at q^(m-d)
(``magnitude_series``).  It shares no code with the determinants or the
equitable partition.  Agreement of the two is a standing cross-check,
and the series ties into magnitude homology through the alternating rank
sum.

Pendant trees are added in closed form, and the determinants are taken
on what is left, the 2-core.  Let v have the single neighbour u in G,
and H = G - v.  Every path from v to another vertex leaves through u,
so d(v, x) = 1 + d(u, x) for x != v, and no shortest path between two
vertices of H passes through v (it would meet u twice), so H has the
distances of G.  Z(0) = I, so Z is invertible, the weighting w with
Z w = 1 is unique, and the magnitude, the entry sum of Z^-1, is that
of w.  With w_H the
weighting of H, extended by 0 at v, and c = 1/(1 + q), set
w = w_H + c (e_v - q e_u).  Row v of Z w is q sum_x q^d(u,x) w_H(x) +
c (1 - q^2) = q + (1 - q) = 1, and row y != v is 1 + c (q^(d(y,u)+1) -
q q^d(y,u)) = 1.  So #G = #H + (1 - q)/(1 + q): Leinster's wedge formula
#(H v K_2) = #H + #K_2 - 1 (Leinster, "The magnitude of a graph",
Math. Proc. Camb. Phil. Soc. 2019).  Removing degree-1 vertices one at
a time until none is left removes t of them and leaves the 2-core of
G, or one vertex for a tree, with the distances of G.  With det M and
det B those of the core (below; one vertex has M = (1), det B = -1),

    #G = -det B / det M + t (1 - q)/(1 + q)
       = (t det M (1 - q) - det B (1 + q)) / (det M (1 + q)),

so a tree on n vertices has magnitude (n - (n - 2) q)/(1 + q).  Cut
vertices whose blocks both have cycles are not split: the wedge formula
would then need products of the blocks' fractions.

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

from itertools import accumulate, zip_longest
from math import isqrt, prod

from .errors import InternalCheckError, check_length, check_table_cap
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


def two_core(g: Graph) -> tuple[Graph, int]:
    """The graph left when degree-1 vertices are removed one at a time
    until none is left, on 1..r in the order of g's labels, and the
    number t of vertices removed: the 2-core, or one vertex of a tree.
    Its distances are g's (see the module docstring), so no search is
    run again.  With t = 0 it is g itself."""
    degree = list(map(len, g.neighbors))
    removed = [False] * (g.n + 1)
    leaves = [v for v in g.vertices if degree[v] == 1]
    while leaves:
        v = leaves.pop()
        if degree[v] != 1:  # the last vertex of a tree
            continue
        removed[v] = True
        for w in g.neighbors[v]:
            if not removed[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    keep = [v for v in g.vertices if not removed[v]]
    if len(keep) == g.n:
        return g, 0
    label = dict(zip(keep, range(1, len(keep) + 1)))
    index = (0, *keep)  # index 0 unused, as in g
    core = Graph(
        n=len(keep),
        edges=tuple((label[u], label[v]) for u, v in g.edges if u in label and v in label),
        neighbors=tuple(tuple(label[w] for w in g.neighbors[v] if w in label) for v in index),
        dist=tuple(tuple(g.dist[v][x] for x in index) for v in index),
    )
    return core, g.n - len(keep)


def magnitude_rational(g: Graph) -> RatFunc:
    """Sum of the inverse similarity matrix's entries, in lowest terms.

    Uses the bordered-determinant identity -det B / det M on the quotient
    of the 2-core by its coarsest equitable partition, and adds the t
    vertices of the pendant trees as t (1 - q)/(1 + q) (see the module
    docstring).
    """
    core, t = two_core(g)
    det_m, det_b = bordered_dets(core, equitable_partition(core))
    if not t:
        return RatFunc(-det_b, det_m)
    # times 1 + q and 1 - q: each coefficient plus or minus the one below
    m, b = (0, *det_m.coeffs), (0, *det_b.coeffs)
    num = [t * (x - y) - (u + v) for x, y, u, v in zip_longest(m[1:], m, b[1:], b, fillvalue=0)]
    return RatFunc(IntPoly(num), IntPoly([x + y for x, y in zip_longest(m[1:], m, fillvalue=0)]))


def magnitude_series(g: Graph, order: int) -> list[int]:
    """Magnitude coefficients through q^order by Neumann inversion.

    Z = I + N with every entry of N of positive degree, so the weighting
    w with Z w = 1 is sum_k (-1)^k N^k.1, and the magnitude is its entry
    sum.  Let s_m(x) be the q^m coefficient of w_x: the number of walks
    x = x_0, ..., x_k with x_(i+1) != x_i whose distances add up to m,
    summed with sign (-1)^k over k.  With shell_x(d) the vertices at
    distance d from x, Z w = 1 is w = 1 - N w, which reads at q^m:
    s_0(x) = 1 and

        s_m(x) = -sum_(1 <= d <= m) sum_(y in shell_x(d)) s_(m-d)(y),

    and the q^m coefficient of the magnitude is sum_x s_m(x).  So the
    series is ``order`` rounds of integer sums, round m reading the rounds
    before it, and the n x (order + 1) table of s_m(x) is what is held.

    The charge against the basis cap uses the bound n^(m+1).  No
    coefficient held at q^m exceeds n^(m+1) in size: |s_m(x)| is at most
    the number of such walks of distance sum m, at most (n-1)^k of k
    steps and none for k > m, so at most sum_(k<=m) (n-1)^k <= n^m, and
    the entry sum adds n of them.  So with n <= 2^e every coefficient
    through q^order is at most 2^(e * (order + 1)) in size, and fits in w
    signed 64-bit words (which hold sizes up to 2^(64w - 2)),
    w = floor((e * (order + 1) + 1) / 64) + 1; the table counts
    n x (order + 1) x w machine words against the basis cap
    (``errors.check_table_cap``): n x (order + 1) while w = 1.  K_n
    comes close: its q^m coefficient is n (-(n-1))^m.
    """
    check_length("series order", order)
    n = g.n
    e = (n - 1).bit_length()
    words = (e * (order + 1) + 1) // 64 + 1
    check_table_cap(f"series through q^{order}", n, order + 1, words)
    # The table grows in place in one list, row s_m after row s_(m-1),
    # behind ``top`` rows of zeros.  While row m is built, s_(m-d)(y) is
    # at index y - d n from the end whatever m is, and a row m - d < 0
    # is one of the zeros.
    top = min(order, g.diameter)
    reach = [[y - d * n for y, d in enumerate(row[1:]) if 0 < d <= order] for row in g.dist[1:]]
    flat = [0] * (top * n) + [1] * n
    get = flat.__getitem__
    for _ in range(order):
        flat += [-sum(map(get, back)) for back in reach]
    return [sum(flat[i:i + n]) for i in range(top * n, len(flat), n)]
