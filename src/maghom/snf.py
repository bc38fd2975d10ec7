"""Exact integer linear algebra: sparse Smith normal form and the
homology of chain complexes.

Boundary matrices arriving here are extremely sparse with entries +-1, so
the Smith form comes in two phases.  The sparse phase pivots only on unit
entries (unimodular, no coefficient growth, each pivot contributes
elementary divisor 1), each by one step: clear the pivot column by row
operations, then retire the pivot row and column.  The next unit comes
from a work stack of entries alone in their row or column while it holds
one: such a unit has Markowitz cost (row size - 1) * (column size - 1)
zero, and its pivot only deletes entries.  Once the stack runs dry, the
units left come from a heap, least cost first, and whatever a pivot
leaves alone in a row or column goes on the stack, to be taken before
the heap's next unit.  A dense Smith reduction then takes the small
block that has no unit left: it splits off one pivot of least size at a
time, and ``invariant_factors`` puts the pivots in divisibility order by
Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b).  All arithmetic uses Python
integers; intermediate values may exceed 64 bits.  A matrix may come
with rows its producer has peeled already (``SparseMatrix.peeled``):
they count as unit pivots and are never loaded.

``homology_of_complex`` takes the boundaries from the bottom degree up
and compresses: the rows of d_(k+1) at the columns on which d_k pivoted
on a unit are left out, which keeps the rank and divisors of d_(k+1)
(the proof is in its docstring).  So the small low-degree maps shrink
the large top one.  This is the compression of persistent homology
(Bauer-Kerber-Reininghaus, "Clear and compress", 2014), the dual of
clearing (Chen-Kerber, "Persistent homology computation with a twist",
2011), carried over to Z through unit pivots only.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from math import gcd


@dataclass(frozen=True)
class SparseMatrix:
    """Integer matrix stored as {(row, col): nonzero value}, beside the
    ``peeled`` rows: each stands for a unit pivot whose row and column
    hold no other entry, and none of its entries is stored.

    So the matrix is I_|peeled| on the peeled rows and their unit columns
    (not counted in ``ncols``), plus the stored entries on the other rows.
    ``boundary_matrix`` peels the top boundary as it assembles it.
    """

    entries: dict[tuple[int, int], int]
    nrows: int
    ncols: int
    peeled: frozenset[int] = frozenset()


@dataclass(frozen=True)
class SNFResult:
    """Rank and nontrivial elementary divisors of an integer matrix.

    ``divisors`` lists the diagonal entries > 1 of the Smith form, in
    divisibility order d1 | d2 | ... .  ``pivot_cols`` are the columns of
    the unit pivots of the sparse phase (none of the dense phase), the
    rows that ``homology_of_complex`` leaves out of the next boundary up.
    A peeled row's unit column is not numbered, so it is not among them.
    """

    rank: int
    divisors: tuple[int, ...]
    pivot_cols: frozenset[int] = field(default=frozenset(), compare=False, repr=False)


def smith_normal_form(mat: SparseMatrix, dropped: Collection[int] = ()) -> SNFResult:
    """Rank and elementary divisors via hybrid sparse/dense reduction, of
    ``mat`` with the rows in ``dropped`` left out; the columns of the unit
    pivots come back as ``pivot_cols``.

    The Smith form is I_|peeled| beside that of the stored entries, which
    lie on the other rows, so the peeled rows add to the rank and are
    never loaded.  ``dropped`` names stored rows only: the rows that
    ``homology_of_complex`` drops are integer combinations of the others,
    and a peeled row is none, as no other row reaches its unit column.

    Every sparse-phase pivot, a lone unit off the stack or a unit off the
    Markowitz heap, runs the same step: clear its column, retire its row
    and column, and stack what that leaves alone in a row or column.  The
    rows left when no unit remains go to ``_dense_smith_diagonal`` as one
    dense block.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in mat.entries.items():
        if v and r not in dropped:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    pivots: list[int] = []
    # entries alone in their row or column: the units among them are
    # pivots of Markowitz cost 0, which make no fill
    stack = [(r, c) for r, rdata in rows.items() if len(rdata) == 1 for c in rdata]
    stack += [(r, c) for c, rs in cols.items() if len(rs) == 1 for r in rs]
    heap: list[tuple[int, int, int]] | None = None
    while rows:
        lone = bool(stack)
        if lone:
            r, c = stack.pop()
        else:
            if heap is None:
                # the units left when the stack first runs dry
                heap = [
                    ((len(rdata) - 1) * (len(cols[c]) - 1), r, c)
                    for r, rdata in rows.items()
                    for c, v in rdata.items()
                    if v in (1, -1)
                ]
                heapq.heapify(heap)
            if not heap:
                break
            _, r, c = heapq.heappop(heap)
        rdata = rows.get(r)
        if rdata is None or rdata.get(c) not in (1, -1):
            continue
        cost = (len(rdata) - 1) * (len(cols[c]) - 1)
        if lone and cost:
            continue  # no longer alone in its row or column
        if not lone and heap and cost > heap[0][0]:
            heapq.heappush(heap, (cost, r, c))
            continue

        # pivot on (r, c): clear column c by row operations, then drop the
        # pivot row and column (the row cleanup is a sequence of column
        # operations that only touch the dropped row)
        pivots.append(c)
        prow = rows.pop(r)
        piv = prow[c]
        for cc in prow:
            cols[cc].discard(r)
        for r2 in cols.pop(c):
            row2 = rows[r2]
            f = row2.pop(c) * piv  # equals entry / piv since piv is +-1
            for cc, v in prow.items():
                if cc == c:
                    continue
                new = row2.get(cc, 0) - f * v
                if new:
                    if cc not in row2:
                        cols[cc].add(r2)
                    row2[cc] = new
                    if new in (1, -1):  # fill: not a lone pivot, so the heap is built
                        heapq.heappush(heap, ((len(row2) - 1) * (len(cols[cc]) - 1), r2, cc))
                elif cc in row2:
                    del row2[cc]
                    cols[cc].discard(r2)
            if len(row2) == 1:
                stack.append((r2, next(iter(row2))))
            elif not row2:
                del rows[r2]
        for cc in prow:
            if cc != c:
                rs = cols[cc]
                if len(rs) == 1:
                    stack.append((next(iter(rs)), cc))
                elif not rs:
                    del cols[cc]

    rank = len(pivots) + len(mat.peeled)
    pivot_cols = frozenset(pivots)
    if not rows:
        return SNFResult(rank, (), pivot_cols)

    # dense residual: no +-1 entries left
    live_cols = {c for rdata in rows.values() for c in rdata}
    diag = _dense_smith_diagonal([[rdata.get(c, 0) for c in live_cols] for rdata in rows.values()])
    divisors = tuple(d for d in diag if d > 1)
    return SNFResult(rank + len(diag), divisors, pivot_cols)


def _dense_smith_diagonal(m: list[list[int]]) -> list[int]:
    """Diagonal of the Smith form of a dense matrix, units included, in
    divisibility order; ``m`` is reduced in place.

    Each round pivots on an entry p of least size.  It reduces p's column
    by row operations, then p's row by column operations, each entry by
    its floor quotient by p.  If both are then clear apart from p, p's row
    and column split off as the summand (|p|); their deletion leaves the
    rest of the matrix as it was.  Otherwise each entry left over in them
    is a remainder, smaller than |p|, so the next round's pivot is smaller.
    So each round splits off a row and column or lowers the least size, a
    positive integer, and the rounds end.  The recorded pivots give a diagonal matrix
    equivalent to ``m``, and ``invariant_factors`` puts it in Smith form.
    """
    diag: list[int] = []
    while True:
        size = 0
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                if v and (not size or abs(v) < size):
                    size, pi, pj = abs(v), i, j
        if not size:
            return invariant_factors(diag)
        prow = m[pi]
        p = prow[pj]
        for row in m:
            if row is not prow and row[pj]:
                q = row[pj] // p
                for j, v in enumerate(prow):
                    row[j] -= q * v
        for j, v in enumerate(prow):
            if j != pj and v:
                q = v // p
                for row in m:
                    row[j] -= q * row[pj]
        left = any(row[pj] for row in m if row is not prow)
        if left or any(v for j, v in enumerate(prow) if j != pj):
            continue
        diag.append(size)
        del m[pi]
        for row in m:
            del row[pj]


def invariant_factors(values: Iterable[int]) -> list[int]:
    """Diagonal of the Smith form of diag(values), in divisibility order:
    the invariant factors of the sum of the groups Z/v, units and zeros
    included.

    One identity does it: Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), as
    gcd * lcm = a * b and the two sides have the same primary parts.  For
    each i < j in turn, (d_i, d_j) becomes (gcd, lcm); after its pairs,
    d_i divides every later entry, and the later pairs keep that, as they
    only take gcds and lcms of its multiples.

    >>> invariant_factors([4, 6, 1, 0])
    [1, 2, 12, 0]
    >>> invariant_factors([-2, 3])
    [1, 6]
    """
    d = [abs(v) for v in values]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            g = gcd(a, b)
            if g != a:  # a does not divide b, so g > 0
                d[i], d[j] = g, a // g * b
    return d


def homology_of_complex(
    dims: list[int], boundaries: Iterable[tuple[int, SparseMatrix]]
) -> list[tuple[int, tuple[int, ...]]]:
    """Homology of a finite chain complex of free Z-modules.

    ``dims[k]`` is the rank of the degree-k chain group C_k and
    ``boundaries`` yields pairs (k, matrix of d_k: C_k -> C_(k-1));
    degrees it skips have zero boundary.  Each matrix is released once
    its Smith form is known, so a generator may build them one at a
    time.  Returns, per degree, the free rank dims[k] - rank d_k -
    rank d_(k+1) together with the torsion divisors, which come from the
    Smith form of d_(k+1).

    Boundaries given from the bottom degree up are compressed: d_(k+1) is
    reduced without the rows in the ``pivot_cols`` Q of d_k, when d_k came
    first.  This keeps the rank and the divisors of d_(k+1).  The unit
    pivots of d_k sit at (s_i, q_i), q_i in Q, s_i in a set S of its rows,
    and each replaces the rest of the matrix by its Schur complement: by
    det [[u, b], [c, D]] = u det(D - c u^-1 b), the S x Q submatrix
    d_k[S, Q] has determinant the product of the pivots, +-1, so its
    inverse is an integer matrix.  As d_k d_(k+1) = 0, its rows S give
    d_k[S, Q] d_(k+1)[Q, :] = -d_k[S, Q^c] d_(k+1)[Q^c, :], so the rows Q
    of d_(k+1) are -d_k[S, Q]^-1 d_k[S, Q^c] times its other rows, an
    integer combination.  Subtracting it is a unimodular row operation
    that leaves them zero, so dropping them keeps the Smith form.  A d_k
    that was itself reduced without some rows is still killed by
    d_(k+1), so the argument holds for it too.  Dense-phase pivots are
    not unit pivots and are never dropped.

    A matrix with ``peeled`` rows stands for d_(k+1) U with U unimodular
    (see ``SparseMatrix``): it has the image of d_(k+1), so the same
    homology, and d_k d_(k+1) U = 0, so the argument above holds for it.
    A boundary that comes before the one below it is reduced whole.
    """
    snf: dict[int, SNFResult] = {}
    zero = SNFResult(0, ())
    for k, mat in boundaries:
        snf[k] = smith_normal_form(mat, snf.get(k - 1, zero).pivot_cols)
        del mat  # not held while the next boundary is built
    out = []
    for k in range(len(dims)):
        incoming = snf.get(k + 1, zero)
        betti = dims[k] - snf.get(k, zero).rank - incoming.rank
        out.append((betti, incoming.divisors))
    return out
