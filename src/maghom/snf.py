"""Exact integer linear algebra: sparse Smith normal form and the
homology of chain complexes.

Boundary matrices arriving here are extremely sparse with entries +-1,
stored by rows, so the Smith form comes in three phases.  The first is
coreduction (Kaczynski-Mrozek-Slusarek, "Homology computation by
reduction of chain complexes", 1998; Mrozek-Batko, "Coreduction homology
algorithm", 2009): a column whose only entry is +-1 is a unit pivot with
nothing to clear, so its row and column are retired at once.  This needs
no column sets: per column it keeps the number of entries and the XOR of
their row ids.  When the count is 1 the XOR is the row id itself, as
r ^ 0 = r (row 0 included), and retiring a row takes its id out of the
XOR of each of its columns again, as r ^ r = 0, while their counts go
down by one; a column whose count reaches 1 is queued.  Coreduction
makes no fill, so the two tables stay exact.  Almost every pivot of a
magnitude boundary is taken so.

The rows left get column sets and a sparse unimodular phase that pivots
only on unit entries (no coefficient growth, each pivot contributes
elementary divisor 1), each by one step: clear the pivot column by row
operations, then retire the pivot row and column.  The units are taken
from one heap, least Markowitz cost (row size - 1) * (column size - 1)
first (Markowitz, "The elimination form of the inverse", 1957).  The
entry of a row that a pivot leaves with one entry goes on the heap at
cost zero, as its pivot only deletes entries, and like every entry there
it is tested when it comes off.  A dense Smith reduction then takes the
small block that has no unit left: it splits off one pivot of least size
at a time, and ``invariant_factors`` puts the pivots in divisibility
order by Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b).  All arithmetic uses
Python integers; intermediate values may exceed 64 bits.  A matrix may
come with rows its producer has peeled already (``SparseMatrix.peeled``):
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
from collections.abc import Collection, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from math import gcd


class _Entries(Mapping):
    """Read-only {(row, col): value} view of row-stored entries; its
    ``len`` is the number of stored entries."""

    def __init__(self, rows: dict[int, dict[int, int]]):
        self._rows = rows

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self._rows[key[0]][key[1]]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((r, c) for r, rdata in self._rows.items() for c in rdata)

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))


@dataclass(frozen=True)
class SparseMatrix:
    """Integer matrix stored by rows, {row: {col: nonzero value}}, beside
    the ``peeled`` rows: each stands for a unit pivot whose row and column
    hold no other entry, and none of its entries is stored.  A row with
    no entry may be stored empty or left out.

    So the matrix is I_|peeled| on the peeled rows and their unit columns
    (not counted in ``ncols``), plus the stored entries on the other rows.
    ``boundary_matrix`` fills one dict per row as it inserts, and peels
    the top boundary as it assembles it; ``from_entries`` takes a
    {(row, col): value} dict, and ``entries`` is that view of the rows.
    """

    rows: dict[int, dict[int, int]]
    nrows: int
    ncols: int
    peeled: frozenset[int] = frozenset()

    @classmethod
    def from_entries(cls, entries: Mapping[tuple[int, int], int],
                     nrows: int, ncols: int) -> SparseMatrix:
        """The matrix with ``entries``, a {(row, col): nonzero value}
        mapping; raise ValueError for an entry outside ``nrows`` x
        ``ncols``, as the Smith form indexes its column tables by col."""
        rows: dict[int, dict[int, int]] = {}
        for (r, c), v in entries.items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r}, {c}) is outside {nrows} x {ncols}")
            rows.setdefault(r, {})[c] = v
        return cls(rows, nrows, ncols)

    @property
    def entries(self) -> Mapping[tuple[int, int], int]:
        return _Entries(self.rows)


@dataclass(frozen=True)
class SNFResult:
    """Rank and nontrivial elementary divisors of an integer matrix.

    ``divisors`` lists the diagonal entries > 1 of the Smith form, in
    divisibility order d1 | d2 | ... .  ``pivot_cols`` are the columns of
    the unit pivots of coreduction and of the Markowitz heap (none of
    the dense phase), the rows that ``homology_of_complex`` leaves out of
    the next boundary up.  A peeled row's unit column is not numbered, so
    it is not among them.
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

    Coreduction comes first: a column holding one entry, +-1, retires
    that entry's row, which the XOR of the column's row ids names (see
    the module docstring).  Only the rows left are copied and get column
    sets.  Every other unit pivot comes off the Markowitz heap and runs
    one step: clear its column and retire its row and column.  Each
    entry that this turns into +-1 goes on the heap at its Markowitz
    cost, and the entry of each row that it leaves with one entry at
    cost 0.  An entry popped is skipped unless it is still a unit, and
    pushed back if its cost has grown past the heap's least.  The rows
    left when no unit remains go to ``_dense_smith_diagonal`` as one
    dense block.  ``pivot_cols`` holds the unit pivots of both sources:
    each is a unit pivot of the matrix reduced by the ones before it,
    which is what compression needs.
    """
    rows = {r: rdata for r, rdata in mat.rows.items() if rdata and r not in dropped}
    # coreduction: a column whose one entry is +-1 is a unit pivot with
    # nothing to clear; it retires its row, the one that the XOR of the
    # column's row ids names, as the column holds one row
    count, xor = [0] * mat.ncols, [0] * mat.ncols
    for r, rdata in rows.items():
        for c in rdata:
            count[c] += 1
            xor[c] ^= r
    pivots: list[int] = []
    queue = [c for c, n in enumerate(count) if n == 1]
    while queue:
        c = queue.pop()
        if count[c] == 1 and rows[r := xor[c]][c] in (1, -1):
            pivots.append(c)
            for cc in rows.pop(r):
                count[cc] -= 1
                xor[cc] ^= r
                if count[cc] == 1:
                    queue.append(cc)
    cols: dict[int, set[int]] = {}
    for r, rdata in rows.items():
        rows[r] = rdata = dict(rdata)  # reduced in place below; ``mat`` is left as it was
        for c in rdata:
            cols.setdefault(c, set()).add(r)
    # the units left, least Markowitz cost first; the entry of a row that
    # a pivot leaves with one entry goes on at cost 0, as its pivot makes
    # no fill, and every entry is tested when it comes off
    heap = [((len(rdata) - 1) * (len(cols[c]) - 1), r, c)
            for r, rdata in rows.items() for c, v in rdata.items() if v in (1, -1)]
    heapq.heapify(heap)
    while rows and heap:
        _, r, c = heapq.heappop(heap)
        rdata = rows.get(r)
        if rdata is None or rdata.get(c) not in (1, -1):
            continue
        cost = (len(rdata) - 1) * (len(cols[c]) - 1)
        if heap and cost > heap[0][0]:
            heapq.heappush(heap, (cost, r, c))  # its cost grew since it went on
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
                    if new in (1, -1):
                        heapq.heappush(heap, ((len(row2) - 1) * (len(cols[cc]) - 1), r2, cc))
                else:  # new is 0, and f * v is not: cc was in the row
                    del row2[cc]
                    cols[cc].discard(r2)
            if len(row2) == 1:
                heapq.heappush(heap, (0, r2, next(iter(row2))))
            elif not row2:
                del rows[r2]

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


_ZERO = SNFResult(0, ())  # the Smith form of a zero map


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
    for k, mat in boundaries:
        snf[k] = smith_normal_form(mat, snf.get(k - 1, _ZERO).pivot_cols)
        del mat  # not held while the next boundary is built
    return groups_of(dims, snf)


def groups_of(dims: list[int], snf: Mapping[int, SNFResult]) -> list[tuple[int, tuple[int, ...]]]:
    """Free rank and torsion divisors of each degree k < len(dims) of a
    complex with ``dims[k]`` cells in degree k and ``snf[k]`` the Smith
    form of d_k (a degree missing has d_k = 0): dims[k] - rank d_k -
    rank d_(k+1), and the divisors of d_(k+1)."""
    out = []
    for k in range(len(dims)):
        incoming = snf.get(k + 1, _ZERO)
        out.append((dims[k] - snf.get(k, _ZERO).rank - incoming.rank, incoming.divisors))
    return out
