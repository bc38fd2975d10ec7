"""Exact integer linear algebra: sparse Smith normal form and rank.

Boundary matrices arriving here are extremely sparse with entries +-1, so
elimination runs in two phases: a sparse phase that pivots only on unit
entries chosen by Markowitz cost (unimodular, no coefficient growth, each
pivot contributes elementary divisor 1), then a dense textbook Smith
reduction on whatever small stubborn block is left.  All arithmetic uses
Python integers; intermediate values may exceed 64 bits.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import MaghomError


@dataclass(frozen=True)
class SparseMatrix:
    """Integer matrix stored as {(row, col): nonzero value}."""

    entries: dict[tuple[int, int], int]
    nrows: int
    ncols: int

    def is_zero(self) -> bool:
        return not self.entries


@dataclass(frozen=True)
class SNFResult:
    """Rank and nontrivial elementary divisors of an integer matrix.

    ``divisors`` lists the diagonal entries > 1 of the Smith form, in
    divisibility order d1 | d2 | ... .
    """

    rank: int
    divisors: tuple[int, ...]


def smith_normal_form(mat: SparseMatrix) -> SNFResult:
    """Rank and elementary divisors via hybrid sparse/dense reduction."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in mat.entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)

    heap: list[tuple[int, int, int]] = []
    for r, rdata in rows.items():
        for c, v in rdata.items():
            if v in (1, -1):
                heap.append(((len(rdata) - 1) * (len(cols[c]) - 1), r, c))
    heapq.heapify(heap)

    rank = 0
    while heap:
        cost, r, c = heapq.heappop(heap)
        rdata = rows.get(r)
        if rdata is None:
            continue
        piv = rdata.get(c)
        if piv not in (1, -1):
            continue
        current = (len(rdata) - 1) * (len(cols[c]) - 1)
        if heap and current > heap[0][0]:
            heapq.heappush(heap, (current, r, c))
            continue

        # pivot on (r, c): clear the column by row operations, then drop
        # the pivot row and column (the row cleanup is a sequence of
        # column operations that only touch the dropped row).
        prow = rows.pop(r)
        for cc in prow:
            cols[cc].discard(r)
            if not cols[cc]:
                del cols[cc]
        for r2 in list(cols.get(c, ())):
            row2 = rows[r2]
            f = row2.pop(c) * piv  # equals entry / piv since piv is +-1
            for cc, v in prow.items():
                if cc == c:
                    continue
                new = row2.get(cc, 0) - f * v
                if new:
                    if cc not in row2:
                        cols.setdefault(cc, set()).add(r2)
                    row2[cc] = new
                    if new in (1, -1):
                        heapq.heappush(
                            heap,
                            ((len(row2) - 1) * (len(cols[cc]) - 1), r2, cc),
                        )
                else:
                    if cc in row2:
                        del row2[cc]
                        cols[cc].discard(r2)
                        if not cols[cc]:
                            del cols[cc]
            if not row2:
                del rows[r2]
        cols.pop(c, None)
        rank += 1

    if not rows:
        return SNFResult(rank, ())

    # dense residual: no +-1 entries left
    live_rows = sorted(rows)
    live_cols = sorted({c for rdata in rows.values() for c in rdata})
    cindex = {c: j for j, c in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for i, r in enumerate(live_rows):
        for c, v in rows[r].items():
            dense[i][cindex[c]] = v
    diag = _dense_smith_diagonal(dense)
    divisors = tuple(d for d in diag if d > 1)
    return SNFResult(rank + len(diag), divisors)


def _dense_smith_diagonal(m: list[list[int]]) -> list[int]:
    """Diagonal of the Smith form of a dense matrix, in divisibility order."""
    nr, nc = len(m), len(m[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < nr and t < nc:
        # smallest nonzero entry in the trailing block becomes the pivot
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = m[i][j]
                if v and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        for row in m:
            row[t], row[bj] = row[bj], row[t]

        while True:
            # reduce column t
            restart = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, nc):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:            # remainder smaller than pivot
                        m[t], m[i] = m[i], m[t]
                        restart = True
                        break
            if restart:
                continue
            # reduce row t
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, nr):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            # divisibility: pivot must divide every remaining entry
            piv = m[t][t]
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, nc):
                m[t][j] += m[offender][j]
        diag.append(abs(m[t][t]))
        t += 1
    return diag


def rank_fraction_free(rows) -> int:
    """Rank by Bareiss fraction-free elimination; independent of the SNF path.

    >>> rank_fraction_free([[2, 4], [1, 2]])
    1
    >>> rank_fraction_free([[1, 0, 2], [0, 3, 1], [1, 3, 3]])
    2
    """
    m = [[int(v) for v in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    pr = 0
    for pc in range(nc):
        piv_row = next((i for i in range(pr, nr) if m[i][pc]), None)
        if piv_row is None:
            continue
        m[pr], m[piv_row] = m[piv_row], m[pr]
        piv = m[pr][pc]
        for i in range(pr + 1, nr):
            for j in range(pc + 1, nc):
                num = piv * m[i][j] - m[i][pc] * m[pr][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise MaghomError("fraction-free elimination lost exactness")
                m[i][j] = q
            m[i][pc] = 0
        prev = piv
        rank += 1
        pr += 1
        if pr == nr:
            break
    return rank


def homology_of_complex(
    dims: list[int], boundaries: Iterable[tuple[int, SparseMatrix]]
) -> list[tuple[int, tuple[int, ...]]]:
    """Homology of a finite chain complex of free Z-modules.

    ``dims[k]`` is the rank of the degree-k chain group and ``boundaries``
    yields pairs (k, matrix of the map from degree k to degree k-1);
    degrees it skips have zero boundary.  Each matrix is released once
    its Smith form is known, so a generator may build them one at a
    time.  Returns, per degree, the free rank together with the torsion
    divisors, which come from the Smith form of the incoming boundary.
    """
    snf: dict[int, SNFResult] = {}
    for k, mat in boundaries:
        snf[k] = smith_normal_form(mat)
        del mat  # not held while the next boundary is built
    zero = SNFResult(0, ())
    out = []
    for k in range(len(dims)):
        incoming = snf.get(k + 1, zero)
        betti = dims[k] - snf.get(k, zero).rank - incoming.rank
        out.append((betti, incoming.divisors))
    return out
