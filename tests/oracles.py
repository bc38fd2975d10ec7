"""Reference definitions that the tests check the library against.

They restate the magnitude-complex rules in the plainest form, one tuple
at a time; the library computes the same things inline and in bulk.
Some are the library's former simplex-based routes, kept here as the
second route for the sequence-based code that replaced them.
"""

from collections import namedtuple
from itertools import accumulate
from math import inf

from maghom.errors import MaghomError
from maghom.homology import mh_column
from maghom.magnitude import magnitude_series
from maghom.polyq import IntPoly
from maghom.snf import SparseMatrix, smith_normal_form


def sequence_length(g, points):
    """Sum of consecutive distances along the tuple."""
    return sum(g.dist[points[i]][points[i + 1]] for i in range(len(points) - 1))


def zeta_matrix(g):
    """Matrix with (x, y) entry the monomial q^d(x,y)."""
    return [[IntPoly.monomial(1, g.dist[x][y]) for y in g.vertices] for x in g.vertices]


def is_smooth(g, points, i):
    """Deleting position i preserves the length (0 < i < len-1 assumed)."""
    d = g.dist
    return d[points[i - 1]][points[i + 1]] == (
        d[points[i - 1]][points[i]] + d[points[i]][points[i + 1]]
    )


# --- simplices of the path-pair complexes -----------------------------------


def simplex_to_sequence(a, b, simplex):
    """The completed vertex sequence (a, interior vertices, b)."""
    return (a,) + tuple(v for v, _ in simplex) + (b,)


def simplices(pair):
    """The cells of a relative complex in their (vertex, position) form."""
    return [pair.simplex(c) for c in range(len(pair.cells))]


def faces(s):
    """The codimension-1 faces of ``s``, the i-th (dropping s[i]) with sign (-1)^i."""
    return [(s[:i] + s[i + 1 :], (-1) ** i) for i in range(len(s))]


def is_closed_under_faces(cells):
    return all(f in cells for s in cells for f, _ in faces(s) if f)


# --- Morse matchings on simplex sets ----------------------------------------
# A matching here is a set of (lower simplex, upper simplex) pairs, and the
# covers of a simplex set are read off by dropping one element at a time.


def verify_matching(cells, pairs):
    """Check both matching axioms; report the first violation found."""
    cellset = set(cells)
    used = set()
    for low, high in sorted(pairs):
        if low not in cellset or high not in cellset:
            return False, f"pair ({low}, {high}) uses a cell outside the cell set"
        if not any(f == low for f, _ in faces(high)):
            return False, f"pair ({low}, {high}) is not a cover relation"
        for cell in (low, high):
            if cell in used:
                return False, f"cell {cell} appears in more than one pair"
            used.add(cell)
    return True, None


def is_acyclic(cells, pairs):
    """Depth-first cycle search on the covers, matched ones pointing up.

    Roots are taken in the order of ``cells`` and targets in sorted
    order; returns (False, cycle) for the first cycle met.
    """
    up = {c: [] for c in cells}
    for high in cells:
        for low, _ in faces(high):
            if low not in up:
                continue
            if (low, high) in pairs:
                up[low].append(high)
            else:
                up[high].append(low)
    for targets in up.values():
        targets.sort()
    color = dict.fromkeys(cells, 0)  # 0 unseen, 1 on the path, 2 done
    for root in cells:
        if color[root]:
            continue
        stack, path = [(root, 0)], [root]
        color[root] = 1
        while stack:
            cell, idx = stack[-1]
            if idx < len(up[cell]):
                stack[-1] = (cell, idx + 1)
                nxt = up[cell][idx]
                if color[nxt] == 1:
                    return False, path[path.index(nxt):] + [nxt]
                if not color[nxt]:
                    color[nxt] = 1
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[cell] = 2
                stack.pop()
                path.pop()
    return True, None


# --- certificates -------------------------------------------------------------


SequenceIndices = namedtuple("SequenceIndices", "pattern gap")


def sequence_indices(g, seq, s):
    """The first certificate-pattern index and the first distance-2 gap index.

    The pattern index is 0 when the leading triple (x0, x1, x2) is in the
    certificate, otherwise the least window start i with
    (x_(i-1), .., x_(i+2)) among the quadruples; the gap index is the
    least j with d(x_j, x_(j+1)) = 2.  Either is infinity when absent.
    """
    k = len(seq) - 1
    if k >= 2 and seq[0:3] in s.triples:
        pattern = 0
    else:
        pattern = next((i for i in range(1, k - 1) if seq[i - 1 : i + 3] in s.quads), inf)
    gap = next((j for j in range(k) if g.dist[seq[j]][seq[j + 1]] == 2), inf)
    return SequenceIndices(pattern, gap)


# --- sparse integer matrices ------------------------------------------------


def from_dense(rows):
    """The SparseMatrix of a list of integer rows."""
    entries = {(i, j): int(v) for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return SparseMatrix(entries, len(rows), len(rows[0]) if rows else 0)


def sparse_matmul(a, b):
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch in sparse product")
    b_rows = {}
    for (r, c), v in b.entries.items():
        b_rows.setdefault(r, []).append((c, v))
    out = {}
    for (r, k), va in a.entries.items():
        for c, vb in b_rows.get(k, ()):
            out[(r, c)] = out.get((r, c), 0) + va * vb
    return SparseMatrix({rc: v for rc, v in out.items() if v}, a.nrows, b.ncols)


def is_zero(mat):
    return not mat.entries


def rank_fraction_free(rows):
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


def homology_uncleared(dims, boundaries):
    """Homology with every full boundary (k, d_k) reduced bottom-up and
    nothing cleared: rank H_k = dims[k] - rank d_k - rank d_(k+1), torsion
    from the divisors of d_(k+1)."""
    snf = {k: smith_normal_form(mat) for k, mat in sorted(boundaries, key=lambda km: km[0])}
    out = []
    for k in range(len(dims)):
        rank_in = snf[k + 1].rank if k + 1 in snf else 0
        rank_out = snf[k].rank if k in snf else 0
        out.append((dims[k] - rank_out - rank_in, snf[k + 1].divisors if k + 1 in snf else ()))
    return out


def rank_mod_p(mat, p):
    """Rank of a SparseMatrix over the field Z/p, by sparse row reduction."""
    pivots = {}  # leading column -> reduced row with leading entry 1
    rows = {}
    for (r, c), v in mat.entries.items():
        rows.setdefault(r, {})[c] = v
    for row in rows.values():
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in pivots[lead].items():
                new = (row.get(c, 0) - f * v) % p
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)
    return len(pivots)


# --- magnitude ----------------------------------------------------------------


def dets_at_pivoting(quotient, t, p):
    """(det M(t), det B(t)) mod p, or None when det M(t) = 0 mod p, for the
    quotient (rows, sizes) of ``magnitude._quotient``: the library's former
    elimination, with row exchanges and no symmetry.

    One elimination of B(t) = [[M(t), 1], [sizes, 0]] with pivots taken
    from M's rows only: det M(t) is the signed pivot product and the
    corner left at the end is the Schur complement det B(t) / det M(t).
    """
    dist, sizes = quotient
    pw = [pow(t, d, p) for d in range(max(map(max, dist)) + 1)]
    ends = list(accumulate(reversed(sizes), initial=0))  # columns come last cell first
    rows = [[sum(pw[d] for d in row[a:b]) % p for a, b in zip(ends, ends[1:])][::-1] for row in dist]
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


def euler_check(g, lmax):
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
