"""Reference definitions that the tests check the library against.

They restate the magnitude-complex rules in the plainest form, one tuple
at a time; the library computes the same things inline and in bulk.
Some are the library's former simplex-based routes, kept here as the
second route for the sequence-based code that replaced them.
"""

from collections import namedtuple
from math import inf

from maghom.snf import SparseMatrix


def sequence_length(g, points):
    """Sum of consecutive distances along the tuple."""
    return sum(g.dist[points[i]][points[i + 1]] for i in range(len(points) - 1))


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
