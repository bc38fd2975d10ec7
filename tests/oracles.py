"""Reference definitions that the tests check the library against.

They restate the magnitude-complex rules in the plainest form, one tuple
at a time; the library computes the same things inline and in bulk.
Some are the library's former simplex-based routes, kept here as the
second route for the sequence-based code that replaced them.
"""

from collections import namedtuple
from itertools import accumulate, combinations, product
from math import gcd, inf

from maghom import symmetry
from maghom.errors import MaghomError, basis_cap, check_length, over_cap
from maghom.homology import (
    MHTable,
    _checked,
    boundary_matrix,
    enumerate_sequences,
    merge_torsion,
    mh_column,
)
from maghom.magnitude import magnitude_series
from maghom.polyq import IntPoly
from maghom.snf import SparseMatrix, homology_of_complex, smith_normal_form


def sequence_length(g, points):
    """Sum of consecutive distances along the tuple."""
    return sum(g.dist[points[i]][points[i + 1]] for i in range(len(points) - 1))


def zeta_matrix(g):
    """Matrix with (x, y) entry the monomial q^d(x,y)."""
    return [[Poly.monomial(1, g.dist[x][y]) for y in g.vertices] for x in g.vertices]


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


def build_matching(pair, s):
    """The certificate matching as built before it read the boundary rows:
    each gap-first cell's mate is found by inserting the middle into its
    sequence and looking the image up in an index over every cell."""
    from maghom.errors import CertificateError, InternalCheckError
    from maghom.matching import MatchingBuild, _by_key, _validate_structure, require_diameter_2

    g = pair.g
    require_diameter_2(g)
    _validate_structure(g, s)
    middle = _by_key(s.quads, "quadruples") | _by_key(s.triples, "triples")
    cells, dist, rules = pair.cells, g.dist, s.quads | s.triples
    untouched, gap_first, at = [], [], {}
    for c, seq in enumerate(cells):
        k = len(seq) - 1
        for t in range(k):
            row = dist[seq[t]]
            if row[seq[t + 1]] == 2:
                gap_first.append(c)
                break
            if (
                t < k - 1
                and row[seq[t + 2]] == 2
                and (seq[t - 1 : t + 3] if t else seq[:3]) in rules
            ):
                break
        else:
            untouched.append(c)
            continue
        at[c] = t
    index = {seq: c for c, seq in enumerate(cells)}
    mates = []
    for c in gap_first:
        seq, j = cells[c], at[c]
        mid = middle.get(seq[j - 1 : j + 2] if j else seq[:2])
        if mid is None:
            raise CertificateError(f"no certificate entry for the gap at {j} in {seq}")
        m = index[seq[: j + 1] + (mid,) + seq[j + 1 :]]
        image, i = cells[m], at[m]
        if image[: i + 1] + image[i + 2 :] != seq:
            raise CertificateError(f"deletion does not invert insertion at {pair.simplex(c)}")
        mates.append((c, m))
    pattern_first = len(at) - len(gap_first)
    if len(mates) != pattern_first:
        raise InternalCheckError(f"{pattern_first - len(mates)} pattern-first cells unmatched")
    return MatchingBuild(frozenset(mates), tuple(untouched))


def well_shaped(g, t):
    """The distance conditions of a triple (beta, gamma, delta) or a
    quadruple (alpha, beta, gamma, delta), written out for each."""
    d = g.dist
    if len(t) == 3:
        be, ga, de = t
        return d[be][ga] == 1 and d[ga][de] == 1 and d[be][de] == 2
    al, be, ga, de = t
    return d[al][be] == 1 and d[be][ga] == 1 and d[ga][de] == 1 and d[be][de] == 2


def star_failures(g):
    """The keys (alpha, beta, delta) with d(alpha,beta) = 1 and
    d(beta,delta) = 2 that no middle gamma, d(beta,gamma) = d(gamma,delta)
    = 1, meets with d(alpha,gamma) <= 1, increasing."""
    d, vs = g.dist, g.vertices
    return [
        (al, be, de)
        for al in vs
        for be in vs
        for de in vs
        if d[al][be] == 1
        and d[be][de] == 2
        and not any(d[be][ga] == d[ga][de] == 1 and d[al][ga] <= 1 for ga in vs)
    ]


def star_property(g):
    """Every key (alpha, beta, delta) has a middle near alpha."""
    return not star_failures(g)


def pawful_violations(g):
    """The triples (x, y, z) with d(x,y) = d(y,z) = 2 and d(x,z) = 1
    that no vertex is adjacent to all of, increasing."""
    d, vs = g.dist, g.vertices
    return [
        (x, y, z)
        for x in vs
        for y in vs
        for z in vs
        if d[x][y] == d[y][z] == 2
        and d[x][z] == 1
        and not any(d[w][x] == d[w][y] == d[w][z] == 1 for w in vs)
    ]


# --- symmetry -----------------------------------------------------------------


def automorphism_generators(g):
    """The library's former recursive first-path search: the same
    generators, in the same order, within ``symmetry.SEARCH_NODES``
    refinements, each leaf checked against the edge set."""
    refine, individualise, target = symmetry.refine, symmetry._individualise, symmetry._target
    edges = set(g.edges)
    cells = refine(g, (tuple(g.vertices),))
    path = []
    while len(cells) < g.n:
        i = target(cells)
        path.append((cells, i, cells[i][0]))
        cells = refine(g, individualise(cells, i, cells[i][0]))
    first_leaf = [cell[0] for cell in cells]
    shapes = [tuple(map(len, node)) for node, _, _ in path] + [(1,) * g.n]
    gens = []
    nodes = 0

    def orbit_of(v):
        orbit, todo = {v}, [v]
        while todo:
            x = todo.pop()
            for y in [perm[x] for perm in gens]:
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        return orbit

    def search(cells, depth):
        nonlocal nodes
        if tuple(map(len, cells)) != shapes[depth]:
            return None
        if len(cells) == g.n:
            perm = [0] * (g.n + 1)
            for v, cell in zip(first_leaf, cells):
                perm[v] = cell[0]
            image = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
            return perm if image == edges else None
        i = target(cells)
        for u in cells[i]:
            if nodes >= symmetry.SEARCH_NODES:
                return None
            nodes += 1
            found = search(refine(g, individualise(cells, i, u)), depth + 1)
            if found:
                return found
        return None

    for depth in range(len(path) - 1, -1, -1):
        node, i, v = path[depth]
        orbit = orbit_of(v)
        for w in node[i]:
            if w in orbit or nodes >= symmetry.SEARCH_NODES:
                continue
            nodes += 1
            found = search(refine(g, individualise(node, i, w)), depth + 1)
            if found:
                gens.append(found)
                orbit = orbit_of(v)
    return gens


def pair_orbits(g, gens):
    """The library's former orbit closure: from each pair not yet in an
    orbit, in increasing order, apply reversal and every generator in
    ``gens`` until nothing new appears; each orbit's least pair mapped to
    its size, in increasing order of pairs."""
    sizes, seen = {}, set()
    for pair in product(g.vertices, repeat=2):
        if pair in seen:
            continue
        orbit, todo = {pair}, [pair]
        while todo:
            a, b = todo.pop()
            for image in [(b, a)] + [(perm[a], perm[b]) for perm in gens]:
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        sizes[pair] = len(orbit)
    return sizes


# --- sparse integer matrices ------------------------------------------------


def from_dense(rows):
    """The SparseMatrix of a list of integer rows."""
    entries = {(i, j): int(v) for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return SparseMatrix.from_entries(entries, len(rows), len(rows[0]) if rows else 0)


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
    return SparseMatrix.from_entries({rc: v for rc, v in out.items() if v}, a.nrows, b.ncols)


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


def determinant(rows):
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination.

    >>> determinant([[2, 1], [4, 3]])
    2
    >>> determinant([[0, 1], [1, 0]])
    -1
    >>> determinant([])
    1
    """
    m = [[int(v) for v in row] for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv_row = next((i for i in range(k, n) if m[i][k]), None)
        if piv_row is None:
            return 0
        if piv_row != k:
            m[k], m[piv_row] = m[piv_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def determinantal_divisors(rows):
    """Diagonal of the Smith form of an integer matrix from its minors,
    with no reduction of the matrix: d_k is the gcd of its k x k minors
    (d_0 = 1), the k-th entry is d_k / d_(k-1), and the rank is the last
    k with d_k != 0 (once the k x k minors vanish, the larger ones do, by
    Laplace expansion).

    >>> determinantal_divisors([[2, 0], [0, 3]])
    [1, 6]
    >>> determinantal_divisors([[2, 4], [4, 8]])
    [2]
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    diag, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                d = gcd(d, determinant([[rows[r][c] for c in cs] for r in rs]))
        if not d:
            break
        diag.append(d // prev)
        prev = d
    return diag


def homology_uncleared(dims, boundaries):
    """Homology with every full boundary (k, d_k) reduced on its own,
    nothing cleared or compressed: rank H_k = dims[k] - rank d_k -
    rank d_(k+1), torsion from the divisors of d_(k+1)."""
    snf = {k: smith_normal_form(mat) for k, mat in sorted(boundaries, key=lambda km: km[0])}
    out = []
    for k in range(len(dims)):
        rank_in = snf[k + 1].rank if k + 1 in snf else 0
        rank_out = snf[k].rank if k in snf else 0
        out.append((dims[k] - rank_out - rank_in, snf[k + 1].divisors if k + 1 in snf else ()))
    return out


def diagonal_pair_by_pair(g, lmax):
    """``is_diagonal_up_to`` through ``mh_column``, which reduces one
    endpoint pair at a time: does every group with k != l vanish for
    3 <= l <= lmax?  Lengths go in increasing order, so a budget is hit
    where the library hits it."""
    summands = symmetry.pair_orbits(g)
    for length in range(3, lmax + 1):
        column = mh_column(g, length, summands)
        if any(rank or tors for k, (rank, tors) in enumerate(column) if k != length):
            return False
    return True


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


# --- polynomials ----------------------------------------------------------------


class Poly(IntPoly):
    """An IntPoly with the ring operations, which the library no longer
    needs: built from coefficients, an int or an IntPoly, and mixed freely
    with IntPoly and int operands.

    >>> p = Poly([-6, -10, 4, 2])
    >>> p * IntPoly.one() == p
    True
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        super().__init__(coeffs.coeffs if isinstance(coeffs, IntPoly) else coeffs)

    @staticmethod
    def monomial(coeff, degree):
        """coeff * q^degree"""
        return Poly([0] * degree + [coeff])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, Poly(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -Poly(other)

    def __mul__(self, other):
        a, b = self.coeffs, Poly(other).coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def exact_div(self, other):
        return Poly(super().exact_div(other))


def unpack_by_digit(v, k, digits):
    """The balanced base-2^k digits of v, lowest first, taken off one at a
    time: each step reads the lowest digit and shifts it out of the whole
    value.  None when a value is left over.  The library's former reader.

    >>> unpack_by_digit(3 * 2**16 - 2**8 + 5, 8, 4)
    [5, -1, 3, 0]
    """
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    for _ in range(digits):
        c = ((v + half) & mask) - half
        out.append(c)
        v = (v - c) >> k
    return None if v else out


def euclid_gcd(a, b):
    """gcd in Z[q] with positive leading coefficient, by the primitive-part
    Euclidean algorithm: pseudo-remainders on primitive parts, with the
    integer content handled separately.  The library's former gcd.

    >>> euclid_gcd(Poly([-1, 0, 1]), Poly([1, 1])) == Poly([1, 1])   # q^2-1 vs q+1
    True
    """
    if not a:
        g = Poly(b)
    elif not b:
        g = Poly(a)
    else:
        cont = gcd(a.content(), b.content())
        a, b = Poly(a.primitive()), Poly(b.primitive())
        while b:
            # pseudo-remainder: lead(b)^k * a mod b stays in Z[q]
            r = a
            while r and r.degree >= b.degree:
                r = r * b.lead - b * Poly.monomial(r.lead, r.degree - b.degree)
            a, b = b, Poly(r.primitive())
        g = Poly(a.primitive()) * cont
    return -g if g.lead < 0 else g


# --- magnitude ----------------------------------------------------------------


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


# --- the lexicographic homology pipeline ------------------------------------
# The library's route before each degree's cells came from the insertions
# into the degree below: every degree of the window enumerated whole, in
# lexicographic order and charged on its own, the walks charged after
# them, then per complex the boundaries of given bases, bottom up, here
# built by deletion, the top one by the library's insertion, peeled with
# the columns of the map below that hold an entry as its ``faced`` rows.


def indexed_boundary(g, upper, lower):
    """The boundary from the span of ``upper`` to that of ``lower``, two
    bases of one length in the given orders, built by deletion, column
    by column: column x gets (-1)^i at the row of x with its smooth
    position i deleted.  A face missing from ``lower`` raises KeyError."""
    index = {y: r for r, y in enumerate(lower)}
    rows = {}
    for col, x in enumerate(upper):
        for i in range(1, len(x) - 1):
            if is_smooth(g, x, i):
                rows.setdefault(index[x[:i] + x[i + 1 :]], {})[col] = (-1) ** i
    return SparseMatrix(rows, len(lower), len(upper))


def lexicographic_cells(g, length, summands):
    """(low, bases): every degree k with ceil(l / diam) <= k < l of the
    checked ``summands`` in lexicographic order, each charged to the
    basis cap by its own enumeration, then the walk count charged."""
    maxd = g.diameter
    low = -(-length // maxd) if maxd else length
    bases = [enumerate_sequences(g, k, length, summands) for k in range(low, length)]
    walks = g.walks(length)
    cap = basis_cap() if length else 0
    if length and sum(m * walks[a][b] for (a, b), m in summands.items()) > cap:
        raise over_cap(f"degree-{length} length-{length} basis", cap)
    return low, bases


def indexed_boundaries(g, bases, walks=None):
    """(i, d_i) for the complex of ``bases`` (consecutive degrees of one
    length, the last one l - 1) and the walks: each d_i between the bases
    (``indexed_boundary``), then d_l by insertion, peeled, its columns
    appended to ``walks`` when given."""
    faced = set()
    for k in range(1, len(bases)):
        if bases[k] and bases[k - 1]:
            mat = indexed_boundary(g, bases[k], bases[k - 1])
            if k == len(bases) - 1:
                faced = {c for _, c in mat.entries}
            yield k, mat
    if bases and bases[-1]:
        yield len(bases), boundary_matrix(g, bases[-1], walks, faced)


def lexicographic_pair(g, a, b, length):
    """``ai_complex.relative_complex`` by the lexicographic pipeline: the
    cells of each dimension below the top in lexicographic order, the
    order of their simplices, each map between them built by deletion
    (``indexed_boundary``), and d_l by the library's insertion,
    unpeeled, its columns the top cells listed, in order of first
    appearance."""
    from maghom.ai_complex import RelativeComplex

    low, window = lexicographic_cells(g, length, _checked(g, {(a, b): 1}))
    bases = ([()] * low + list(window))[2:]  # degrees 2 .. l-1
    boundaries = {
        d: indexed_boundary(g, bases[d], bases[d - 1])
        for d in range(1, len(bases))
        if bases[d] and bases[d - 1]
    }
    top = []
    if bases and bases[-1]:
        boundaries[len(bases)] = boundary_matrix(g, bases[-1], top)
    bases.append(top)
    starts = tuple(accumulate(map(len, bases), initial=0))
    cells = tuple(x for basis in bases for x in basis)
    isolated = g.walks(length)[a][b] - len(top)
    return RelativeComplex(g, a, b, length, cells, starts, boundaries, isolated)


def indexed_homology(g, bases, top):
    """Groups of the complex of ``bases`` and ``top`` walks, compressed
    from the bottom up."""
    return homology_of_complex([len(b) for b in bases] + [top], indexed_boundaries(g, bases))


def indexed_groups(g, length, summands):
    """The nonzero groups of the length by degree, as the library's
    ``homology._groups``: the cells sorted into per-pair bases, each pair
    with a length-l walk reduced on its own."""
    walks = g.walks(length)
    low, cells = lexicographic_cells(g, length, summands)
    bases = {}
    for degree in cells:
        for x in degree:
            bases.setdefault((x[0], x[-1]), [[] for _ in cells])[len(x) - 1 - low].append(x)
    groups = {}
    for (a, b), m in summands.items():
        if walks[a][b]:
            pair = bases.get((a, b), [()] * len(cells))
            for k, group in enumerate(indexed_homology(g, pair, walks[a][b]), low):
                if group != (0, ()):
                    groups.setdefault(k, []).append((m, group))
    return {
        k: (sum(m * rank for m, (rank, _) in parts),
            merge_torsion((tors, m) for m, (_, tors) in parts))
        for k, parts in sorted(groups.items())
    }


def indexed_mh_table(g, lmax, summands=None):
    """``mh_table`` by the lexicographic pipeline."""
    check_length("lmax", lmax)
    summands = symmetry.pair_orbits(g) if summands is None else _checked(g, summands)
    return MHTable(lmax, {
        (k, length): group
        for length in range(lmax + 1)
        for k, group in indexed_groups(g, length, summands).items()
    })


def indexed_is_diagonal_up_to(g, lmax):
    """``is_diagonal_up_to`` by the lexicographic pipeline: from length 3
    on, the cells of all orbit pairs reduced as one complex per length."""
    check_length("lmax", lmax)
    summands = symmetry.pair_orbits(g)
    for length in range(3, lmax + 1):
        walks = g.walks(length)
        low, bases = lexicographic_cells(g, length, summands)
        column = indexed_homology(g, bases, sum(walks[a][b] for a, b in summands))
        if any(rank or tors for k, (rank, tors) in enumerate(column, low) if k != length):
            return False
    return True
