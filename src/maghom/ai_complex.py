"""The path-pair simplicial complexes K_l(a,b) and K'_l(a,b).

Fix endpoints a, b and a length l >= 3.  Vertices of the complex are
pairs (vertex, position) with position strictly between the endpoint
slots; a simplex is any nonempty set of such pairs that occurs inside a
length-l edge path from a to b.  The subcomplex K' collects the
simplices whose completed endpoint-to-endpoint sequence is shorter than
l.  The relative homology of (K, K') recovers the (a, b) summand of
magnitude homology with a degree shift of two, which is what
``verify_correspondence`` checks numerically.

A simplex lies outside K' exactly when every gap is geodesic, its
positions the cumulative distances from a.  So the cells of K outside K'
are the length-l sequences (a, x_1, .., x_(k-1), b) of the (a, b) summand
of the magnitude chain complex, and a face of one (drop x_i, keep the
other positions) lies outside K' exactly when x_i is smooth: the relative
faces are the smooth deletions.  So the relative chain complex is that
summand in degrees 2..l with d_2 dropped, and ``relative_complex`` keeps
its maps as ``homology.boundary_matrix`` builds them, once: deleting x_i
with sign (-1)^i, the negative of the simplicial boundary, which has the
same homology and the same covers.

Its top cells, the length-l walks, are not enumerated.  A walk with no
smooth point has no face outside K' and, being top-dimensional, no
coface: it is an isolated cell, critical in every matching and one free
Z of the top homology (Forman, "Morse theory for cell complexes", 1998).
So ``relative_complex`` lists the cells of degrees 2..l-1, which
``homology._cells`` enumerates on the summand {(a, b): 1}, and the walks
with a smooth point, which d_l finds by insertion into degree l-1, and
only counts the isolated walks, as the walk count (A^l)_ab less those
listed.  The positions are derived only to display a cell.
``path_complex`` builds K itself from the edge
paths, where K is reported or checked, and charges its simplices to the
basis cap (``errors.basis_cap``).  ``verify_correspondence`` compares
with the summand that ``homology.mh_column`` computes for {(a, b): 1}.

There a simplex is a tuple of (vertex, position) pairs sorted by
position; that ordering fixes the boundary orientation.  ``faces`` and
``cell_boundaries`` take the faces of such simplices one element at a
time, the second route that ``verify_correspondence`` uses.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations

from .errors import ValidationError, basis_cap, over_cap
from .graph import Graph
from .homology import _cells, _checked, boundary_matrix, enumerate_sequences, mh_column
from .snf import SparseMatrix, homology_of_complex

Simplex = tuple[tuple[int, int], ...]  # ((vertex, position), ...), positions increasing


def subsequence_length(g: Graph, a: int, b: int, simplex: Simplex) -> int:
    seq = (a,) + tuple(v for v, _ in simplex) + (b,)
    return sum(g.dist[seq[i]][seq[i + 1]] for i in range(len(seq) - 1))


@dataclass(frozen=True)
class RelativeComplex:
    """The simplices of K_l(a,b) outside K'_l(a,b) that have a face
    there, as vertex sequences, and the count of those that have none.

    The cell with interior vertices x_1 .. x_(k-1) is the degree-k,
    length-l sequence (a, x_1, .., x_(k-1), b), of dimension k - 2.
    ``cells`` holds them by degree: below the top, lexicographically, the
    order of their simplices; in the top dimension l - 2, the walks with
    a smooth point, in order of first appearance as d_l inserts them.
    They are the basis of the relative chain complex and the cell set of
    the Morse matching.  The cells of dimension d are
    ``cells[starts[d]:starts[d + 1]]``.  ``boundaries[d]`` maps them to
    dimension d - 1, for each d >= 1 with both sides nonempty: deleting
    x_i gives a face exactly when x_i is smooth, with the sign (-1)^i of
    the magnitude chain complex.

    ``isolated`` counts the walks with no smooth point: top cells with no
    face and no coface, so in no boundary and no matching pair.  They are
    critical cells and free generators of the top homology, and every
    count of cells adds them.
    """

    g: Graph = field(repr=False, compare=False)
    a: int
    b: int
    length: int
    cells: tuple[tuple[int, ...], ...]
    starts: tuple[int, ...]
    boundaries: dict[int, SparseMatrix] = field(repr=False, compare=False)
    isolated: int

    def simplex(self, c: int) -> Simplex:
        """Cell c in its (vertex, position) form, for display."""
        seq, dist = self.cells[c], self.g.dist
        return tuple(zip(seq[1:-1], accumulate(dist[u][v] for u, v in zip(seq, seq[1:-1]))))

    def covers(self) -> Iterator[tuple[int, int]]:
        """(face, cell) as cell indices, for each entry of the boundaries."""
        for d, mat in self.boundaries.items():
            lo, first = self.starts[d - 1], self.starts[d]
            for r, c in mat.entries:
                yield lo + r, first + c


def relative_complex(g: Graph, a: int, b: int, length: int) -> RelativeComplex:
    """The cells of K_l(a,b) outside K'_l(a,b) and their boundaries.

    The cells of dimension d are the degree-(d+2), length-l sequences
    from a to b, each interior vertex at its cumulative distance from a.
    A position depends only on the vertex prefix, so below the top
    sequence order is cell order.  The boundaries are those of the
    magnitude chain complex.  ``homology._cells`` enumerates degrees
    2..l-1 and charges each, and then the walk count, to the basis cap,
    as enumerating degree l would.  d_l is built by insertion into degree
    l - 1, unpeeled, and its columns are the top cells listed; the other
    walks are counted as ``isolated``.
    """
    if length < 3:
        raise ValidationError("path-pair complexes need length >= 3")
    bases = _cells(g, length, _checked(g, {(a, b): 1}))
    boundaries: dict[int, SparseMatrix] = {}
    for d in range(1, len(bases)):
        if bases[d] and bases[d - 1]:
            boundaries[d] = boundary_matrix(g, bases[d], bases[d - 1])
    top: list[tuple[int, ...]] = []
    d_top = boundary_matrix(g, None, bases[-1], peel=False, walks=top)
    if top:
        boundaries[len(bases)] = d_top
    bases.append(top)
    starts = tuple(accumulate(map(len, bases), initial=0))
    isolated = g.walks(length)[a][b] - len(top)
    return RelativeComplex(g, a, b, length, tuple(chain(*bases)), starts, boundaries, isolated)


def path_complex(g: Graph, a: int, b: int, length: int) -> frozenset[Simplex]:
    """K_l(a,b): the nonempty subsets of the interiors of length-l edge paths.

    The edge paths are the degree-l, length-l sequences from a to b:
    each of their l gaps is a single edge.  The simplices held count
    against the basis cap, and K is refused with BudgetExceeded as soon
    as it would exceed it.  Each path alone has 2^(l-1) - 1 of them.
    """
    if length < 3:
        raise ValidationError("path-pair complexes need length >= 3")
    cap, per_path = basis_cap(), 2 ** (length - 1) - 1
    # made where raised: an exception held by a local of this frame would
    # hold the frame in turn, through its traceback, and leave a cycle
    what = f"K_{length}({a},{b})"
    full: set[Simplex] = set()
    for path in enumerate_sequences(g, length, length, {(a, b): 1}):
        if per_path > cap:
            raise over_cap(what, cap, " simplices")
        interior = tuple((path[i], i) for i in range(1, length))
        for s in chain.from_iterable(combinations(interior, r) for r in range(1, length)):
            if s not in full:
                if len(full) == cap:
                    raise over_cap(what, cap, " simplices")
                full.add(s)
    return frozenset(full)


def f_vector(simplices) -> tuple[int, ...]:
    """Face counts by dimension."""
    counts = [0] * max(map(len, simplices), default=0)
    for s in simplices:
        counts[len(s) - 1] += 1
    return tuple(counts)


def faces(s: Simplex) -> Iterator[tuple[Simplex, int]]:
    """The codimension-1 faces of ``s``, the i-th (dropping s[i]) with sign (-1)^i."""
    sign = 1
    for i in range(len(s)):
        yield s[:i] + s[i + 1 :], sign
        sign = -sign


def cell_boundaries(cells) -> tuple[list[int], Iterator[tuple[int, SparseMatrix]]]:
    """Chain ranks and boundary maps of the complex spanned by ``cells``.

    Cells are graded by size: slot k holds the cells with k elements, so
    the empty simplex, when given, sits in slot 0.  Within a slot the
    cells keep their order in ``cells``.  A face is kept exactly when it
    is one of ``cells``, so leaving out a subcomplex gives the relative
    boundary.  The maps (k, slot k -> slot k-1) come one at a time, from
    the bottom slot up (the order in which ``snf.homology_of_complex``
    compresses); a map to or from an empty slot is zero and is not yielded.
    """
    top = max(map(len, cells), default=0)
    by_size: list[list[Simplex]] = [[] for _ in range(top + 1)]
    for s in cells:
        by_size[len(s)].append(s)
    dims = [len(group) for group in by_size]

    def maps():
        for k in range(1, len(by_size)):
            if not dims[k] or not dims[k - 1]:
                continue
            row = {s: i for i, s in enumerate(by_size[k - 1])}
            entries = {
                (row[f], col): sign
                for col, s in enumerate(by_size[k])
                for f, sign in faces(s)
                if f in row
            }
            yield k, SparseMatrix(entries, dims[k - 1], dims[k])
            del entries  # not held while the next map is built

    return dims, maps()


def relative_homology(pair: RelativeComplex) -> list[tuple[int, tuple[int, ...]]]:
    """Homology of the quotient chain complex, degrees 0 .. length-2.

    Cells are the simplices of K outside K'; boundary faces that fall
    into K' are dropped.  The maps are compressed from the bottom
    dimension up.  The isolated cells add their count to the top rank.
    """
    dims = [hi - lo for lo, hi in zip(pair.starts, pair.starts[1:])]
    dims[-1] += pair.isolated
    return homology_of_complex(dims, pair.boundaries.items())


def reduced_homology(cells) -> list[tuple[int, tuple[int, ...]]]:
    """Reduced homology of a simplicial complex given as a simplex set.

    The empty simplex is adjoined in degree -1, so degree 0 loses one
    rank per connected component's worth of augmentation.
    """
    cells = set(cells)
    if not cells:
        return []
    # slot 0 holds the empty simplex, degree -1
    return homology_of_complex(*cell_boundaries([()] + sorted(cells)))[1:]


@dataclass(frozen=True)
class CorrespondenceReport:
    ok: bool
    per_degree: dict[int, tuple[bool, tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]]]


def verify_correspondence(g: Graph, a: int, b: int, length: int) -> CorrespondenceReport:
    """Compare magnitude homology of the (a,b) summand with (K, K').

    For k >= 3 the degree k group must match relative degree k-2; the
    k = 2 group matches relative degree 0 when d(a,b) < l, and the
    reduced degree-0 homology of K when d(a,b) = l.  Both sides are
    computed from scratch by their own pipelines; the relative side
    filters the simplices of K by ``subsequence_length`` and takes their
    faces by ``cell_boundaries``, not from ``relative_complex``.
    """
    full = path_complex(g, a, b, length)
    cells = [s for s in full if subsequence_length(g, a, b, s) == length]
    cells.sort(key=lambda s: (len(s), s))
    rel = homology_of_complex(*cell_boundaries(cells))[1:]  # slot 0 is empty
    rel += [(0, ())] * (length - 1 - len(rel))
    column = mh_column(g, length, {(a, b): 1})
    per: dict[int, tuple[bool, tuple, tuple]] = {}
    ok = True
    for k in range(2, length + 1):
        lhs = column[k]
        if k >= 3:
            rhs = rel[k - 2]
        elif g.dist[a][b] == length:
            red = reduced_homology(full)
            rhs = red[0] if red else (0, ())
        else:
            rhs = rel[0]
        good = lhs == rhs
        ok = ok and good
        per[k] = (good, lhs, rhs)
    return CorrespondenceReport(ok, per)
