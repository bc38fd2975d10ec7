"""The path-pair simplicial complexes K_l(a,b) and K'_l(a,b).

Fix endpoints a, b and a length l >= 3.  Vertices of the complex are
pairs (vertex, position) with position strictly between the endpoint
slots; a simplex is any nonempty set of such pairs that occurs inside a
length-l edge path from a to b.  The subcomplex K' collects the
simplices whose completed endpoint-to-endpoint sequence is shorter than
l.  The relative homology of (K, K') recovers the (a, b) summand of
magnitude homology with a degree shift of two, which is what
``verify_correspondence`` checks numerically.

A simplex is stored as a tuple of (vertex, position) pairs sorted by
position; that ordering fixes the boundary orientation.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .errors import ValidationError
from .graph import Graph
from .homology import enumerate_sequences, mh_column
from .snf import SparseMatrix, homology_of_complex

Simplex = tuple[tuple[int, int], ...]  # ((vertex, position), ...), positions increasing


def simplex_to_sequence(a: int, b: int, simplex: Simplex) -> tuple[int, ...]:
    """The completed vertex sequence (a, interior vertices, b)."""
    return (a,) + tuple(v for v, _ in simplex) + (b,)


def subsequence_length(g: Graph, a: int, b: int, simplex: Simplex) -> int:
    seq = simplex_to_sequence(a, b, simplex)
    return sum(g.dist[seq[i]][seq[i + 1]] for i in range(len(seq) - 1))


@dataclass(frozen=True)
class SimplicialPair:
    """K together with its subcomplex K', both closed under nonempty faces.

    ``cells`` holds the simplices of K outside K', sorted by dimension
    then lexicographically: the basis of the relative chain complex and
    the cell set of the Morse matching.
    """

    a: int
    b: int
    length: int
    complex: frozenset[Simplex]
    subcomplex: frozenset[Simplex]
    cells: tuple[Simplex, ...]

    def f_vector(self) -> tuple[int, ...]:
        """Face counts of K by dimension."""
        top = max((len(s) for s in self.complex), default=0)
        counts = [0] * top
        for s in self.complex:
            counts[len(s) - 1] += 1
        return tuple(counts)


def _all_gaps_geodesic(g: Graph, a: int, b: int, length: int, simplex: Simplex) -> bool:
    """Does the completed sequence of a cell of K_l(a,b) have length l?

    A gap between positions i < j spans j - i edges of a path, so its
    distance is at most j - i; the total is l exactly when every gap
    attains it.  Same as ``subsequence_length(...) == length`` on cells
    of K, stopping at the first short gap.
    """
    dist = g.dist
    prev, at = a, 0
    for v, i in simplex:
        if dist[prev][v] != i - at:
            return False
        prev, at = v, i
    return dist[prev][b] == length - at


def build_pair(g: Graph, a: int, b: int, length: int) -> SimplicialPair:
    """Enumerate K_l(a,b) and K'_l(a,b) from the length-l edge paths.

    The edge paths are the degree-l, length-l sequences from a to b:
    each of their l gaps is a single edge.
    """
    if length < 3:
        raise ValidationError("path-pair complexes need length >= 3")
    full: set[Simplex] = set()
    for path in enumerate_sequences(g, length, length, (a, b)):
        interior = tuple((path[i], i) for i in range(1, length))
        for r in range(1, length):
            full.update(combinations(interior, r))
    outside = [s for s in full if _all_gaps_geodesic(g, a, b, length, s)]
    sub = frozenset(full.difference(outside))
    cells = tuple(sorted(outside, key=lambda s: (len(s), s)))
    return SimplicialPair(a, b, length, frozenset(full), sub, cells)


def faces(s: Simplex) -> Iterator[tuple[Simplex, int]]:
    """The codimension-1 faces of ``s``, the i-th (dropping s[i]) with sign (-1)^i."""
    sign = 1
    for i in range(len(s)):
        yield s[:i] + s[i + 1 :], sign
        sign = -sign


def is_closed_under_faces(cells: frozenset[Simplex]) -> bool:
    return all(f in cells for s in cells for f, _ in faces(s) if f)


def cell_boundaries(cells) -> tuple[list[int], Iterator[tuple[int, SparseMatrix]]]:
    """Chain ranks and boundary maps of the complex spanned by ``cells``.

    Cells are graded by size: slot k holds the cells with k elements, so
    the empty simplex, when given, sits in slot 0.  Within a slot the
    cells keep their order in ``cells``.  A face is kept exactly when it
    is one of ``cells``, so leaving out a subcomplex gives the relative
    boundary.  The maps (k, slot k -> slot k-1) come one at a time; a map
    to or from an empty slot is zero and is not yielded.
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


def relative_homology(pair: SimplicialPair) -> list[tuple[int, tuple[int, ...]]]:
    """Homology of the quotient chain complex, degrees 0 .. length-2.

    Cells are the simplices of K outside K'; boundary faces that fall
    into K' are dropped.
    """
    want = pair.length - 1  # degrees 0 .. length-2
    result = homology_of_complex(*cell_boundaries(pair.cells))[1:]  # slot 0 is empty
    result += [(0, ())] * (want - len(result))
    return result[:want]


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
    computed from scratch by their own pipelines.
    """
    pair = build_pair(g, a, b, length)
    rel = relative_homology(pair)
    column = mh_column(g, length, (a, b))
    per: dict[int, tuple[bool, tuple, tuple]] = {}
    ok = True
    for k in range(2, length + 1):
        lhs = column[k]
        if k >= 3:
            rhs = rel[k - 2]
        elif g.dist[a][b] == length:
            red = reduced_homology(pair.complex)
            rhs = red[0] if red else (0, ())
        else:
            rhs = rel[0]
        good = lhs == rhs
        ok = ok and good
        per[k] = (good, lhs, rhs)
    return CorrespondenceReport(ok, per)
