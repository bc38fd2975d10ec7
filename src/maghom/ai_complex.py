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

from dataclasses import dataclass

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
    """K together with its subcomplex K', both closed under nonempty faces."""

    a: int
    b: int
    length: int
    complex: frozenset[Simplex]
    subcomplex: frozenset[Simplex]

    def quotient_cells(self) -> list[Simplex]:
        """Cells of K outside K', sorted by dimension then lexicographically."""
        return sorted(self.complex - self.subcomplex, key=lambda s: (len(s), s))

    def f_vector(self) -> tuple[int, ...]:
        """Face counts of K by dimension."""
        top = max((len(s) for s in self.complex), default=0)
        counts = [0] * top
        for s in self.complex:
            counts[len(s) - 1] += 1
        return tuple(counts)


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
        m = len(interior)
        for mask in range(1, 1 << m):
            full.add(tuple(interior[i] for i in range(m) if mask >> i & 1))
    sub = frozenset(s for s in full if subsequence_length(g, a, b, s) <= length - 1)
    return SimplicialPair(a, b, length, frozenset(full), sub)


def _faces(s: Simplex):
    for i in range(len(s)):
        yield s[:i] + s[i + 1 :]


def is_closed_under_faces(cells: frozenset[Simplex]) -> bool:
    return all(f in cells for s in cells for f in _faces(s) if f)


def _complex_boundaries(
    by_dim: dict[int, list[Simplex]], absent_ok: set[Simplex] | frozenset[Simplex]
) -> tuple[list[int], dict[int, SparseMatrix]]:
    """Chain dims and boundary matrices, dropping faces in ``absent_ok``."""
    top = max(by_dim, default=-1)
    dims = [len(by_dim.get(d, ())) for d in range(top + 1)]
    boundaries: dict[int, SparseMatrix] = {}
    for d in range(1, top + 1):
        lower = {s: i for i, s in enumerate(by_dim.get(d - 1, ()))}
        entries: dict[tuple[int, int], int] = {}
        for col, s in enumerate(by_dim.get(d, ())):
            sign = 1
            for face in _faces(s):
                if face not in absent_ok:
                    entries[(lower[face], col)] = sign
                sign = -sign
        boundaries[d] = SparseMatrix(entries, dims[d - 1], dims[d])
    return dims, boundaries


def relative_homology(pair: SimplicialPair) -> list[tuple[int, tuple[int, ...]]]:
    """Homology of the quotient chain complex, degrees 0 .. length-2.

    Cells are the simplices of K outside K'; boundary faces that fall
    into K' are dropped.
    """
    by_dim: dict[int, list[Simplex]] = {}
    for s in pair.quotient_cells():
        by_dim.setdefault(len(s) - 1, []).append(s)
    want = pair.length - 1  # degrees 0 .. length-2
    if not by_dim:
        return [(0, ())] * want
    dims, boundaries = _complex_boundaries(by_dim, pair.subcomplex)
    result = homology_of_complex(dims, boundaries.items())
    result += [(0, ())] * (want - len(result))
    return result[:want]


def reduced_homology(cells) -> list[tuple[int, tuple[int, ...]]]:
    """Reduced homology of a simplicial complex given as a simplex set.

    The empty simplex is adjoined in degree -1, so degree 0 loses one
    rank per connected component's worth of augmentation.
    """
    cells = frozenset(cells)
    if not cells:
        return []
    by_dim: dict[int, list[Simplex]] = {}
    for s in sorted(cells, key=lambda s: (len(s), s)):
        by_dim.setdefault(len(s) - 1, []).append(s)
    dims, boundaries = _complex_boundaries(by_dim, frozenset())
    # augmentation: every vertex maps to the empty simplex with coefficient 1
    n0 = dims[0]
    aug = SparseMatrix({(0, c): 1 for c in range(n0)}, 1, n0)
    shifted_dims = [1] + dims
    shifted = {k + 1: m for k, m in boundaries.items()}
    shifted[1] = aug
    result = homology_of_complex(shifted_dims, shifted.items())
    return result[1:]  # drop the degree -1 slot


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
