"""Magnitude chain complexes of graphs and their homology over Z.

Degree-k, length-l chains are generated by vertex tuples (x_0, ..., x_k)
with consecutive entries distinct and total metric length l.  The
boundary deletes interior smooth points with alternating signs; endpoint
entries are never deleted, so the complex splits over endpoint pairs.  A
point is smooth exactly when it lies inside the geodesic interval of its
two neighbours, so every boundary is built by one rule from its lower
degree: a coface inserts a vertex of that interval (``Graph.between``)
into a gap.  Homology is computed exactly (free rank plus torsion
divisors) by Smith normal form of the boundary matrices.

The top degree k = l is never enumerated.  Its generators are the
length-l walks, since each of their l gaps is 1, so its rank in the
(a, b) summand is the walk count (A^l)_ab (``Graph.walks``), and d_l is
built from degree l-1 by the same insertions, its zero columns never
made.  A walk whose only smooth point is the inserted vertex peels its
row as d_l is assembled (elementary reduction, Kaczynski-Mrozek-Slusarek,
"Homology computation by reduction of chain complexes", 1998).  The
proofs are in ``boundary_matrix``.

Two symmetries map one endpoint summand isomorphically onto another.
An automorphism sigma of G preserves distances, so it maps the (a, b)
summand onto the (sigma a, sigma b) summand, smooth points to smooth
points.  Reversal R(x_0, ..., x_k) = (x_k, ..., x_0) maps the (a, b)
summand onto the (b, a) summand: position i of R(x) is smooth exactly
when position k - i of x is, so the boundary satisfies dR = (-1)^k Rd in
degree k, and R with the signs (-1)^(k(k+1)/2) is a chain isomorphism.
So the whole complex is built on one pair per orbit of <Aut(G), reversal>
on ordered pairs (``symmetry.pair_orbits``): the pairs whose orbits have
m elements span one complex, whose groups count m times.  With trivial
Aut(G) these are two complexes, the pairs a < b (m = 2) and the pairs
(a, a) (m = 1).  Each degree 2 <= k < l of a length is enumerated once
for all of these complexes (``enumerate_classes``): every completed
sequence goes to its complex by its endpoint pair.  ``mh_column`` then
reduces each complex on its own; ``is_diagonal_up_to``, which asks
only whether groups vanish, reduces them side by side as one.

A list of classes (m, pairs) is the one way to name summands: the
pairs of a class span one complex whose groups count m >= 1 times,
and no pair may be named twice.  ``orbit_classes`` gives the classes of
the whole complex; one summand (a, b) is [(1, [(a, b)])].
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, product

from .errors import ValidationError, basis_cap, over_cap
from .graph import Graph, diameter
from .snf import SparseMatrix, homology_of_complex, invariant_factors
from .symmetry import pair_orbits

Classes = list[tuple[int, list[tuple[int, int]]]]
Basis = Sequence[tuple[int, ...]]


def enumerate_classes(
    g: Graph, k: int, length: int, classes: Classes
) -> list[list[tuple[int, ...]]]:
    """Degree-k sequences of total length ``length`` whose endpoint pair
    (x_0, x_k) lies in each class (m, pairs), lexicographically per class.

    One pass serves every class: the sequences are grown from each first
    vertex towards all of its allowed ends at once, and each batch of
    completions is handed to its class by end vertex.  Within a class the
    order is lexicographic, as if it were enumerated alone; basis order
    is reproducible, since matrix snapshots depend on it.  A sequence of
    a class stands for its m orbit elements in the full basis of this
    degree; enumeration aborts with BudgetExceeded as soon as that full
    basis would outgrow the basis cap (``errors.basis_cap``), before
    memory does.  A pair named twice raises ValidationError.

    The sequences are grown by a loop over an explicit stack, not by
    recursion, so no degree is too deep for Python's recursion limit.
    The stub memo and the stack are freed when the call ends, by return
    or by raise; the caller holds only the lists returned.
    """
    out: list[list[tuple[int, ...]]] = [[] for _ in classes]
    if k < 0 or length < 0:
        return out
    ends: dict[int, dict[int, int]] = {}  # first vertex -> end -> class
    for i, (_, pairs) in enumerate(classes):
        for a, b in pairs:
            row = ends.setdefault(a, {})
            if b in row:
                raise ValidationError(f"endpoint pair {(a, b)} is named twice")
            row[b] = i
    if k == 0:
        if length == 0:
            for a in sorted(ends):
                if a in ends[a]:
                    out[ends[a][a]].append((a,))
        return out
    dist, maxd = g.dist, diameter(g)
    if not k <= length <= k * maxd:
        return out  # each of the k gaps contributes between 1 and maxd
    cap = basis_cap()
    weights = [m for m, _ in classes]
    size = 0  # of the full basis found so far
    # memo[end][((v, r), gaps)]: the stubs after v when `gaps` gaps add up
    # to r and end at `end` (None: anywhere); at most n * length * k lists
    # of at most n stubs each per end
    memo: dict[int | None, dict[tuple[tuple[int, int], int], list[tuple[int, int]]]] = {}
    for first in sorted(ends):
        groups_of: dict[int, list[int]] = {}  # class -> its ends, increasing
        for b in sorted(ends[first]):
            groups_of.setdefault(ends[first][b], []).append(b)
        groups = list(groups_of.items())
        # a single end prunes every prefix that cannot reach it in time
        end = next(iter(ends[first])) if len(ends[first]) == 1 else None
        following = memo.setdefault(end, {})
        # depth first: (prefix, stubs, gaps) continues ``prefix`` by each
        # stub (v, r): v, then ``gaps`` >= 1 gaps adding up to r, the last
        # one to an allowed end; children go on in reverse, so they come
        # off in stub order
        work = [((), [(first, length)], k)]
        while work:
            prefix, stubs, gaps = work.pop()
            if gaps > 1:
                for stub in reversed(stubs):
                    after = following.get((stub, gaps))
                    if after is None:  # later gaps are >= 1 and <= maxd, and end at `end`
                        v, r = stub
                        lo = max(1, r - (gaps - 1) * maxd)  # skips w = v and index 0
                        hi = r - (gaps - 1)
                        after = following[(stub, gaps)] = [
                            (w, r - d)
                            for w, d in enumerate(dist[v])
                            if lo <= d <= hi and (end is None or dist[w][end] <= r - d)
                        ]
                    if after:
                        work.append((prefix + (stub[0],), after, gaps - 1))
                continue
            for i, last in groups:
                new = [prefix + (v, w) for v, r in stubs for w in last if dist[v][w] == r]
                if new:
                    size += weights[i] * len(new)
                    if size > cap:
                        raise over_cap(f"degree-{k} length-{length} basis", cap)
                    out[i].extend(new)
    return out


def enumerate_sequences(
    g: Graph, k: int, length: int, pairs: Iterable[tuple[int, int]] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Degree-k sequences of total length ``length``, lexicographically.

    ``pairs`` allows the pairs (x_0, x_k), all of them when None; they
    are checked as one class of ``mh_column``.  The sequences found count
    against the basis cap once each (see ``enumerate_classes``).
    """
    everything = product(g.vertices, repeat=2)
    classes = _check_classes(g, [(1, everything if pairs is None else pairs)])
    return tuple(enumerate_classes(g, k, length, classes)[0])


def boundary_matrix(g: Graph, basis_k: Basis | None, basis_lo: Basis) -> SparseMatrix:
    """Matrix of the boundary from the span of ``basis_k`` to ``basis_lo``.

    The bases are degrees k and k-1 of one length and one set of
    endpoint pairs, from ``enumerate_sequences`` or ``enumerate_classes``
    with the same length and pairs.  Column x picks up (-1)^i at the row
    of x with position i deleted, for every smooth interior i
    (d(x_(i-1), x_(i+1)) = d(x_(i-1), x_i) + d(x_i, x_(i+1))); endpoints
    are kept.

    The entries are found by insertion, row by row: for each y in
    ``basis_lo``, each gap j of y and each v in ``g.between[y_(j-1)][y_j]``,
    column x, which is y with v inserted at j, gets (-1)^j at row y.  This
    finds each nonzero entry once.  Such an x has the endpoints, degree
    and length of the columns, as v lies on a geodesic from y_(j-1) to y_j
    and is neither end; v is smooth in x, and deleting it gives y back.
    Conversely, a smooth x_i lies inside the interval of x_(i-1) and
    x_(i+1), which differ, their distance being a sum of two positive
    ones; so deleting x_i gives a row y, into which x_i inserts as x.
    Deleting two positions of one x gives two sequences, as no two
    consecutive entries are equal, so no x comes from one y twice.  With
    ``basis_k`` given, each x is looked up in it; one missing raises
    KeyError.

    With ``basis_k`` None, k is the top degree, the length l, and the
    columns are the walks so found, in order of first appearance.  Each y
    has one gap of 2, at position j, the only gap with a nonempty
    interval: the common neighbours of y_(j-1) and y_j.  All gaps of a
    walk w are 1, so its point i is smooth when d(w_(i-1), w_(i+1)) = 2.
    Its points i < j-1 and i > j+1 are the points i and i-1 of y and do
    not depend on v; point j-1 (if j >= 2) compares y_(j-2) with v, and
    point j+1 (if j <= l-2) compares v with y_(j+1).

    When j is the only smooth point of some such w, its column of d_l is
    the lone entry (-1)^j at row y, and y is peeled: adding multiples of
    that column to the others (column operations, which keep the image)
    clears the rest of row y.  So the result is d_l U for a unimodular
    U: its ``peeled`` rows, each with its unit column, and the columns of
    the walks with two or more smooth points, restricted to the other
    rows, in order of first appearance.  The columns that are then zero
    are not stored; these include the walks with no smooth point, which
    are most of them.  d_(l-1) d_l U = 0, and the Smith form of d_l U is
    I_|peeled| beside that of the stored entries.
    """
    dist, between = g.dist, g.between
    entries: dict[tuple[int, int], int] = {}
    peeled = []
    gaps = range(1, len(basis_lo[0]) if basis_lo else 1)  # of every y
    if basis_k is None:
        index: dict[tuple[int, ...], int] = {}  # the walks in order of first appearance
        last = len(gaps)  # each y ends at l - 1
    else:
        index = {x: col for col, x in enumerate(basis_k)}
    for row, y in enumerate(basis_lo):
        at = gaps
        if basis_k is None:
            j = 1
            while dist[y[j - 1]][y[j]] == 1:
                j += 1
            at = (j,)  # the only gap with a nonempty interval
            for p in range(1, last):
                if (p < j - 1 or p > j) and dist[y[p - 1]][y[p + 1]] == 2:
                    break  # smooth in every walk made from y
            else:
                # distances from the neighbours of v in the walk; row 0 of
                # dist is all zeros and stands for a missing one
                left = dist[y[j - 2]] if j > 1 else dist[0]
                right = dist[y[j + 1]] if j < last else dist[0]
                lone = False
                for v in between[y[j - 1]][y[j]]:
                    if left[v] != 2 and right[v] != 2:
                        lone = True
                        break
                if lone:
                    peeled.append(row)
                    continue
        for j in at:
            inserts = between[y[j - 1]][y[j]]
            if inserts:
                sign = (-1) ** j
                head, tail = y[:j], y[j:]
                for v in inserts:
                    x = head + (v,) + tail
                    col = index[x] if basis_k is not None else index.setdefault(x, len(index))
                    entries[(row, col)] = sign
    return SparseMatrix(entries, len(basis_lo), len(index), frozenset(peeled))


def _homology(
    g: Graph, ones: int, bases: list[Basis], top: int
) -> list[tuple[int, tuple[int, ...]]]:
    """Homology of the length-l complex, l >= 2, spanned by ``ones``
    cells in degree 1, ``bases`` in degrees 2..l-1 (degree k at index
    k - 2, l = len(bases) + 2) and ``top`` walks in degree l.

    Degree 0 is empty, and d_2 maps onto C_1 (see ``is_diagonal_up_to``),
    so it has rank ``ones`` and no divisor and is not built.  Each other
    boundary is built once, from the bottom degree up so that
    ``homology_of_complex`` compresses, and reaches the Smith form on its
    own, so only one is held in memory; a map to or from an empty basis
    is zero and is not built.  A row y that d_l peeled (at its gap of 2,
    position j) is a zero column of d_(l-1), as y has no smooth point:
    its lone walk has none but the inserted v, so no point of y away
    from the gap is smooth, and d(y_(j-2), v) <= 1 puts y_(j-2) within 2
    of y_j, so y_(j-1) is not smooth, nor likewise y_j.  No insertion
    reaches such a column, so d_(l-1) has no pivot there, and the rows
    that compression drops from d_l are all stored rows.
    """

    def boundaries():  # d_3 up to d_l, each at the index of its source
        for i in range(1, len(bases)):
            if bases[i] and bases[i - 1]:
                yield i, boundary_matrix(g, bases[i], bases[i - 1])
        if top and bases and bases[-1]:
            yield len(bases), boundary_matrix(g, None, bases[-1])

    (free, tors), *upper = homology_of_complex([len(b) for b in bases] + [top], boundaries())
    return [(0, ()), (0, ()), (free - ones, tors)] + upper


def merge_torsion(parts: Iterable[tuple[tuple[int, ...], int]]) -> tuple[int, ...]:
    """Invariant factors of the direct sum of T^m over the parts (T, m),
    each T given by its divisors.

    They are the invariant factors above 1 of all the divisors, each
    repeated m times (``snf.invariant_factors``).

    >>> merge_torsion([((2,), 2), ((3,), 1)])
    (2, 6)
    >>> merge_torsion([((2, 4), 2)])
    (2, 2, 4, 4)
    >>> merge_torsion([((2,), 3), ((3,), 1), ((), 60)])
    (2, 2, 6)
    >>> merge_torsion([((6,), 3), ((4,), 1)])
    (2, 6, 6, 12)
    """
    factors = invariant_factors(d for tors, m in parts for d in tors * m)
    return tuple(d for d in factors if d > 1)


def orbit_classes(g: Graph) -> Classes:
    """One endpoint pair from each orbit of <Aut(G), reversal> on ordered
    pairs, grouped by orbit size m: (m, pairs) in increasing order of m."""
    classes: dict[int, list[tuple[int, int]]] = {}
    for pair, m in pair_orbits(g).items():
        classes.setdefault(m, []).append(pair)
    return sorted(classes.items())


def _check_classes(g: Graph, classes: Classes) -> Classes:
    """``classes`` with each pairs list materialized as tuples; raise
    ValidationError unless the weights are positive and the pairs are
    vertex pairs of g, each named once."""
    try:
        checked = [(m, [(a, b) for a, b in pairs]) for m, pairs in classes]
    except (TypeError, ValueError):
        raise ValidationError("an endpoint pair is not two vertices") from None
    seen = set()
    for m, pairs in checked:
        if m < 1:
            raise ValidationError(f"class weight {m} is not positive")
        for pair in pairs:
            for v in pair:
                if not 1 <= v <= g.n:
                    raise ValidationError(f"vertex {v} is outside 1..{g.n}")
            if pair in seen:
                raise ValidationError(f"endpoint pair {pair} is named twice")
            seen.add(pair)
    return checked


def _cells(
    g: Graph, length: int, classes: Classes
) -> tuple[list[int], list[list[list[tuple[int, ...]]]], list[int]]:
    """The cells of the length-l complex of each class (m, pairs) of the
    checked ``classes``, charged to the basis cap: (ones, by_degree,
    tops), where class i has ones[i] cells in degree 1, the basis
    by_degree[k - 2][i] in each degree 2 <= k < l and tops[i] cells in
    degree l.

    Degrees 2 <= k < l are enumerated once for all classes
    (``enumerate_classes``), and each class gets the basis it would get
    alone; every cell charges its orbit size m to the cap.  Degrees 0, 1
    and l are counted, not enumerated.  Degree 0 is empty for l >= 1.
    For l >= 2, degree 1 is the pairs at distance l, charged first.
    Degree l is the length-l walks, Σ (A^l)_ab over the pairs, charged
    after the enumerated degrees.
    """
    cap = basis_cap() if length else 0  # as in enumerate_classes, no charge at length 0
    ones = [0] * len(classes)
    if length >= 2:
        ones = [sum(g.dist[a][b] == length for a, b in pairs) for _, pairs in classes]
        if sum(m * one for (m, _), one in zip(classes, ones)) > cap:
            raise over_cap(f"degree-1 length-{length} basis", cap)
    by_degree = [enumerate_classes(g, k, length, classes) for k in range(2, length)]
    walks = g.walks(length)
    tops = [sum(walks[a][b] for a, b in pairs) for _, pairs in classes]
    if length and sum(m * top for (m, _), top in zip(classes, tops)) > cap:
        raise over_cap(f"degree-{length} length-{length} basis", cap)
    return ones, by_degree, tops


def mh_column(
    g: Graph, length: int, classes: Classes | None = None
) -> list[tuple[int, tuple[int, ...]]]:
    """Free rank and torsion divisors of the length-l groups, degrees 0..l.

    One summand per class (m, pairs) of ``classes`` (``orbit_classes(g)``
    when not given) is reduced: its pairs span one complex, whose groups
    count m times.  ``_cells`` enumerates and charges the cells of every
    class before any boundary is built; for l >= 2 d_2 maps onto degree
    1 (see ``_homology``), and ``boundary_matrix`` builds d_l from degree
    l-1.

    Each class is reduced on its own, and its bases and boundaries are
    freed as soon as its groups are known, so only one class's boundary
    is held at a time: the enumeration leaves no reference cycle, so
    nothing waits for the garbage collector.
    """
    classes = orbit_classes(g) if classes is None else _check_classes(g, classes)
    ones, by_degree, tops = _cells(g, length, classes)
    if length < 2:  # the walks are the only cells
        return [(0, ())] * length + [(sum(m * top for (m, _), top in zip(classes, tops)), ())]
    parts = [
        (m, ones[i], [bases[i] for bases in by_degree], tops[i])
        for i, (m, _) in enumerate(classes)
    ]
    del by_degree
    columns = []
    while parts:  # a class's bases are not held once it is reduced
        m, one, bases, top = parts.pop()
        columns.append((m, _homology(g, one, bases, top)))
    return [
        (
            sum(m * column[k][0] for m, column in columns),
            merge_torsion((column[k][1], m) for m, column in columns),
        )
        for k in range(length + 1)
    ]


def pairwise_column(g: Graph, length: int) -> list[tuple[int, tuple[int, ...]]]:
    """``mh_column(g, length)`` by a second route that uses no symmetry:
    the sum of all n^2 endpoint summands, each reduced on its own."""
    summands = [mh_column(g, length, [(1, [(a, b)])]) for a in g.vertices for b in g.vertices]
    return [
        (sum(s[k][0] for s in summands), merge_torsion((s[k][1], 1) for s in summands))
        for k in range(length + 1)
    ]


@dataclass(frozen=True)
class MHTable:
    """Ranks and torsion of all groups with 0 <= k <= l <= lmax."""

    lmax: int
    entries: dict[tuple[int, int], tuple[int, tuple[int, ...]]]

    def rank(self, k: int, length: int) -> int:
        return self.entries.get((k, length), (0, ()))[0]

    def torsion(self, k: int, length: int) -> tuple[int, ...]:
        return self.entries.get((k, length), (0, ()))[1]

    def is_diagonal(self) -> bool:
        return all(
            rank == 0 and not tors
            for (k, length), (rank, tors) in self.entries.items()
            if k != length
        )

    def off_diagonal(self) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
        return {
            cell: val
            for cell, val in sorted(self.entries.items())
            if cell[0] != cell[1] and (val[0] or val[1])
        }

    def to_csv(self) -> str:
        """The l-rows-by-k-columns layout; trivial groups print as blanks,
        and a group with torsion as rank+T[divisors], the divisors separated
        by spaces so that a field holds no comma (nor, as TSV, a tab)."""
        header = "l\\k," + ",".join(str(k) for k in range(self.lmax + 1))
        lines = [header]
        for length in range(self.lmax + 1):
            cells = []
            for k in range(self.lmax + 1):
                rank, tors = self.entries.get((k, length), (0, ()))
                if rank == 0 and not tors:
                    cells.append("")
                elif tors:
                    cells.append(f"{rank}+T[{' '.join(map(str, tors))}]")
                else:
                    cells.append(str(rank))
            lines.append(f"{length}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def mh_table(g: Graph, lmax: int, classes: Classes | None = None) -> MHTable:
    """All groups with l <= lmax of the summands ``classes`` names, as in
    ``mh_column``."""
    classes = orbit_classes(g) if classes is None else _check_classes(g, classes)
    return MHTable(lmax, {
        (k, length): group
        for length in range(lmax + 1)
        for k, group in enumerate(mh_column(g, length, classes))
    })


def is_diagonal_up_to(g: Graph, lmax: int) -> bool:
    """Do all groups with k != l vanish (rank and torsion) for l <= lmax?

    Every length l <= 2 is diagonal, so the check starts at length 3.
    This is Hepworth–Willerton's vanishing of MH_{0,l} for l != 0 and of
    MH_{1,l} for l != 1.  For connected G:

    * C_{0,l} = 0 for l >= 1, since a single vertex has length 0.
    * For l >= 2, a generator (a, b) of C_{1,l} has d(a, b) = l, so a
      geodesic from a to b has a vertex x with d(a, x) = 1 and
      d(x, b) = l - 1.  Then (a, x, b) has length l, x is smooth, and
      its boundary is -(a, b).  The boundary into C_{1,l} is onto, so
      MH_{1,l} = 0, torsion included.
    * Groups with k > l are zero, as chains of degree k have length >= k.

    So at l = 0 only MH_{0,0}, at l = 1 only MH_{1,1} and at l = 2 only
    MH_{2,2} can be nonzero, all on the diagonal.  Lengths from 3 on are
    computed in increasing order, and the first one with a nonzero
    off-diagonal group settles the answer.

    Only vanishing is asked, not the weighted ranks, so each length is
    reduced as one complex: the cells of every orbit class, enumerated
    and charged as ``mh_column`` does (``_cells``), side by side.  Its
    groups are the direct sums of the class groups, so one vanishes
    exactly when all of them do.
    """
    if lmax < 3:
        return True
    classes = orbit_classes(g)
    for length in range(3, lmax + 1):
        ones, by_degree, tops = _cells(g, length, classes)
        bases = [list(chain.from_iterable(per_class)) for per_class in by_degree]
        del by_degree
        column = _homology(g, sum(ones), bases, sum(tops))
        if any(rank or tors for k, (rank, tors) in enumerate(column) if k != length):
            return False
    return True
