"""Magnitude chain complexes of graphs and their homology over Z.

Degree-k, length-l chains are generated by vertex tuples (x_0, ..., x_k)
with consecutive entries distinct and total metric length l.  The
boundary deletes interior smooth points with alternating signs; endpoint
entries are never deleted, so the complex splits over endpoint pairs.  A
point is smooth exactly when it lies inside the geodesic interval of its
two neighbours, so every boundary is built by one rule from its lower
degree: a coface inserts a vertex of that interval (``Graph.between``)
into a gap.  Homology is computed exactly (free rank plus torsion
divisors) by Smith normal form of the boundary matrices, every degree by
the same rule: degrees 0 and 1 too, so the vanishing of MH_(0,l) for
l >= 1 and of MH_(1,l) for l >= 2 (Hepworth-Willerton) is computed, not
assumed.

The top degree k = l is never enumerated.  Its generators are the
length-l walks, since each of their l gaps is 1, so its rank in the
(a, b) summand is the walk count (A^l)_ab (``Graph.walks``), and d_l is
built from degree l-1 by the same insertions, its zero columns never
made.  A walk whose only smooth point is the inserted vertex peels its
row as d_l is assembled (elementary reduction, Kaczynski-Mrozek-Slusarek,
"Homology computation by reduction of chain complexes", 1998); only the
rows that d_(l-1) left without an entry are tested.  The proofs are in
``boundary_matrix`` and ``_homology``.

Two symmetries map one endpoint summand isomorphically onto another.
An automorphism sigma of G preserves distances, so it maps the (a, b)
summand onto the (sigma a, sigma b) summand, smooth points to smooth
points.  Reversal R(x_0, ..., x_k) = (x_k, ..., x_0) maps the (a, b)
summand onto the (b, a) summand: position i of R(x) is smooth exactly
when position k - i of x is, so the boundary satisfies dR = (-1)^k Rd in
degree k, and R with the signs (-1)^(k(k+1)/2) is a chain isomorphism.
So the whole complex is built on one pair per orbit of <Aut(G), reversal>
on ordered pairs, whose groups count m times, m the orbit size.

A mapping {(a, b): m} is the one way to name summands: the (a, b)
summand, counted m >= 1 times.  ``symmetry.pair_orbits`` gives the one
of the whole complex; one summand (a, b) is {(a, b): 1}.  Each degree
k < l of a length that can hold a cell, k >= l / diam(G), is enumerated
once for all the pairs named (``enumerate_sequences``), into one
lexicographic list, and only those degrees and l are reduced.  ``mh_column``
sorts it by endpoint pair and reduces on its own each pair that holds a
length-l walk; a pair with none holds no cell either, and its groups are
zero, so they are neither computed nor merged.  ``is_diagonal_up_to``,
which asks only whether groups vanish, reduces the whole list as one
complex.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, product

from .errors import ValidationError, basis_cap, check_length, over_cap
from .graph import Graph
from .snf import SparseMatrix, homology_of_complex, invariant_factors
from .symmetry import pair_orbits

Summands = Mapping[tuple[int, int], int]
Basis = Sequence[tuple[int, ...]]


class _Checked(dict):
    """Summands that ``_checked`` has validated; it returns them as they are."""


def _checked(g: Graph, summands: Summands | None) -> Summands:
    """``summands``, or every ordered pair once when None, checked once:
    raise ValidationError unless it maps pairs of vertices of g to
    integers m >= 1 (not bools)."""
    if isinstance(summands, _Checked):
        return summands
    if summands is None:
        return _Checked.fromkeys(product(g.vertices, repeat=2), 1)
    try:
        for (a, b), m in summands.items():
            for v in (a, b):
                if not 1 <= v <= g.n or type(v) is not int:
                    raise ValidationError(f"vertex {v} is outside 1..{g.n}")
            if type(m) is not int or m < 1:
                raise ValidationError(f"summand weight {m!r} is not an integer >= 1")
    except (AttributeError, TypeError, ValueError):
        raise ValidationError("summands map endpoint pairs (a, b) to weights m") from None
    return _Checked(summands)


def enumerate_sequences(
    g: Graph, k: int, length: int, summands: Summands | None = None
) -> tuple[tuple[int, ...], ...]:
    """Degree-k sequences of total length ``length`` whose endpoint pair
    (x_0, x_k) is named by ``summands`` (every pair when None),
    lexicographically.

    One depth-first pass per first vertex grows the sequences towards all
    of its named ends at once.  Basis order is reproducible, since matrix
    snapshots depend on it.  A sequence of the summand {(a, b): m} stands
    for m cells of the full basis of this degree; enumeration aborts with
    BudgetExceeded as soon as that full basis would outgrow the basis cap
    (``errors.basis_cap``), before memory does.  A mapping passed in is
    checked (``_checked``); ``mh_table``, ``mh_column``,
    ``is_diagonal_up_to`` and ``ai_complex.relative_complex`` check theirs
    once per call and pass it on checked.

    The sequences are grown by a loop over an explicit stack, not by
    recursion, so no degree is too deep for Python's recursion limit.
    The stub memo and the stack are freed when the call ends, by return
    or by raise; the caller holds only the tuple returned.  A degree or
    length that is not an int raises ValidationError; a negative one
    gives no sequence.
    """
    check_length("degree", k, signed=True)
    check_length("length", length, signed=True)
    ends: dict[int, dict[int, int]] = {}  # first vertex -> end -> m
    for (a, b), m in _checked(g, summands).items():
        ends.setdefault(a, {})[b] = m
    if k < 0 or length < 0:
        return ()
    if k == 0:
        return tuple((a,) for a in sorted(ends) if length == 0 and a in ends[a])
    dist, maxd = g.dist, g.diameter
    if not k <= length <= k * maxd:
        return ()  # each of the k gaps contributes between 1 and maxd
    cap = basis_cap()
    out: list[tuple[int, ...]] = []
    size = 0  # of the full basis found so far
    # memo[end][((v, r), gaps)]: the stubs after v when `gaps` gaps add up
    # to r and end at `end` (None: anywhere); at most n * length * k lists
    # of at most n stubs each per end
    memo: dict[int | None, dict[tuple[tuple[int, int], int], list[tuple[int, int]]]] = {}
    for first in sorted(ends):
        weight = ends[first]
        last = sorted(weight)
        # a single end prunes every prefix that cannot reach it in time
        end = last[0] if len(last) == 1 else None
        following = memo.setdefault(end, {})
        # depth first: (prefix, stubs, gaps) continues ``prefix`` by each
        # stub (v, r): v, then ``gaps`` >= 1 gaps adding up to r, the last
        # one to a named end; children go on in reverse, so they come off
        # in stub order
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
            new = [prefix + (v, w) for v, r in stubs for w in last if dist[v][w] == r]
            if new:
                size += sum(weight[x[-1]] for x in new)
                if size > cap:
                    raise over_cap(f"degree-{k} length-{length} basis", cap)
                out.extend(new)
    return tuple(out)


def boundary_matrix(
    g: Graph,
    basis_k: Basis | None,
    basis_lo: Basis,
    walks: list[tuple[int, ...]] | None = None,
    faced: Container[int] | None = None,
) -> SparseMatrix:
    """Matrix of the boundary from the span of ``basis_k`` to ``basis_lo``.

    The bases are degrees k and k-1 of one length and one set of
    endpoint pairs, from ``enumerate_sequences`` with the same length
    and pairs.  Column x picks up (-1)^i at the row
    of x with position i deleted, for every smooth interior i
    (d(x_(i-1), x_(i+1)) = d(x_(i-1), x_i) + d(x_i, x_(i+1))); endpoints
    are kept.

    The entries are found by insertion, row by row, and stored by rows:
    for each y in ``basis_lo``, each gap j of y and each v in
    ``g.between[y_(j-1)][y_j]``, column x, which is y with v inserted at
    j, gets (-1)^j in the stored row of y, one dict filled as it is
    found, with no (row, col) key made.  This finds each nonzero entry
    once.  Such an x has the endpoints, degree and length of the
    columns, as v lies on a geodesic from y_(j-1) to y_j and is neither
    end; v is smooth in x, and deleting it gives y back.
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
    point j+1 (if j <= l-2) compares v with y_(j+1).  Given ``walks``, a
    list, the columns are appended to it in column order.

    ``faced`` selects peeling: the rows of d_l that d_(l-1) reached, its
    columns that hold an entry, which are the rows y with a smooth point.
    Given it, a row outside it is peeled when some v makes a walk whose
    only smooth point is j: the others are points of y, none of them
    smooth, so only points j-1 and j+1 need testing.  That column of d_l
    is the lone entry (-1)^j at row y: adding multiples of it to the
    others (column operations, which keep the image) clears the rest of
    row y.  A row in ``faced`` is never peeled, as no such walk comes
    from it (``_homology``).  So the result is d_l U for a unimodular U:
    its ``peeled`` rows, each with its unit column, and the columns of
    the walks with two or more smooth points, restricted to the other
    rows, in order of first appearance.  The columns that are then zero
    are not stored; these include the walks with no smooth point, which
    are most of them.  d_(l-1) d_l U = 0, and the Smith form of d_l U is
    I_|peeled| beside that of the stored rows; a peeled row is not
    stored.  Without ``faced`` nothing is peeled: the result is d_l
    itself without its zero columns, its columns the walks with a smooth
    point, each with all of its entries.  ``_homology`` peels;
    ``ai_complex.relative_complex`` reads the entries of d_l as covers
    and does not.
    """
    dist, between = g.dist, g.between
    rows: dict[int, dict[int, int]] = {}
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
            if faced is not None and row not in faced:
                # distances from the neighbours of v in the walk; row 0
                # of dist is all zeros and stands for a missing one
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
        rdata = rows[row] = {}
        for j in at:
            inserts = between[y[j - 1]][y[j]]
            if inserts:
                sign = (-1) ** j
                head, tail = y[:j], y[j:]
                for v in inserts:
                    x = head + (v,) + tail
                    col = index[x] if basis_k is not None else index.setdefault(x, len(index))
                    rdata[col] = sign
    if walks is not None:
        walks.extend(index)
    return SparseMatrix(rows, len(basis_lo), len(index), frozenset(peeled))


def _boundaries(
    g: Graph, bases: list[Basis], walks: list[tuple[int, ...]] | None = None
) -> Iterator[tuple[int, SparseMatrix]]:
    """(i, d) for the maps between nonempty degrees of the complex of
    ``bases`` and the length-l walks, from the bottom up, d_l last.
    ``bases`` holds consecutive degrees of one length l, the last of them
    degree l-1; index i numbers a basis and the map out of it, and the
    walks come at index len(bases).  The first basis may be any degree:
    ``_cells`` starts at the lowest that can hold a cell, and
    ``ai_complex.relative_complex`` at degree 2.

    Given ``walks``, d_l appends its columns to it and is built whole,
    as ``ai_complex.relative_complex`` reads its entries as covers;
    otherwise it is peeled, with the columns of d_(l-1) that hold an
    entry as ``faced`` (``boundary_matrix``).  They are none when degree
    l-2 has no cell, as deleting a smooth point would give one; a degree
    below the first basis has none (``_homology``).  d_(l-1) is built
    whole, so ``faced`` also holds the rows of d_l that compression
    later drops.

    The top degree is nonempty whenever degree l-1 is: the l-1 gaps of a
    degree-(l-1), length-l cell add up to l, so one of them is 2, and a
    common neighbour inserted there makes a walk.  So d_l is built
    whenever degree l-1 has a cell.  ``_homology`` and
    ``ai_complex.relative_complex`` both take their maps from here.
    """
    faced: set[int] | None = set() if walks is None else None
    for k in range(1, len(bases)):
        if bases[k] and bases[k - 1]:
            mat = boundary_matrix(g, bases[k], bases[k - 1])
            if k == len(bases) - 1 and faced is not None:
                faced = set().union(*mat.rows.values())
            yield k, mat
            del mat  # not held while the next boundary is built
    if bases and bases[-1]:
        yield len(bases), boundary_matrix(g, None, bases[-1], walks, faced)


def _homology(g: Graph, bases: list[Basis], top: int) -> list[tuple[int, tuple[int, ...]]]:
    """Homology of the complex of ``bases`` and ``top`` walks, indexed as
    in ``_boundaries``: the groups of the degrees of ``bases``, then of
    the top degree l, in order.  The degree below the first basis must
    hold no cell, so that the map out of the first is zero: degree 0, or
    the lowest degree that ``_cells`` lists.  So a length costs what the
    degrees that can hold a cell cost, not one slot per degree.

    Each boundary d_1 .. d_l is built once (``_boundaries``), from the
    bottom degree up so that ``homology_of_complex`` compresses, and
    reaches the Smith form on its own, so only one is held in memory; a
    map to or from an empty basis is zero and is not built.  So degrees 0
    and 1 are reduced like the others, and d_2's unit pivots drop rows of
    d_3.  d_l is peeled, reading from d_(l-1) which of its rows have a
    smooth point.  A row y that some walk peels (at y's gap of 2,
    position j) has no smooth point: the walk has none but the inserted
    v, so no point of y away from the gap is smooth, and
    d(y_(j-2), v) <= 1 puts y_(j-2) within 2 of y_j, so y_(j-1) is not
    smooth, nor likewise y_j.  So the rows that d_(l-1) reaches, the
    ``faced`` ones, are never peeled, and the rest need only the test at
    the gap.  No insertion reaches a peeled row's column of d_(l-1), so
    d_(l-1) has no pivot there, and the rows that compression drops from
    d_l are all stored rows.
    """
    return homology_of_complex([len(b) for b in bases] + [top], _boundaries(g, bases))


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


def _cells(g: Graph, length: int, summands: Summands) -> tuple[int, list[Basis]]:
    """(low, bases): the bases of degrees low <= k < l of the length-l
    complex of the checked ``summands`` (degree k at index k - low),
    after charging the full basis of each degree to the basis cap, every
    cell of a summand {(a, b): m} m times.

    A degree k < l / diam(G) has no cells, as each of its k gaps is at
    most diam(G), so the window starts at low = ⌈l / diam(G)⌉ (at l when
    diam(G) = 0, an empty window) and the degrees below are neither
    enumerated nor listed.  So degree 0 is left out for l >= 1, and
    degree 1, the pairs at distance l, is enumerated only for
    l <= diam(G).  Each degree of the window is enumerated once for all
    summands (``enumerate_sequences``), which charges it, in increasing
    order.  Degree l is the length-l walks, (A^l)_ab in the (a, b)
    summand: counted, not enumerated, and charged after the enumerated
    degrees.
    """
    maxd = g.diameter
    low = -(-length // maxd) if maxd else length
    bases = [enumerate_sequences(g, k, length, summands) for k in range(low, length)]
    walks = g.walks(length)
    cap = basis_cap() if length else 0  # as in enumerate_sequences, no charge at length 0
    if length and sum(m * walks[a][b] for (a, b), m in summands.items()) > cap:
        raise over_cap(f"degree-{length} length-{length} basis", cap)
    return low, bases


def mh_column(
    g: Graph, length: int, summands: Summands | None = None
) -> list[tuple[int, tuple[int, ...]]]:
    """Free rank and torsion divisors of the length-l groups, degrees 0..l.

    The sum of the summands {(a, b): m} (``pair_orbits(g)`` when not
    given), the groups of each counted m times.  ``_cells`` enumerates and
    charges the cells of every summand before any boundary is built; they
    are then sorted into per-pair bases, a pair's lists made at its first
    cell, and each pair is reduced on its own by ``_homology``, every
    boundary by one rule.

    Only the pairs with a length-l walk, (A^l)_ab > 0, are reduced.  A
    pair with none holds no cell either: replacing each gap of a cell by
    a geodesic, edge by edge, makes a walk with the same ends and length.
    So its groups are zero.  Each degree merges only the nonzero groups,
    each counted m times, and a degree with none reads (0, ()).

    A pair's bases are freed as soon as its groups are known, so only one
    pair's boundary is held at a time: the enumeration leaves no
    reference cycle, so nothing waits for the garbage collector.  A
    length that is not an int >= 0 raises ValidationError.
    """
    check_length("length", length)
    summands = _Checked(pair_orbits(g)) if summands is None else _checked(g, summands)
    column = [(0, ())] * (length + 1)
    for k, group in _groups(g, length, summands).items():
        column[k] = group
    return column


def _groups(
    g: Graph, length: int, summands: Summands
) -> dict[int, tuple[int, tuple[int, ...]]]:
    """The nonzero groups of ``mh_column`` by degree, in increasing
    degree, for checked ``summands``: each pair is reduced on the window
    of degrees that ``_cells`` lists, so a length costs what its
    nonempty degrees cost."""
    walks = g.walks(length)
    low, cells = _cells(g, length, summands)
    # pair -> the cells of each degree, made once, at the pair's first cell
    bases = defaultdict(lambda: [[] for _ in cells])
    for x in chain.from_iterable(cells):  # degree len(x) - 1
        bases[x[0], x[-1]][len(x) - 1 - low].append(x)
    groups: dict[int, list[tuple[int, tuple[int, tuple[int, ...]]]]] = {}  # k -> [(m, group)]
    for (a, b), m in summands.items():
        if walks[a][b]:  # else the pair has no cell either: see mh_column
            pair = bases.pop((a, b), [()] * len(cells))
            for k, group in enumerate(_homology(g, pair, walks[a][b]), low):
                if group != (0, ()):
                    groups.setdefault(k, []).append((m, group))
    return {
        k: (sum(m * rank for m, (rank, _) in parts),
            merge_torsion((tors, m) for m, (_, tors) in parts))
        for k, parts in sorted(groups.items())
    }


def pairwise_column(g: Graph, length: int) -> list[tuple[int, tuple[int, ...]]]:
    """``mh_column(g, length)`` by a second route that uses no symmetry:
    the sum of all n^2 endpoint summands, each counted once."""
    return mh_column(g, length, _checked(g, None))


@dataclass(frozen=True)
class MHTable:
    """Ranks and torsion of the groups with 0 <= k <= l <= lmax; only
    the nonzero ones are held."""

    lmax: int
    entries: dict[tuple[int, int], tuple[int, tuple[int, ...]]]

    def rank(self, k: int, length: int) -> int:
        return self.entries.get((k, length), (0, ()))[0]

    def torsion(self, k: int, length: int) -> tuple[int, ...]:
        return self.entries.get((k, length), (0, ()))[1]

    def is_diagonal(self) -> bool:
        return all(k == length for k, length in self.entries)

    def off_diagonal(self) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
        return {cell: val for cell, val in sorted(self.entries.items()) if cell[0] != cell[1]}

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


def mh_table(g: Graph, lmax: int, summands: Summands | None = None) -> MHTable:
    """All groups with l <= lmax of ``summands``, as in ``mh_column``; an
    lmax that is not an int >= 0 raises ValidationError."""
    check_length("lmax", lmax)
    summands = _Checked(pair_orbits(g)) if summands is None else _checked(g, summands)
    return MHTable(lmax, {
        (k, length): group
        for length in range(lmax + 1)
        for k, group in _groups(g, length, summands).items()
    })


def is_diagonal_up_to(g: Graph, lmax: int) -> bool:
    """Do all groups with k != l vanish (rank and torsion) for l <= lmax?

    Every length l <= 2 is diagonal, so the check starts at length 3.
    This is Hepworth–Willerton's vanishing of MH_{0,l} for l != 0 and of
    MH_{1,l} for l != 1, which the lengths from 3 on compute as they do
    every other degree.  For connected G:

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
    reduced as one complex: the cells of one pair per orbit, enumerated
    and charged as ``mh_column`` does (``_cells``), in one lexicographic
    list per degree.  Its groups are the direct sums of the groups of
    the pairs, so one vanishes exactly when all of them do.  An lmax
    that is not an int >= 0 raises ValidationError.
    """
    check_length("lmax", lmax)
    if lmax < 3:
        return True
    summands = _Checked(pair_orbits(g))
    for length in range(3, lmax + 1):
        walks = g.walks(length)
        low, bases = _cells(g, length, summands)
        column = _homology(g, bases, sum(walks[a][b] for a, b in summands))
        if any(rank or tors for k, (rank, tors) in enumerate(column, low) if k != length):
            return False
    return True
