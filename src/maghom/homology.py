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

Every magnitude complex is built one way: it grows degree by degree
from the bottom, in one loop (``_grow``).  As the boundary deletes
exactly the smooth points (Hepworth-Willerton, arXiv:1505.04125), a
degree-k cell with a smooth point is a coface of a degree-(k-1) cell,
so d_k, built by insertion into degree k-1, finds it:
``boundary_matrix`` numbers the cofaces in order of first appearance,
as its columns.  The cells with no smooth point are the zero columns of
d_k.  They follow the smooth ones, lexicographically, from an
enumeration that prunes every prefix with a smooth point
(``enumerate_sequences`` with ``smooth`` False).  So a smooth cell's
number is its column of d_k, and the caller decides what happens to
d_k as soon as it is built.  ``mh_column`` and ``is_diagonal_up_to``
reduce it (``_Complex``), and compression reads its unit-pivot columns
as rows of d_(k+1); ``ai_complex.relative_complex`` keeps it
(``_Kept``).

The top degree k = l is never enumerated.  Its generators are the
length-l walks, since each of their l gaps is 1, so its rank in the
(a, b) summand is the walk count (A^l)_ab (``Graph.walks``), and d_l is
built from degree l-1 by the same insertions, its zero columns never
made.  A walk whose only smooth point is the inserted vertex peels its
row as d_l is assembled (elementary reduction, Kaczynski-Mrozek-Slusarek,
"Homology computation by reduction of chain complexes", 1998); only the
degree-(l-1) cells with no smooth point, the ones after the smooth
cells, are tested.  The proofs are in ``boundary_matrix`` and
``_grow``.

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
of the whole complex; one summand (a, b) is {(a, b): 1}.  Only the
degrees k < l of a length that can hold a cell, k >= l / diam(G), and
l itself are built and reduced.  Each of them is charged to the basis
cap in full, for all the pairs named, before the next is touched.
``mh_column`` grows one complex per pair that holds a length-l walk and
reduces each on its own; a pair with none holds no cell either, and its
groups are zero, so they are neither computed nor merged.
``is_diagonal_up_to``, which asks only whether groups vanish, grows one
complex of all the pairs named.  ``ai_complex.relative_complex`` grows
the one summand {(a, b): 1}.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import product

from .errors import BasisCharge, ValidationError, check_length
from .graph import Graph
from .snf import SNFResult, SparseMatrix, groups_of, invariant_factors, smith_normal_form
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
    g: Graph,
    k: int,
    length: int,
    summands: Summands | None = None,
    smooth: bool = True,
    charge: BasisCharge | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Degree-k sequences of total length ``length`` whose endpoint pair
    (x_0, x_k) is named by ``summands`` (every pair when None),
    lexicographically; with ``smooth`` False, only those with no smooth
    point.

    One depth-first pass per first vertex grows the sequences towards all
    of its named ends at once.  An interior point is decided as soon as
    its right neighbour is chosen, so with ``smooth`` False a prefix
    whose last interior point is smooth is pruned, with all that would
    continue it, and the sequences left come in the same order.  Basis
    order is reproducible, since matrix snapshots depend on it.  A
    sequence of the summand {(a, b): m} stands for m cells of the full
    basis of this degree.  Each batch found is added to ``charge``
    (``errors.BasisCharge``; one of this degree alone when not given),
    which aborts the enumeration with BudgetExceeded as soon as the full
    basis would outgrow the basis cap, before memory does; ``_grow``
    passes the charge that the degree's smooth cells went to first.  A
    mapping passed in is checked (``_checked``); ``mh_table``,
    ``mh_column``, ``is_diagonal_up_to`` and
    ``ai_complex.relative_complex`` check theirs once per call and pass
    it on checked.

    The sequences are grown by a loop over an explicit stack, not by
    recursion, so no degree is too deep for Python's recursion limit.
    The stub memo and the stack are freed when the call ends, by return
    or by raise; the caller holds only the tuple returned.  A degree or
    length that is not an int raises ValidationError; a negative one
    gives no sequence.
    """
    check_length("degree", k, signed=True)
    check_length("length", length, signed=True)
    summands = _checked(g, summands)
    ends: dict[int, dict[int, int]] = {}  # first vertex -> end -> m
    for (a, b), m in summands.items():
        ends.setdefault(a, {})[b] = m
    if k < 0 or length < 0:
        return ()
    if k == 0:
        return tuple((a,) for a in sorted(ends) if length == 0 and a in ends[a])
    dist, maxd = g.dist, g.diameter
    if not k <= length <= k * maxd:
        return ()  # each of the k gaps contributes between 1 and maxd
    if charge is None:
        charge = BasisCharge(f"degree-{k} length-{length} basis", summands)
    prune = not smooth
    out: list[tuple[int, ...]] = []
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
        # depth first: (prefix, stubs, gaps, before, at) continues
        # ``prefix`` by each stub (v, r): v, then ``gaps`` >= 1 gaps adding
        # up to r, the last one to a named end; ``before`` and ``at`` are
        # what is left of the length after prefix[-2] and prefix[-1].
        # Children go on in reverse, so they come off in stub order
        work = [((), [(first, length)], k, 0, 0)]
        while work:
            prefix, stubs, gaps, before, at = work.pop()
            if prune and len(prefix) > 1:
                # prefix[-1] is smooth before v, of a stub (v, r), exactly when
                # d(prefix[-2], v) = d(prefix[-2], prefix[-1]) + d(prefix[-1], v),
                # which is before - r
                row = dist[prefix[-2]]
                stubs = [s for s in stubs if row[s[0]] + s[1] != before]
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
                        work.append((prefix + (stub[0],), after, gaps - 1, at, stub[1]))
                continue
            if prune and prefix:
                # v, before the end w, is smooth exactly when d(prefix[-1], w) = at
                row = dist[prefix[-1]]
                new = [prefix + (v, w) for v, r in stubs for w in last
                       if dist[v][w] == r and row[w] != at]
            else:
                new = [prefix + (v, w) for v, r in stubs for w in last if dist[v][w] == r]
            if new:
                charge.add(sum(weight[x[-1]] for x in new))
                out.extend(new)
    return tuple(out)


def boundary_matrix(
    g: Graph,
    basis_lo: Basis,
    cofaces: list[tuple[int, ...]] | None = None,
    faced: Container[int] | None = None,
    charge: BasisCharge | None = None,
) -> SparseMatrix:
    """Matrix of the boundary from degree k to the span of ``basis_lo``.

    ``basis_lo`` is degree k-1 of one length and one set of endpoint
    pairs, in any order.  Column x picks up (-1)^i at the row of x with
    position i deleted, for every smooth interior i
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
    consecutive entries are equal, so no x comes from one y twice.

    The columns are the cofaces so found, in order of first appearance:
    by the converse above, these are the degree-k cells with a smooth
    point, and the columns of d_k that are not zero; the cells with no
    smooth point are its zero columns, which a caller numbers after
    them.  Given ``cofaces``, a list, they are appended to it in column
    order.
    Given ``charge`` (``errors.BasisCharge``), each row that finds new
    cofaces charges them, each weighed as its endpoint pair, before the
    next row is read, so they are refused as soon as they are over the
    basis cap.  ``_grow`` builds every d_k so.

    At the top degree k = l, the length, the cofaces are the walks.
    Each y has one gap of 2, at position j, the only gap with a nonempty
    interval: the common neighbours of y_(j-1) and y_j.  All gaps of a
    walk w are 1, so its point i is smooth when d(w_(i-1), w_(i+1)) = 2.
    Its points i < j-1 and i > j+1 are the points i and i-1 of y and do
    not depend on v; point j-1 (if j >= 2) compares y_(j-2) with v, and
    point j+1 (if j <= l-2) compares v with y_(j+1).

    ``faced`` selects peeling, at the top degree: the rows of d_l with a
    smooth point, the ones that d_(l-1) reaches.  Given it, a row outside
    it is peeled when some v makes a walk whose only smooth point is j:
    the others are points of y, none of them smooth, so only points j-1
    and j+1 need testing.  That column of d_l is the lone entry (-1)^j at
    row y: adding multiples of it to the others (column operations,
    which keep the image) clears the rest of row y.  A row in ``faced``
    is never peeled, as no such walk comes from it (``_grow``).  So
    the result is d_l U for a unimodular U: its ``peeled`` rows, each
    with its unit column, and the columns of the walks with two or more
    smooth points, restricted to the other rows, in order of first
    appearance.  The columns that are then zero are not stored; these
    include the walks with no smooth point, which are most of them.
    d_(l-1) d_l U = 0, and the Smith form of d_l U is I_|peeled| beside
    that of the stored rows; a peeled row is not stored.  Without
    ``faced`` nothing is peeled: the result is d_l itself without its
    zero columns, its columns the walks with a smooth point, each with
    all of its entries.  ``_Complex`` peels, its smooth cells of degree
    l-1 being its first rows; ``_Kept``, for
    ``ai_complex.relative_complex``, which reads the entries of d_l as
    covers, does not.
    """
    dist, between = g.dist, g.between
    singles = [(v,) for v in range(g.n + 1)]  # each vertex v as (v,), made once
    rows: dict[int, dict[int, int]] = {}
    peeled = []
    y0 = basis_lo[0] if basis_lo else ()
    gaps = range(1, len(y0))  # of every y
    last = len(gaps)
    # at the top degree every gap is 1 but one, which is 2
    top = sum(dist[u][w] for u, w in zip(y0, y0[1:])) == len(y0)
    index: dict[tuple[int, ...], int] = {}  # each coface found -> its column
    setdefault, size = index.setdefault, 0
    weights = None if charge is None else charge.weights
    spent = 0  # weighed, since the call began
    for row, y in enumerate(basis_lo):
        at = gaps
        if top:
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
        before = size
        for j in at:
            inserts = between[y[j - 1]][y[j]]
            if inserts:
                sign = -1 if j & 1 else 1
                head, tail = y[:j], y[j:]
                for v in inserts:  # a new coface takes the next column
                    col = setdefault(head + singles[v] + tail, size)
                    if col == size:
                        size += 1
                    rdata[col] = sign
        if size > before and weights is not None:
            spent += weights[y[0], y[-1]] * (size - before)
            if spent > charge.room:
                charge.add(spent)  # refuses
    if weights is not None:
        charge.add(spent)
    if cofaces is not None:
        cofaces.extend(index)
    return SparseMatrix(rows, len(basis_lo), size, frozenset(peeled))


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


class _Complex:
    """One complex of ``_grow`` as it grows: ``cells``, the basis of the
    degree reached, its ``smooth`` cells first, and the rank of each
    degree so far, by degree (``dims``).  Each map goes to ``take`` as
    soon as it is built.  This class reduces it and holds only its Smith
    form, by its degree (``forms``), and the unit-pivot columns of the
    last map (``pivots``), so it holds one map at a time."""

    __slots__ = ("cells", "smooth", "dims", "forms", "pivots")

    def __init__(self) -> None:
        self.cells: list[tuple[int, ...]] = []
        self.smooth = 0
        self.dims: list[int] = []
        self.forms: dict[int, SNFResult] = {}
        self.pivots: frozenset[int] = frozenset()

    def grow(self, g: Graph, charge: BasisCharge | None = None) -> None:
        """Replace ``cells`` by the smooth cells of the next degree, found
        and charged by building the map into ``cells``, which goes to
        ``take`` with the cells of its rows."""
        lower, self.cells = self.cells, []
        if lower:
            self.take(boundary_matrix(g, lower, self.cells, charge=charge), lower)
        else:
            self.pivots = frozenset()
        self.smooth = len(self.cells)

    def take(self, mat: SparseMatrix, lower: list[tuple[int, ...]]) -> None:
        """Reduce ``mat``, the map out of degree len(dims), without the
        rows at the unit-pivot columns of the map before it (compression,
        ``snf.homology_of_complex``)."""
        form = smith_normal_form(mat, self.pivots)
        self.forms[len(self.dims)] = SNFResult(form.rank, form.divisors)
        self.pivots = form.pivot_cols

    def top(self, g: Graph) -> None:
        """Take d_l, peeled with the smooth cells of degree l-1 as its
        ``faced`` rows (``_grow``); the walks are not listed."""
        if self.cells:
            self.take(boundary_matrix(g, self.cells, faced=range(self.smooth)), self.cells)
        self.cells = []


class _Kept(_Complex):
    """The complex of ``ai_complex.relative_complex``, which keeps what
    ``_Complex`` lets go: each map whole, by its degree (``maps``), and
    the cells of its rows, one degree after another in one list
    (``kept``), so every degree below the top that has a cell.  d_l is
    built as the maps below it are, unpeeled; its columns, the walks
    with a smooth point, are left in ``cells``."""

    __slots__ = ("kept", "maps")

    def __init__(self) -> None:
        super().__init__()
        self.kept: list[tuple[int, ...]] = []
        self.maps: dict[int, SparseMatrix] = {}

    def take(self, mat: SparseMatrix, lower: list[tuple[int, ...]]) -> None:
        self.maps[len(self.dims)] = mat
        self.kept += lower

    top = _Complex.grow


def _grow(
    g: Graph,
    length: int,
    summands: Summands,
    complexes: Sequence[_Complex],
    owner: Mapping[tuple[int, int], _Complex] | None = None,
) -> None:
    """The one degree loop: grow ``complexes``, of the length-l chains
    of the checked ``summands``, together, degree by degree, up to the
    top degree l.  The cells of a pair go to its complex in ``owner``,
    or, with no ``owner``, to the one complex given.

    A degree k < l / diam(G) has no cells, as each of its k gaps is at
    most diam(G).  So the loop starts at low = ⌈l / diam(G)⌉ (at l when
    diam(G) = 0, an empty window), and ``dims`` reads 0 below it: a
    length costs what the degrees that can hold a cell cost.  In degree
    k, each complex's d_k is built by insertion into its degree k-1
    (``boundary_matrix``), which finds its cells with a smooth point,
    numbered as d_k's columns in order of first appearance, and goes to
    the complex's ``take`` at once.  The cells with no smooth point
    follow, lexicographically, from one enumeration for all the pairs
    (``enumerate_sequences`` with ``smooth`` False); they are zero
    columns of d_k and of no other map into degree k.  So d_k is built
    exactly when degree k-1 has a cell, as degree k then has one: a
    degree-(k-1) cell with k - 1 < l has a gap of 2 or more, and a
    vertex of its interval inserts there.  Degree low has no smooth
    cell, as degree low - 1 is empty.  The top degree, the length-l
    walks, is never enumerated: each complex's ``top`` takes d_l, built
    by the same insertions into degree l-1.

    The basis cap keeps the meaning it has when each degree is listed
    whole: degree k is charged in full, first its smooth cells as each
    d_k finds them, complex after complex, then its other cells, on the
    same charge, before degree k+1 is touched.  The walks, (A^l)_ab in
    the summand (a, b), are charged after the last degree, as
    enumerating degree l would (as there, length 0 is not charged).  So
    a refusal names the first degree over the cap, and no degree's cells
    outgrow it by more than a row's cofaces or an enumeration batch.

    ``_Complex.top`` peels d_l with the smooth cells of degree l-1, its
    first rows, as ``faced``.  A row y that some walk peels (at y's gap
    of 2, position j) has no smooth point: the walk has none but the
    inserted v, so no point of y away from the gap is smooth, and
    d(y_(j-2), v) <= 1 puts y_(j-2) within 2 of y_j, so y_(j-1) is not
    smooth, nor likewise y_j.  So the smooth cells are never peeled, and
    the rest need only the test at the gap.  No insertion reaches a
    peeled row's column of d_(l-1), a zero column, so d_(l-1) has no
    pivot there, and the rows that compression drops from d_l are all
    stored rows.
    """
    maxd = g.diameter
    low = -(-length // maxd) if maxd else length
    for c in complexes:
        c.dims = [0] * low
    for k in range(low, length):
        charge = BasisCharge(f"degree-{k} length-{length} basis", summands)
        for c in complexes:
            c.grow(g, charge)
        unsmooth = enumerate_sequences(g, k, length, summands, False, charge)
        if owner is None:
            complexes[0].cells.extend(unsmooth)
        else:
            for x in unsmooth:
                owner[x[0], x[-1]].cells.append(x)
        del unsmooth  # not held while degree k + 1 is built
        for c in complexes:
            c.dims.append(len(c.cells))
    if length:
        walks = g.walks(length)
        top = sum(m * walks[a][b] for (a, b), m in summands.items())
        BasisCharge(f"degree-{length} length-{length} basis", summands).add(top)
    for c in complexes:
        c.top(g)


def _columns(
    g: Graph, length: int, summands: Summands, merged: bool
) -> list[tuple[int, list[tuple[int, tuple[int, ...]]]]]:
    """[(m, groups)]: the groups of the degrees 0..l of each complex of
    the length-l chains of the checked ``summands``, with the weight m of
    its pair, each grown and reduced by ``_grow``.  With ``merged``, one
    complex of all the pairs (weight 1); otherwise one for each pair
    (a, b) that holds a length-l walk, (A^l)_ab > 0.  A pair with none
    holds no cell either: replacing each gap of a cell by a geodesic,
    edge by edge, makes a walk with the same ends and length."""
    walks = g.walks(length)
    held = [(a, b) for a, b in summands if walks[a][b]]
    if merged:
        owner, complexes = None, [(1, sum(walks[a][b] for a, b in held), _Complex())]
    else:
        owner = {pair: _Complex() for pair in held}
        complexes = [(summands[a, b], walks[a][b], c) for (a, b), c in owner.items()]
    _grow(g, length, summands, [c for _, _, c in complexes], owner)
    return [(m, groups_of(c.dims + [top], c.forms)) for m, top, c in complexes]


def mh_column(
    g: Graph, length: int, summands: Summands | None = None
) -> list[tuple[int, tuple[int, ...]]]:
    """Free rank and torsion divisors of the length-l groups, degrees 0..l.

    The sum of the summands {(a, b): m} (``pair_orbits(g)`` when not
    given), the groups of each counted m times.  Each pair that holds a
    length-l walk is a complex of its own, grown and reduced by
    ``_columns``, every boundary by one rule; a pair with none holds no
    cell, and its groups are zero.  Each degree merges only the nonzero
    groups, each counted m times, and a degree with none reads (0, ()).

    The complexes leave no reference cycle, so nothing waits for the
    garbage collector.  A length that is not an int >= 0 raises
    ValidationError.
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
    degree, for checked ``summands``: one complex per pair
    (``_columns``), each group counted with its pair's weight."""
    groups: dict[int, list[tuple[int, tuple[int, tuple[int, ...]]]]] = {}  # k -> [(m, group)]
    for m, column in _columns(g, length, summands, merged=False):
        for k, group in enumerate(column):
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
    reduced as one complex: the cells of one pair per orbit, grown and
    charged as ``mh_column`` does (``_columns``), in one basis per
    degree.  Its groups are the direct sums of the groups of the pairs,
    so one vanishes exactly when all of them do.  An lmax that is not an
    int >= 0 raises ValidationError.
    """
    check_length("lmax", lmax)
    if lmax < 3:
        return True
    summands = _Checked(pair_orbits(g))
    for length in range(3, lmax + 1):
        for _, column in _columns(g, length, summands, merged=True):
            if any(rank or tors for k, (rank, tors) in enumerate(column) if k != length):
                return False
    return True
