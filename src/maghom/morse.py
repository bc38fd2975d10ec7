"""Discrete Morse machinery on the cells of a relative complex.

The cells are those of ``ai_complex.RelativeComplex``, named by their
index, and its ``covers()`` are the entries of its boundary maps: (face,
cell) for each face of a cell, a smooth deletion of one of its vertices.
A partial matching pairs each lower cell with a cover (a cell one
dimension up containing it), each cell used at most once; it is a
frozenset of (lower cell, upper cell) index pairs.  Orienting matched
covers upward and all other covers downward gives a digraph; the
matching is acyclic when that digraph has no directed cycle.  Unmatched
cells are critical, and for an acyclic matching the cell set is
homotopy-modelled by one cell per critical cell, which this module
verifies at the level of homology ranks.  The pair's isolated cells have
no index and no cover: they are critical in every matching, and only
counted.  Cells appear in their (vertex, position) form only in messages.

The verdicts read the boundary rows themselves: a cell's row in
``boundaries[d + 1]`` lists its cofaces as offsets from ``starts[d + 1]``.
``covers()`` serves only the ordered scans that name a violation or a
cycle.
"""

from __future__ import annotations

from .ai_complex import RelativeComplex, relative_homology


def verify_matching(
    pair: RelativeComplex, matching: frozenset[tuple[int, int]]
) -> tuple[bool, str | None]:
    """Check both matching axioms; report the first violation found.

    The verdict comes from one unordered pass: every pair is a cover and
    no cell is named twice.  A pair (low, high) is a cover when high,
    less the start of the dimension above low's, is a column of low's
    row in the boundary.  Order only decides which violation gets
    reported, so only a matching that fails is scanned in order: pairs
    by their cell indices for a cell outside the cell set, then in the
    order of their cells' simplices, which is the order of their
    interior vertices in all dimensions at once.
    """
    cells, starts, bounds = pair.cells, pair.starts, pair.boundaries
    n = len(cells)
    named = bytearray(n)
    for low, high in matching:
        if not 0 <= low < n:
            break
        d = len(cells[low]) - 3
        mat = bounds.get(d + 1)
        # the row's columns are offsets into the dimension above, so an upper
        # index outside that dimension gives an offset that is no column
        if (
            mat is None
            or high - starts[d + 1] not in mat.rows.get(low - starts[d], ())
            or named[low]
            or named[high]
        ):
            break
        named[low] = named[high] = 1
    else:
        return True, None
    show = pair.simplex
    for low, high in sorted(matching):
        if not (0 <= low < len(cells) and 0 <= high < len(cells)):
            return False, f"pair ({low}, {high}) uses a cell outside the cell set"
    covers = set(pair.covers())
    used: set[int] = set()
    order = sorted(matching, key=lambda p: (cells[p[0]][1:-1], cells[p[1]][1:-1]))
    for low, high in order:
        if (low, high) not in covers:
            return False, f"pair ({show(low)}, {show(high)}) is not a cover relation"
        for cell in (low, high):
            if cell in used:
                return False, f"cell {show(cell)} appears in more than one pair"
            used.add(cell)
    return True, None


def is_acyclic(
    pair: RelativeComplex, matching: frozenset[tuple[int, int]]
) -> tuple[bool, list[int] | None]:
    """Cycle check on the up/down orientation of the cover digraph.

    Matched covers point up, the rest point down.  When no cell is named
    twice, an upper cell has no outgoing up-edge, so any directed cycle
    alternates: a lower cell, its mate, a face of the mate that is
    another lower cell, and so on.  The verdict comes from Kahn's
    algorithm on the lower cells with those edges, read off the boundary
    rows of the lower cells: acyclic exactly when repeatedly removing the
    cells with no incoming edge removes them all.
    Order only decides which cycle gets reported, so only on a cycle, or
    on a cell named twice or outside the cell set, does the ordered search
    run: from the cells in simplex order, taking targets in simplex order.
    Returns the cycle as a list of cell indices when one exists.
    """
    n = len(pair.cells)
    lower = bytearray(n)  # 1 on each lower cell, 2 on each upper cell
    comate = [-1] * n  # the lower cell matched with each upper cell
    below: dict[int, list[int]] = {}  # the lower cells among each one's mate's faces
    for low, high in matching:
        if low == high or not (0 <= low < n and 0 <= high < n) or lower[low] or lower[high]:
            return _ordered_cycle(pair, matching)
        lower[low], lower[high] = 1, 2
        comate[high] = low
        below[low] = []
    # the edges come from the boundary rows of the lower cells; a pair that
    # is no cover adds edges that the digraph lacks, and a cycle through
    # them only sends the check on to the ordered search
    indegree = [0] * n
    starts = pair.starts
    for d, mat in pair.boundaries.items():
        lo, first = starts[d - 1], starts[d]
        for r, cols in mat.rows.items():
            face = lo + r
            if lower[face] != 1:
                continue
            for c in cols:
                low = comate[first + c]
                if low != -1 and low != face:
                    below[low].append(face)
                    indegree[face] += 1
    ready = [low for low in below if not indegree[low]]
    for low in ready:  # grows as the loop runs
        for face in below[low]:
            indegree[face] -= 1
            if not indegree[face]:
                ready.append(face)
    if len(ready) == len(below):
        return True, None
    return _ordered_cycle(pair, matching)


def _ordered_cycle(
    pair: RelativeComplex, matching: frozenset[tuple[int, int]]
) -> tuple[bool, list[int] | None]:
    """The depth-first search behind ``is_acyclic``'s reported cycle:
    roots in simplex order (``RelativeComplex.order``), and each cell's
    targets by their interior vertices, which among faces of one cell is
    simplex order too."""
    n = len(pair.cells)
    up: list[list[int]] = [[] for _ in range(n)]
    for low, high in pair.covers():
        if (low, high) in matching:
            up[low].append(high)
        else:
            up[high].append(low)
    for targets in up:  # by interior vertices, simplex order in one dimension
        targets.sort(key=lambda t: pair.cells[t][1:-1])

    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n
    for root in sorted(range(n), key=pair.order):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        stack = [iter(up[root])]  # the targets still to visit along the path
        while stack:
            for nxt in stack[-1]:
                if color[nxt] == GRAY:
                    return False, path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append(iter(up[nxt]))
                    break
            else:
                color[path.pop()] = BLACK
                stack.pop()
    return True, None


def critical_cells(
    pair: RelativeComplex, matching: frozenset[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Unmatched cells with their dimensions, in index order; the
    relative complex's isolated cells, which have no index, are not
    among them.  Every cell of ``matching`` must be in the cell set, as
    in a matching that ``verify_matching`` passes."""
    matched = bytearray(len(pair.cells))
    for low, high in matching:
        matched[low] = matched[high] = 1
    return [(c, len(x) - 3) for c, x in enumerate(pair.cells) if not matched[c]]


def morse_rank_check(
    pair: RelativeComplex, matching: frozenset[tuple[int, int]]
) -> tuple[bool, str]:
    """Homological consequence of an acyclic matching on K_l \\ K'_l.

    With every critical cell in the top dimension l-2, the relative
    homology of the pair must be free of rank equal to the critical
    count, concentrated in degree l-2.  The count includes the pair's
    isolated cells, all of them top-dimensional.  Returns (ok,
    diagnostic); a diagnostic shows the first five cells off that
    dimension in simplex order.
    """
    length = pair.length
    crit = critical_cells(pair, matching)
    off = [(c, d) for c, d in crit if d != length - 2]
    if off:
        off.sort(key=lambda cd: pair.order(cd[0]))
        shown = [(pair.simplex(c), d) for c, d in off[:5]]
        return False, f"critical cells off dimension {length - 2}: {shown}"
    count = len(crit) + pair.isolated
    rel = relative_homology(pair)
    for deg, (rank, tors) in enumerate(rel):
        if deg == length - 2:
            if (rank, tors) != (count, ()):
                return False, (
                    f"degree {deg}: homology {(rank, list(tors))} but "
                    f"{count} critical cells"
                )
        elif rank or tors:
            return False, f"degree {deg}: unexpected homology {(rank, list(tors))}"
    plural = "s" if count != 1 else ""
    return True, f"{count} critical cell{plural} in dimension {length - 2}"
