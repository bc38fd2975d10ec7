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
"""

from __future__ import annotations

from .ai_complex import RelativeComplex, relative_homology


def verify_matching(
    pair: RelativeComplex, matching: frozenset[tuple[int, int]]
) -> tuple[bool, str | None]:
    """Check both matching axioms; report the first violation found.

    The verdict comes from one unordered pass: every pair is a cover and
    no cell is named twice.  Order only decides which violation gets
    reported, so only a matching that fails is scanned in order: pairs
    by their cell indices for a cell outside the cell set, then in the
    order of their cells' simplices, which is the order of their
    interior vertices in all dimensions at once.
    """
    named = {c for cover in matching for c in cover}
    if len(named) == 2 * len(matching):
        if len(matching.intersection(pair.covers())) == len(matching):
            return True, None
    cells, show = pair.cells, pair.simplex
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
    algorithm on the lower cells with those edges: acyclic exactly when
    repeatedly removing the cells with no incoming edge removes them all.
    Order only decides which cycle gets reported, so only on a cycle, or
    on a cell named twice or outside the cell set, does the ordered search
    run: from the cells in index order, taking targets in simplex order.
    Returns the cycle as a list of cell indices when one exists.
    """
    n = len(pair.cells)
    named = {c for cover in matching for c in cover}
    if len(named) < 2 * len(matching) or (named and (min(named) < 0 or max(named) >= n)):
        return _ordered_cycle(pair, matching)
    comate = [-1] * n  # the lower cell matched with each upper cell
    below: dict[int, list[int]] = {}  # the lower cells among each one's mate's faces
    for low, high in matching:
        comate[high] = low
        below[low] = []
    # a pair that is no cover adds edges that the digraph lacks; a cycle
    # through them only sends the check on to the ordered search
    indegree = [0] * n
    for face, cell in pair.covers():
        low = comate[cell]
        if low != -1 and low != face and face in below:
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
    """The depth-first search behind ``is_acyclic``'s reported cycle."""
    n = len(pair.cells)
    up: list[list[int]] = [[] for _ in range(n)]
    for low, high in pair.covers():
        if (low, high) in matching:
            up[low].append(high)
        else:
            up[high].append(low)
    lows = {low for low, _ in matching}
    for c, targets in enumerate(up):
        if c in lows:  # up and down targets: order by interior vertices
            targets.sort(key=lambda t: pair.cells[t][1:-1])
        else:  # one dimension, where index order is simplex order
            targets.sort()

    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n
    # the top cells, not in simplex order, come last; every cycle holds a
    # lower cell, so the roots before them reach it first
    for root in range(n):
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
    among them."""
    matched = {c for cover in matching for c in cover}
    return [(c, len(x) - 3) for c, x in enumerate(pair.cells) if c not in matched]


def morse_rank_check(
    pair: RelativeComplex, matching: frozenset[tuple[int, int]]
) -> tuple[bool, str]:
    """Homological consequence of an acyclic matching on K_l \\ K'_l.

    With every critical cell in the top dimension l-2, the relative
    homology of the pair must be free of rank equal to the critical
    count, concentrated in degree l-2.  The count includes the pair's
    isolated cells, all of them top-dimensional.  Returns (ok, diagnostic).
    """
    length = pair.length
    crit = critical_cells(pair, matching)
    off = [(c, d) for c, d in crit if d != length - 2]
    if off:
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
