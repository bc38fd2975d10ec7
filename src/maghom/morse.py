"""Discrete Morse machinery on sets of simplicial cells.

The covers of a cell set are its codimension-1 face relations: (face,
cell) with ``face`` one of ``ai_complex.faces(cell)`` and both in the
set.  A partial matching pairs each lower cell with a cover (a cell one
dimension up containing it), each cell used at most once.  Orienting
matched covers upward and all other covers downward gives a digraph; the
matching is acyclic when that digraph has no directed cycle.  Unmatched
cells are critical, and for an acyclic matching the cell set is
homotopy-modelled by one cell per critical cell, which this module
verifies at the level of homology ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ai_complex import RelativeComplex, Simplex, faces, relative_homology


@dataclass(frozen=True)
class Matching:
    """A set of (lower cell, upper cell) pairs."""

    pairs: frozenset[tuple[Simplex, Simplex]]

    def __len__(self) -> int:
        return len(self.pairs)

    def matched_cells(self) -> set[Simplex]:
        out: set[Simplex] = set()
        for low, high in self.pairs:
            out.add(low)
            out.add(high)
        return out


def verify_matching(cells, matching: Matching) -> tuple[bool, str | None]:
    """Check both matching axioms; report the first violation found."""
    cellset = set(cells)
    used: set[Simplex] = set()
    for low, high in sorted(matching.pairs):
        if low not in cellset or high not in cellset:
            return False, f"pair ({low}, {high}) uses a cell outside the cell set"
        if not any(f == low for f, _ in faces(high)):
            return False, f"pair ({low}, {high}) is not a cover relation"
        for cell in (low, high):
            if cell in used:
                return False, f"cell {cell} appears in more than one pair"
            used.add(cell)
    return True, None


def is_acyclic(cells, matching: Matching) -> tuple[bool, list[Simplex] | None]:
    """Cycle check on the up/down orientation of the cover digraph.

    Matched covers point up, the rest point down.  An upper cell has no
    outgoing up-edge (it is already the top of its pair), so any directed
    cycle automatically alternates up and down moves.  The search starts
    from the cells in the order given.  Returns the cycle as a cell list
    when one exists.
    """
    up: dict[Simplex, list[Simplex]] = {c: [] for c in cells}
    for high in cells:
        for low, _ in faces(high):
            if low not in up:
                continue
            if (low, high) in matching.pairs:
                up[low].append(high)
            else:
                up[high].append(low)
    for targets in up.values():
        targets.sort()

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {c: WHITE for c in cells}
    for root in cells:
        if color[root] != WHITE:
            continue
        stack: list[tuple[Simplex, int]] = [(root, 0)]
        color[root] = GRAY
        path = [root]
        while stack:
            cell, idx = stack[-1]
            if idx < len(up[cell]):
                stack[-1] = (cell, idx + 1)
                nxt = up[cell][idx]
                if color[nxt] == GRAY:
                    cycle = path[path.index(nxt):] + [nxt]
                    return False, cycle
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[cell] = BLACK
                stack.pop()
                path.pop()
    return True, None


def critical_cells(cells, matching: Matching) -> list[tuple[Simplex, int]]:
    """Unmatched cells with their dimensions, in the order of ``cells``."""
    matched = matching.matched_cells()
    return [(c, len(c) - 1) for c in cells if c not in matched]


def morse_rank_check(pair: RelativeComplex, matching: Matching) -> tuple[bool, str]:
    """Homological consequence of an acyclic matching on K_l \\ K'_l.

    With every critical cell in the top dimension l-2, the relative
    homology of the pair must be free of rank equal to the critical
    count, concentrated in degree l-2.  Returns (ok, diagnostic).
    """
    length = pair.length
    crit = critical_cells(pair.cells, matching)
    off = [(c, d) for c, d in crit if d != length - 2]
    if off:
        return False, f"critical cells off dimension {length - 2}: {off[:5]}"
    rel = relative_homology(pair)
    for deg, (rank, tors) in enumerate(rel):
        if deg == length - 2:
            if (rank, tors) != (len(crit), ()):
                return False, (
                    f"degree {deg}: homology {(rank, list(tors))} but "
                    f"{len(crit)} critical cells"
                )
        elif rank or tors:
            return False, f"degree {deg}: unexpected homology {(rank, list(tors))}"
    plural = "s" if len(crit) != 1 else ""
    return True, f"{len(crit)} critical cell{plural} in dimension {length - 2}"
