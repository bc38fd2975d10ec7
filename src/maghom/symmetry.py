"""Symmetries of a graph's distance matrix: equitable partitions and Aut(G).

Two reductions rest on this module, and both fail loudly rather than
wrongly: every result is checked before it is returned.

* ``equitable_partition`` refines the complete graph on the vertices
  with edge colours d(x, y) (colour refinement, the 1-dimensional
  Weisfeiler-Leman algorithm).  The result is the coarsest partition
  C_1..C_r in which the multiset {d(x, y) : y in C_j} is the same for
  every x in C_i, for all i and j.  Magnitude reduces to its r x r
  quotient on such a partition.
* ``pair_orbits`` finds generators of Aut(G) by individualisation and
  refinement, checks that each maps the edge set onto itself, and
  returns the orbits of <Aut(G), reversal> on ordered pairs (a, b),
  where reversal swaps a and b.  Magnitude homology needs one endpoint
  summand per orbit.

The search records the first leaf of the search tree; for each level of
that first path, deepest first, and each vertex w of the level's target
cell not yet in the orbit of the first path's vertex, it looks below w
for a leaf that the first leaf maps to by an automorphism.  Such a leaf
exists exactly when w is in that orbit of the stabiliser of the earlier
vertices, so the automorphisms found generate Aut(G) (the first-path
search of McKay and Piperno, "Practical graph isomorphism, II", 2014).
A subtree whose cell sizes differ from the first path's at the same
depth holds no such leaf.  The search stops after ``SEARCH_NODES``
refinements; the automorphisms found by then generate a subgroup, whose
orbits are finer but just as correct.
"""

from __future__ import annotations

from .errors import InternalCheckError
from .graph import Graph

Cells = tuple[tuple[int, ...], ...]

SEARCH_NODES = 5000


def refine(g: Graph, cells: Cells) -> Cells:
    """The coarsest equitable refinement of the ordered partition ``cells``.

    A cell splits by the multiset of (cell index, distance) over all
    vertices, and its parts are ordered by that multiset, so the result
    does not depend on the labels: relabelling the input relabels the
    output cell by cell.
    """
    dist = g.dist
    while True:
        cell_of = [0] * (g.n + 1)
        for i, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = i
        cell_of = cell_of[1:]
        split: list[tuple[int, ...]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            parts: dict[tuple, list[int]] = {}
            for x in cell:
                parts.setdefault(tuple(sorted(zip(cell_of, dist[x][1:]))), []).append(x)
            split.extend(tuple(parts[key]) for key in sorted(parts))
        if len(split) == len(cells):
            return cells
        cells = tuple(split)


def check_equitable(g: Graph, cells: Cells) -> None:
    """Raise InternalCheckError unless ``cells`` partition the vertices and
    the distances from x into each cell do not depend on x within a cell.
    A one-vertex cell has one profile, so only larger cells are compared."""
    if sorted(v for cell in cells for v in cell) != list(g.vertices):
        raise InternalCheckError("refinement did not return a partition of the vertices")
    for cell in cells:
        if len(cell) == 1:
            continue
        profiles = {
            tuple(tuple(sorted(g.dist[x][y] for y in other)) for other in cells)
            for x in cell
        }
        if len(profiles) > 1:
            raise InternalCheckError(f"partition is not equitable at cell {list(cell)}")


def equitable_partition(g: Graph) -> Cells:
    """The coarsest equitable partition of the distance matrix, checked."""
    cells = refine(g, (tuple(g.vertices),))
    check_equitable(g, cells)
    return cells


def _individualise(cells: Cells, i: int, v: int) -> Cells:
    rest = tuple(u for u in cells[i] if u != v)
    return cells[:i] + ((v,), rest) + cells[i + 1:]


def _target(cells: Cells) -> int:
    return next(i for i, cell in enumerate(cells) if len(cell) > 1)


def is_automorphism(g: Graph, perm: list[int]) -> bool:
    """Is perm (perm[v] the image of v, index 0 unused) a permutation of the
    vertices that maps the edge set onto itself?"""
    if sorted(perm[1:]) != list(g.vertices):
        return False
    dist = g.dist
    return all(dist[perm[u]][perm[v]] == 1 for u, v in g.edges)


def _orbit(v: int, gens: list[list[int]]) -> set[int]:
    """The orbit of vertex v under ``gens``."""
    orbit, todo = {v}, [v]
    while todo:
        x = todo.pop()
        for perm in gens:
            if perm[x] not in orbit:
                orbit.add(perm[x])
                todo.append(perm[x])
    return orbit


def automorphism_generators(g: Graph) -> list[list[int]]:
    """Generators of Aut(G) (of a subgroup when the search runs out of
    ``SEARCH_NODES`` refinements), each a list with perm[v] the image of v.
    Below each candidate, the search is a loop over a stack of (cells,
    target cell, depth, untried vertices), one refinement per vertex tried.
    """
    cells = refine(g, (tuple(g.vertices),))
    path = []  # (cells, target cell, first vertex) at each level of the first path
    while len(cells) < g.n:
        i = _target(cells)
        path.append((cells, i, cells[i][0]))
        cells = refine(g, _individualise(cells, i, cells[i][0]))
    first_leaf = [cell[0] for cell in cells]
    shapes = [tuple(map(len, node)) for node, _, _ in path] + [(1,) * g.n]
    gens: list[list[int]] = []
    nodes = 0
    for depth in range(len(path) - 1, -1, -1):
        node, i, v = path[depth]
        orbit = _orbit(v, gens)
        for w in node[i]:
            if w in orbit:
                continue
            stack = [(node, i, depth, iter([w]))]
            while stack:
                cells, j, d, untried = stack[-1]
                u = next(untried, 0)  # vertices start at 1
                if not u:
                    stack.pop()
                    continue
                if nodes >= SEARCH_NODES:
                    return gens
                nodes += 1
                cells = refine(g, _individualise(cells, j, u))
                if tuple(map(len, cells)) != shapes[d + 1]:
                    continue
                if len(cells) < g.n:
                    j = _target(cells)
                    stack.append((cells, j, d + 1, iter(cells[j])))
                    continue
                perm = [0] * (g.n + 1)
                for x, cell in zip(first_leaf, cells):
                    perm[x] = cell[0]
                if is_automorphism(g, perm):
                    gens.append(perm)
                    orbit = _orbit(v, gens)
                    break
    return gens


def pair_orbits(g: Graph) -> dict[tuple[int, int], int]:
    """Orbits of <Aut(G), reversal> on the ordered pairs (a, b) of vertices:
    each orbit's least pair mapped to its size, in increasing order of
    pairs.  Raises InternalCheckError if a generator is not an automorphism.

    Reversal commutes with Aut(G), so the orbit of (a, b) is the
    Aut(G)-orbit of the unordered pair {a, b}, each pair {a, b} with
    a != b counted as (a, b) and (b, a); its least ordered pair is its
    least (min, max).  A union-find joins each unordered pair with its
    image under each generator, over only the pairs that generator moves,
    those with an end it moves, and keeps every class under its least
    pair, so the classes come out in increasing order.
    """
    gens = automorphism_generators(g)
    for perm in gens:
        if not is_automorphism(g, perm):
            raise InternalCheckError(f"generator {perm[1:]} is not an automorphism")
    w = g.n + 1
    parent = list(range(w * w))  # {a, b}, a <= b, at index a w + b

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in gens:
        for a in g.vertices:
            pa = perm[a]
            if pa != a:
                for b in g.vertices:
                    pb = perm[b]
                    x = root(a * w + b if a <= b else b * w + a)
                    y = root(pa * w + pb if pa <= pb else pb * w + pa)
                    parent[max(x, y)] = min(x, y)
    sizes: dict[tuple[int, int], int] = {}
    for a in g.vertices:
        for b in range(a, w):  # in increasing order, so a class's root comes first
            x = a * w + b
            parent[x] = parent[parent[x]]  # its root, as parent[x] <= x is done
            pair = divmod(parent[x], w)
            sizes[pair] = sizes.get(pair, 0) + (1 if a == b else 2)
    return sizes
