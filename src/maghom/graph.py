"""Finite simple connected graphs with their shortest-path metric.

Vertices are labelled 1..n in every public input and output.  A Graph
carries its full distance matrix, computed once by breadth-first search,
so metric queries are O(1) table lookups.  Instances are immutable and
hashable; they can be shared freely between concurrent computations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]        # sorted pairs (u, v) with u < v
    neighbors: tuple[tuple[int, ...], ...]    # index 0 unused
    dist: tuple[tuple[int, ...], ...]         # index 0 unused

    def d(self, u: int, v: int) -> int:
        return self.dist[u][v]

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def degree(self, u: int) -> int:
        return len(self.neighbors[u])

    def is_tree(self) -> bool:
        return self.m == self.n - 1

    def common_neighbors(self, *vs: int) -> list[int]:
        sets = [set(self.neighbors[v]) for v in vs]
        out = sets[0]
        for s in sets[1:]:
            out &= s
        return sorted(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def _bfs_row(n: int, adj: list[list[int]], source: int) -> list[int]:
    row = [-1] * (n + 1)
    row[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if row[w] < 0:
                row[w] = row[u] + 1
                queue.append(w)
    return row


def from_edges(edges, n: int | None = None) -> Graph:
    """Build a validated Graph from an iterable of (u, v) pairs.

    Raises ValidationError on loops, duplicate edges, non-positive ids,
    or a disconnected result.  With ``n`` given, vertices 1..n are used
    as-is; otherwise n is the largest id that appears.
    """
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (isinstance(u, int) and isinstance(v, int)) or u < 1 or v < 1:
            raise ValidationError(f"vertex ids must be positive integers, got ({u}, {v})")
        if u == v:
            raise ValidationError(f"loop at vertex {u}")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ValidationError(f"duplicate edge {e}")
        seen.add(e)
    if n is None:
        if not seen:
            raise ValidationError("no edges and no vertex count given")
        n = max(v for e in seen for v in e)
    elif seen and max(v for e in seen for v in e) > n:
        raise ValidationError("edge endpoint exceeds declared vertex count")
    if n < 1:
        raise ValidationError("graph must have at least one vertex")

    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        row.sort()

    dist = [[0] * (n + 1)]
    for s in range(1, n + 1):
        row = _bfs_row(n, adj, s)
        if any(row[v] < 0 for v in range(1, n + 1)):
            raise ValidationError("graph is disconnected")
        dist.append(row)

    return Graph(
        n=n,
        edges=tuple(sorted(seen)),
        neighbors=tuple(tuple(r) for r in adj),
        dist=tuple(tuple(r) for r in dist),
    )


def relabel_normalized(edges) -> list[tuple[int, int]]:
    """Map arbitrary positive ids onto 1..n, preserving numeric order."""
    ids = sorted({v for e in edges for v in e})
    index = {v: i + 1 for i, v in enumerate(ids)}
    return [(index[u], index[v]) for u, v in edges]


# ---------------------------------------------------------------------------
# generators


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValidationError("complete graph needs n >= 1")
    return from_edges([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)], n=n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError("cycle graph needs n >= 3")
    return from_edges([(i, i + 1) for i in range(1, n)] + [(1, n)], n=n)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValidationError("path graph needs n >= 1")
    return from_edges([(i, i + 1) for i in range(1, n)], n=n)


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: hub 1 joined to leaves 2..leaves+1."""
    if leaves < 1:
        raise ValidationError("star graph needs at least one leaf")
    return from_edges([(1, i) for i in range(2, leaves + 2)], n=leaves + 1)


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_edge_list(text: str) -> Graph:
    """Parse the one-edge-per-line format: "u v", '#' starts a comment."""
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        edges.append((u, v))
    if not edges:
        raise ParseError("edge list contains no edges")
    return from_edges(relabel_normalized(edges))


def parse_graph6(line: str) -> Graph:
    """Decode one line of the standard graph6 encoding."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 line")
    data = [ord(ch) - 63 for ch in s]
    if any(x < 0 or x > 63 for x in data):
        raise ParseError(f"graph6 byte out of range in {line!r}")
    if data[0] < 63:
        n, pos = data[0], 1
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    else:
        raise ParseError("graph6 vertex counts above 258047 are not supported")
    if n < 1:
        raise ParseError("graph6 graph has no vertices")
    nbits = n * (n - 1) // 2
    if len(data) - pos != (nbits + 5) // 6:
        raise ParseError(f"graph6 line has wrong length for n={n}")
    bits = []
    for x in data[pos:]:
        bits.extend((x >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(2, n + 1):       # upper triangle, column by column
        for i in range(1, j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return from_edges(edges, n=n)


def detect_format(text: str) -> str:
    """Guess 'edge-list' or 'graph6' from the first non-comment line."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
                return "edge-list"
            except ValueError:
                pass
        return "graph6"
    raise ParseError("input contains no graph data")


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "graph6":
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                return parse_graph6(line)
        raise ParseError("no graph6 line found")
    raise ValidationError(f"unknown graph format {fmt!r}")


def serialize_edge_list(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges)


# ---------------------------------------------------------------------------
# metric predicates


def diameter(g: Graph) -> int:
    return max(g.dist[u][v] for u in g.vertices for v in g.vertices)


@dataclass(frozen=True)
class PawfulWitness:
    """Outcome of the pawfulness test.

    Exactly one of ``violation`` and ``far_pair`` is set when the verdict
    is negative: a triple (x, y, z) with d(x,y) = d(y,z) = 2, d(x,z) = 1
    and no vertex adjacent to all three, or a pair at distance > 2.
    """

    verdict: bool
    violation: tuple[int, int, int] | None = None
    far_pair: tuple[int, int] | None = None

    def reason(self) -> str:
        """Why the graph is not pawful, in words (negative verdicts only)."""
        if self.far_pair:
            return f"vertices {self.far_pair} are at distance > 2"
        x, y, z = self.violation
        return f"triple {x},{y},{z} has no common neighbor"


def is_pawful(g: Graph) -> PawfulWitness:
    """Diameter at most 2, and every (2,2,1)-triple has a common neighbor.

    The reported violation is the lexicographically smallest one.
    """
    for u in g.vertices:
        for v in g.vertices:
            if g.dist[u][v] > 2:
                return PawfulWitness(False, far_pair=(u, v))
    nbr = [None] + [set(g.neighbors[v]) for v in g.vertices]
    for x in g.vertices:
        for y in g.vertices:
            if g.dist[x][y] != 2:
                continue
            for z in g.vertices:
                if g.dist[y][z] != 2 or g.dist[x][z] != 1:
                    continue
                if not (nbr[x] & nbr[y] & nbr[z]):
                    return PawfulWitness(False, violation=(x, y, z))
    return PawfulWitness(True)


def ahk_edge_cycle_check(g: Graph) -> tuple[bool, tuple[int, int] | None]:
    """Is every edge on a cycle of length 3 or 4 (distinct vertices)?

    Rejects trees: the condition is only meaningful for graphs with a cycle.
    Returns (True, None) or (False, first failing edge).
    """
    if g.is_tree():
        raise ValidationError("edge-cycle condition applies to non-trees only")
    edgeset = set(g.edges)
    for u, v in g.edges:
        if g.common_neighbors(u, v):
            continue                      # triangle through {u, v}
        found = False
        for w in g.neighbors[v]:
            if w == u:
                continue
            for x in g.neighbors[u]:
                if x == v or x == w:
                    continue
                if (min(w, x), max(w, x)) in edgeset:
                    found = True
                    break
            if found:
                break
        if not found:
            return False, (u, v)
    return True, None
