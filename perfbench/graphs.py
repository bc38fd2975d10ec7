"""Graph helpers of the benchmark's own, independent of maghom.

Graphs are ``(n, edges)`` with vertices 1..n and ``edges`` a sorted tuple
of pairs ``(u, v)``, ``u < v``.  Distances come from plain breadth-first
search here, so the benchmark generates inputs and checks outputs without
importing the code under test.
"""

from __future__ import annotations

from collections import deque

# The bundled fixtures, copied so that the workloads stay fixed even if
# the fixture files change.
G1_EDGES = ((1, 2), (1, 5), (2, 3), (2, 5), (2, 6), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6))
G3_EDGES = ((1, 2), (1, 5), (1, 6), (2, 3), (3, 4), (3, 6), (4, 5), (4, 6))
G1_CERTIFICATE = """\
T 1 2 3
T 1 5 4
T 1 2 6
T 2 6 4
T 3 2 1
T 3 6 5
T 4 5 1
T 4 6 2
T 5 6 3
T 6 2 1
Q 2 1 2 3
Q 5 1 2 3
Q 2 1 5 4
Q 5 1 5 4
Q 2 1 2 6
Q 5 1 2 6
Q 1 2 5 4
Q 3 2 6 4
Q 5 2 6 4
Q 6 2 6 4
Q 2 3 2 1
Q 4 3 2 1
Q 6 3 2 1
Q 2 3 6 5
Q 4 3 6 5
Q 6 3 6 5
Q 3 4 5 1
Q 5 4 5 1
Q 6 4 5 1
Q 3 4 6 2
Q 5 4 6 2
Q 6 4 6 2
Q 1 5 2 3
Q 2 5 6 3
Q 4 5 6 3
Q 6 5 6 3
Q 2 6 2 1
Q 3 6 2 1
Q 4 6 5 1
Q 5 6 5 1
"""


def cycle(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(i, i % n + 1), max(i, i % n + 1)) for i in range(1, n + 1)))


def k33() -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in (1, 2, 3) for v in (4, 5, 6))


def petersen() -> tuple[tuple[int, int], ...]:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    return tuple(sorted((min(u, v), max(u, v)) for u, v in outer + spokes + inner))


def distances(n: int, edges) -> list[list[int]]:
    """1-indexed distance table; -1 marks an unreachable vertex."""
    adj = adjacency(n, edges)
    table = [[0] * (n + 1)]
    for s in range(1, n + 1):
        row = [-1] * (n + 1)
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
        table.append(row)
    return table


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def diameter(n: int, dist) -> int:
    """Largest distance, or -1 for a disconnected graph."""
    rows = [dist[u][1:] for u in range(1, n + 1)]
    if any(d < 0 for row in rows for d in row):
        return -1
    return max(max(row) for row in rows)


def is_pawful(n: int, edges, dist) -> bool:
    """Diameter <= 2, and every triple with d(x,y) = d(y,z) = 2,
    d(x,z) = 1 has a vertex adjacent to all three."""
    if not 0 <= diameter(n, dist) <= 2:
        return False
    adj = adjacency(n, edges)
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if dist[x][y] != 2:
                continue
            for z in range(1, n + 1):
                if dist[y][z] == 2 and dist[x][z] == 1 and not adj[x] & adj[y] & adj[z]:
                    return False
    return True


def relabel(edges, perm) -> tuple[tuple[int, int], ...]:
    """Apply ``perm`` (a list with perm[v] the new id of v; perm[0] unused)."""
    return tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))


def graph6(n: int, edges) -> str:
    """Standard graph6 line for n <= 62."""
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(2, n + 1) for i in range(1, j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = value << 1 | b
        chars.append(chr(value + 63))
    return "".join(chars)


def edge_list(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)
