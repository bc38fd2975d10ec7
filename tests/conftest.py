import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from maghom import from_edges, parse_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PETERSEN = from_edges(
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
)
K33 = from_edges([(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
# K_(20x2), the cocktail-party graph: K_40 minus the perfect matching
# {2i - 1, 2i}; pawful, with 1560 certificate variables
K20X2 = from_edges([(u, v) for u, v in combinations(range(1, 41), 2) if (u + 1) // 2 != (v + 1) // 2])

# a 6-vertex triangulation of the real projective plane, whose integral
# homology is Z, Z/2, 0
RP2_FACES = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def hasse_graph(faces):
    """The Hasse diagram of the complex the given faces generate, with a
    bottom (vertex 1) below its vertices and a top (vertex n) above its
    maximal faces, as an undirected graph on 1..n."""
    cells = sorted(
        {c for f in faces for k in range(1, len(f) + 1) for c in combinations(sorted(f), k)},
        key=lambda c: (len(c), c),
    )
    index = {c: i for i, c in enumerate(cells, start=2)}
    top = len(cells) + 2
    edges = [(1, index[c]) for c in cells if len(c) == 1]
    edges += [(index[c[:i] + c[i + 1 :]], index[c]) for c in cells if len(c) > 1 for i in range(len(c))]
    edges += [(index[tuple(sorted(f))], top) for f in faces]
    return from_edges(edges, n=top)


def load_fixture(name):
    return parse_graph((FIXTURES / name).read_text())


def census_stream(seed=1):
    """The first batch of the benchmark's ``census`` workload at ``seed``
    (``perfbench/workloads.py``, seeded as ``perfbench/run.py`` seeds
    it): 300 relabelled connected 7-vertex graphs as (n, edges), in
    stream order."""
    sys.path.insert(0, str(FIXTURES.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    batch = workloads.make_batch("census", random.Random(f"census:{seed}"), set())
    return [graph for call in batch for graph in call["graphs"]]


@pytest.fixture(scope="session")
def g1():
    return load_fixture("G1")


@pytest.fixture(scope="session")
def g2():
    return load_fixture("G2")


@pytest.fixture(scope="session")
def g3():
    return load_fixture("G3")


@pytest.fixture(scope="session")
def c4():
    return load_fixture("C4")


@pytest.fixture(scope="session")
def g1_cert_text():
    return (FIXTURES / "G1.sstruct").read_text()


def encode_graph6(n, edges):
    """Independent graph6 encoder used as a round-trip oracle in tests."""
    es = {(min(u, v) - 1, max(u, v) - 1) for u, v in edges}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in es else 0)
    while len(bits) % 6:
        bits.append(0)
    if n < 63:
        out = chr(63 + n)
    else:  # "~", then n as three 6-bit digits, high first
        out = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    for t in range(0, len(bits), 6):
        word = 0
        for bit in bits[t : t + 6]:
            word = word * 2 + bit
        out += chr(63 + word)
    return out


def full_basis(g, k, length):
    """The whole degree-k, length-l basis in lexicographic order."""
    from maghom import enumerate_sequences

    return enumerate_sequences(g, k, length)


def full_boundary(g, k, length):
    """The degree-k boundary matrix of the whole length-l complex, its
    rows and columns the lexicographic bases, built by deletion."""
    from oracles import indexed_boundary

    return indexed_boundary(g, full_basis(g, k, length), full_basis(g, k - 1, length))


def random_connected(rng, n):
    """A random spanning tree on 1..n plus a random number of extra edges."""
    edges = {tuple(sorted((v, rng.randrange(1, v)))) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges |= set(rng.sample(pairs, rng.randrange(len(pairs) // 2 + 1)))
    return from_edges(sorted(edges), n=n)
