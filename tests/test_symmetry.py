import random
from collections import Counter
from itertools import permutations, product

import pytest
from conftest import random_connected

from maghom import complete_graph, cycle_graph, from_edges, mh_column, mh_table
from maghom import homology, symmetry
from maghom.errors import InternalCheckError
from maghom.symmetry import (
    automorphism_generators,
    check_equitable,
    equitable_partition,
    is_automorphism,
    pair_orbits,
)

PETERSEN = from_edges(
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
)
K33 = from_edges([(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
SMALL = [random_connected(random.Random(seed), 3 + seed % 4) for seed in range(30)]
# 3-regular, so refinement alone splits nothing and the search meets
# leaves that no automorphism reaches
CUBIC = [
    from_edges([(1, 2), (1, 7), (1, 8), (2, 4), (2, 8), (3, 5),
                (3, 6), (3, 8), (4, 5), (4, 7), (5, 6), (6, 7)]),
    from_edges([(1, 2), (1, 4), (1, 5), (2, 5), (2, 8), (3, 4),
                (3, 6), (3, 7), (4, 8), (5, 7), (6, 7), (6, 8)]),
    from_edges([(1, 5), (1, 6), (1, 7), (2, 3), (2, 5), (2, 6),
                (3, 6), (3, 8), (4, 5), (4, 7), (4, 8), (7, 8)]),
]


def relabel(g, perm):
    """The copy of g with vertex v renamed perm[v]."""
    return from_edges([(perm[u], perm[v]) for u, v in g.edges], n=g.n)


def brute_force_pair_orbits(g):
    """Orbit sizes of <Aut(G), reversal> on ordered pairs, from all n! permutations."""
    auts = []
    for images in permutations(g.vertices):
        perm = (0,) + images
        if all(g.dist[perm[u]][perm[v]] == 1 for u, v in g.edges):
            auts.append(perm)
    seen, sizes = set(), []
    for pair in product(g.vertices, repeat=2):
        if pair not in seen:
            orbit = {(p[a], p[b]) for p in auts for a, b in (pair, pair[::-1])}
            seen |= orbit
            sizes.append(len(orbit))
    return sorted(sizes)


def test_petersen_and_k33_have_three_pair_orbits():
    assert sorted(pair_orbits(PETERSEN).values()) == [10, 30, 60]
    assert sorted(pair_orbits(K33).values()) == [6, 12, 18]
    assert len(equitable_partition(PETERSEN)) == len(equitable_partition(K33)) == 1


def test_cycles_have_one_cell_and_g1_g3_four(g1, g3):
    for n in range(3, 12):
        assert equitable_partition(cycle_graph(n)) == (tuple(range(1, n + 1)),)
    for g in (g1, g3):
        cells = equitable_partition(g)
        assert len(cells) == 4
        assert sorted(v for cell in cells for v in cell) == list(range(1, 7))


def test_one_vertex():
    k1 = complete_graph(1)
    assert equitable_partition(k1) == ((1,),)
    assert pair_orbits(k1) == {(1, 1): 1}
    assert mh_column(k1, 0) == [(1, ())]


def test_orbits_match_brute_force(g1, g3, c4):
    for g in [c4, g1, g3, K33] + CUBIC + SMALL:
        orbits = pair_orbits(g)
        assert sorted(orbits.values()) == brute_force_pair_orbits(g)
        assert sum(orbits.values()) == g.n**2
        assert list(orbits) == sorted(orbits)  # each orbit's least pair, in order
        for perm in automorphism_generators(g):
            assert is_automorphism(g, perm)


def test_partition_is_equitable_and_coarser_than_the_orbits(g1, g3):
    for g in [g1, g3, PETERSEN] + SMALL:
        cells = equitable_partition(g)
        check_equitable(g, cells)
        cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
        for perm in automorphism_generators(g):
            assert all(cell_of[v] == cell_of[perm[v]] for v in g.vertices)


def test_relabelled_copies_give_the_same_orbit_sizes(g3):
    rng = random.Random(5)
    for g in [g3, PETERSEN, K33] + SMALL[:8]:
        sizes = sorted(pair_orbits(g).values())
        shape = sorted(map(len, equitable_partition(g)))
        for _ in range(5):
            perm = [0] + rng.sample(range(1, g.n + 1), g.n)
            copy = relabel(g, perm)
            assert sorted(pair_orbits(copy).values()) == sizes
            assert sorted(map(len, equitable_partition(copy))) == shape


def test_a_non_automorphism_is_refused(monkeypatch, g1):
    swap = list(range(g1.n + 1))
    swap[1], swap[2] = 2, 1  # vertex 1 has degree 2 in G1, vertex 2 degree 4
    assert not is_automorphism(g1, swap)
    monkeypatch.setattr(symmetry, "automorphism_generators", lambda g: [swap])
    with pytest.raises(InternalCheckError):
        pair_orbits(g1)
    with pytest.raises(InternalCheckError):
        mh_table(g1, 2)


def test_a_non_equitable_partition_is_refused(monkeypatch, g1):
    monkeypatch.setattr(symmetry, "refine", lambda g, cells: cells)
    with pytest.raises(InternalCheckError):
        equitable_partition(g1)  # G1 is not vertex-transitive
    with pytest.raises(InternalCheckError):
        check_equitable(g1, ((1, 2, 3), (4, 5)))  # vertex 6 is missing


def test_a_truncated_search_gives_finer_orbits_and_the_same_groups(monkeypatch, g3):
    for g in (g3, PETERSEN):
        full = pair_orbits(g)
        trivial = {(a, b): 1 + (a != b) for a in g.vertices for b in g.vertices if a <= b}
        assert len(full) < len(trivial)
        columns = [mh_column(g, length) for length in range(5)]
        monkeypatch.setattr(symmetry, "SEARCH_NODES", 0)
        assert automorphism_generators(g) == []
        assert pair_orbits(g) == trivial
        assert [mh_column(g, length) for length in range(5)] == columns
        monkeypatch.undo()


def test_one_summand_per_orbit_is_reduced(monkeypatch):
    calls = Counter()
    column = homology._homology

    def counted(g, bases, top):
        calls[len(bases) + 1] += 1  # degree l is counted, not enumerated
        return column(g, bases, top)

    monkeypatch.setattr(homology, "_homology", counted)
    mh_column(PETERSEN, 4)
    assert calls == {5: 3}  # one complex per orbit size: 10, 30 and 60
