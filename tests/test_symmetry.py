import random
from collections import Counter
from itertools import combinations, permutations, product

import oracles
import pytest
from conftest import FIXTURES, K33, PETERSEN, random_connected

from maghom import complete_graph, cycle_graph, from_edges, mh_column, mh_table, parse_graph
from maghom import homology, symmetry
from maghom.errors import InternalCheckError
from maghom.symmetry import (
    automorphism_generators,
    check_equitable,
    equitable_partition,
    is_automorphism,
    pair_orbits,
)

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

# K_(6x2), the cocktail-party graph on 12 vertices
K6X2 = from_edges([(u, v) for u, v in combinations(range(1, 13), 2) if (u + 1) // 2 != (v + 1) // 2])
# the complement of C3 + C4: 4-regular with vertex orbits {1, 5, 6} and
# {2, 3, 4, 7}, which refinement does not split, so candidates of the wrong
# orbit fail the shape test between candidates that find generators
CO_C3_C4 = from_edges([(1, 2), (1, 3), (1, 4), (1, 7), (2, 4), (2, 5), (2, 6),
                       (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)])


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


def test_union_find_gives_the_orbit_closures_in_the_same_order(g1, g3):
    # each orbit's least pair with its size, key order included, as the
    # closure that re-applies every generator to every pair found
    rng = random.Random(18)
    graphs = [parse_graph(line) for line in (FIXTURES / "atlas7_diam2.g6").read_text().split()]
    for g in [g1, g3, K33, PETERSEN, complete_graph(7), cycle_graph(9)]:
        graphs += [relabel(g, [0] + rng.sample(g.vertices, g.n)) for _ in range(20)]
    assert len(graphs) == 374 + 6 * 20
    for g in graphs:
        orbits = pair_orbits(g)
        assert list(orbits.items()) == list(oracles.pair_orbits(g, automorphism_generators(g)).items())


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


def test_equitable_check_skips_only_what_one_vertex_cannot_break(g1):
    singles = tuple((v,) for v in range(3, 7))
    with pytest.raises(InternalCheckError) as err:
        check_equitable(g1, ((1,), (1,)) + singles)  # vertex 1 twice, 2 missing
    assert str(err.value) == "refinement did not return a partition of the vertices"
    with pytest.raises(InternalCheckError) as err:
        check_equitable(g1, ((1, 2),) + singles)  # degrees 2 and 4
    assert str(err.value) == "partition is not equitable at cell [1, 2]"
    for g in [g1, PETERSEN, complete_graph(4)] + SMALL:
        check_equitable(g, tuple((v,) for v in g.vertices))


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


def test_one_summand_per_orbit_is_reduced(monkeypatch, g3):
    # each complex reduced has its groups read off once
    calls = Counter()
    groups_of = homology.groups_of
    length = 4

    def counted(dims, forms):
        calls[length] += 1  # the length of the mh_column call below
        return groups_of(dims, forms)

    monkeypatch.setattr(homology, "groups_of", counted)
    mh_column(PETERSEN, length)
    assert calls == {4: 3}  # one pair per orbit, of sizes 10, 30 and 60
    calls.clear()
    for length in range(2, 6):
        mh_column(g3, length)
    assert len(pair_orbits(g3)) == 13
    # one reduction per orbit pair that holds a cell or a walk
    held = {
        length: len(pair_orbits(g3).keys() & holding_pairs(g3, length))
        for length in range(2, 6)
    }
    assert calls == held
    assert held[2] < 13  # and none for the pairs that hold neither


def holding_pairs(g, length):
    """The pairs (a, b) that hold a length-l cell of some degree, found
    from the distances, or a length-l walk (``g.walks``)."""
    pairs = set()
    for a in g.vertices:
        # ends[r]: the last entries of the length-r sequences from a, each
        # gap a distance >= 1, so consecutive entries differ
        ends = [{a}]
        for r in range(1, length + 1):
            ends.append({
                w for d in range(1, r + 1) for v in ends[r - d] for w in g.vertices
                if g.dist[v][w] == d
            })
        pairs |= {(a, b) for b in ends[length]}
    walks = g.walks(length)
    return pairs | {(a, b) for a in g.vertices for b in g.vertices if walks[a][b]}


def test_the_search_loop_finds_the_recursive_searchs_generators(monkeypatch, g1, g3, c4):
    # the same generators in the same order, truncated searches included,
    # so the loop charges each refinement where the recursion did
    graphs = [c4, g1, g3, K33, PETERSEN, CO_C3_C4] + CUBIC + [complete_graph(12), K6X2]
    atlas = [parse_graph(line) for line in (FIXTURES / "atlas7_diam2.g6").read_text().split()]
    for g in graphs + atlas:
        assert automorphism_generators(g) == oracles.automorphism_generators(g)
    for budget in range(61):
        monkeypatch.setattr(symmetry, "SEARCH_NODES", budget)
        for g in graphs:
            assert automorphism_generators(g) == oracles.automorphism_generators(g)
    for budget in (3, 10):
        monkeypatch.setattr(symmetry, "SEARCH_NODES", budget)
        for g in atlas:
            assert automorphism_generators(g) == oracles.automorphism_generators(g)
