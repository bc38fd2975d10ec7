import random
from itertools import accumulate, product

import pytest
from conftest import RP2_FACES, hasse_graph, load_fixture, random_connected
from oracles import (
    faces,
    is_closed_under_faces,
    is_smooth,
    is_zero,
    lexicographic_pair,
    simplex_to_sequence,
    simplices,
    sparse_matmul,
)

from maghom import (
    ai_complex,
    complete_graph,
    cycle_graph,
    enumerate_sequences,
    homology,
    mh_column,
    path_graph,
)
from maghom.ai_complex import (
    cell_boundaries,
    f_vector,
    path_complex,
    reduced_homology,
    relative_complex,
    relative_homology,
    subsequence_length,
    verify_correspondence,
)
from maghom.errors import BudgetExceeded
from maghom.snf import SparseMatrix
from maghom.symmetry import pair_orbits


def negated(m):
    return SparseMatrix.from_entries({e: -v for e, v in m.entries.items()}, m.nrows, m.ncols)


def assert_listed_plus_isolated(pair, kept):
    """The cells of ``pair`` are ``kept``, simplices sorted by size and
    then lexicographically, less ``pair.isolated`` top cells that have
    no face outside K'.  In each dimension the cells with such a face
    come first, and below the top the others follow in the order of
    ``kept``.  In dimension 0 that face is the empty simplex, outside K'
    exactly when d(a, b) = l."""
    listed, top = simplices(pair), len(pair.starts) - 2
    outside = set(kept) | ({()} if pair.g.dist[pair.a][pair.b] == pair.length else set())
    assert len(listed) + pair.isolated == len(kept)
    for d, (lo, hi) in enumerate(zip(pair.starts, pair.starts[1:])):
        cells = listed[lo:hi]
        faced = [s for s in cells if any(f in outside for f, _ in faces(s))]
        rest = [s for s in kept if len(s) == d + 1 and s not in set(faced)]
        if d < top:
            assert cells == faced + rest
        else:
            assert cells == faced and len(rest) == pair.isolated
            assert not any(f in outside for s in rest for f, _ in faces(s))


def brute_force_paths(g, a, b, length):
    """Path oracle: filter the full product space."""
    out = []
    for mid in product(g.vertices, repeat=length - 1):
        seq = (a,) + mid + (b,)
        if all(g.d(seq[i], seq[i + 1]) == 1 for i in range(length)):
            out.append(seq)
    return sorted(out)


def test_enumerate_sequences_k2():
    assert enumerate_sequences(complete_graph(2), 1, 1, {(1, 2): 1}) == ((1, 2),)


def test_enumerate_sequences_c4_closed(c4):
    paths = enumerate_sequences(c4, 4, 4, {(1, 1): 1})
    assert len(paths) == 8  # one per maximal face of the octahedron


def test_enumerate_sequences_match_brute_force(g1, g2):
    for g, a, b, ell in ((g1, 1, 1, 3), (g1, 2, 4, 3), (g2, 1, 2, 4)):
        assert list(enumerate_sequences(g, ell, ell, {(a, b): 1})) == brute_force_paths(g, a, b, ell)


def test_c4_pair_worked_example(c4):
    pair = relative_complex(c4, 1, 1, 4)
    full = path_complex(c4, 1, 1, 4)
    assert f_vector(full) == (6, 12, 8)
    expected_sub = {
        ((2, 1),), ((1, 2),), ((2, 3),), ((4, 3),), ((4, 1),),
        ((1, 2), (2, 3)),
        ((2, 1), (2, 3)),
        ((2, 1), (1, 2)),
        ((1, 2), (4, 3)),
        ((4, 1), (1, 2)),
        ((4, 1), (4, 3)),
    }
    # the listed cells and the isolated ones make up K outside K'
    assert set(simplices(pair)) <= full - expected_sub
    assert len(pair.cells) + pair.isolated == len(full - expected_sub)


def test_pairs_closed_under_faces(g1, c4):
    for g, a, b, ell in ((c4, 1, 1, 4), (g1, 1, 4, 3), (g1, 2, 2, 4)):
        full = path_complex(g, a, b, ell)
        sub = full - set(simplices(relative_complex(g, a, b, ell)))
        assert is_closed_under_faces(full)
        assert is_closed_under_faces(sub)
        assert sub <= full


def test_complete_graph_maximal_boundaries_inside_subcomplex():
    for n in (4, 5):
        g = complete_graph(n)
        for a in (1,):
            for b in (1, 2):
                full = path_complex(g, a, b, 3)
                sub = full - set(simplices(relative_complex(g, a, b, 3)))
                top = [s for s in full if len(s) == 2]
                assert top, "expected maximal faces"
                for s in top:
                    for i in range(2):
                        assert (s[:i] + s[i + 1 :]) in sub


def test_membership_against_subset_oracle():
    g = path_graph(3)
    a, b, ell = 1, 2, 3
    paths = brute_force_paths(g, a, b, ell)
    universe = [(v, pos) for pos in range(1, ell) for v in g.vertices]
    oracle = set()
    for mask_size in range(1, ell):
        def subsets(pool, size, start=0):
            if size == 0:
                yield ()
                return
            for i in range(start, len(pool)):
                for rest in subsets(pool, size - 1, i + 1):
                    yield (pool[i],) + rest
        for cand in subsets(universe, mask_size):
            positions = [p for _, p in cand]
            if len(set(positions)) != len(positions):
                continue
            cand = tuple(sorted(cand, key=lambda vp: vp[1]))
            if any(all(path[p] == v for v, p in cand) for path in paths):
                oracle.add(cand)
    assert path_complex(g, a, b, ell) == oracle


def test_positions_are_cumulative_outside_subcomplex(g1, c4):
    for g, a, b, ell in ((c4, 1, 1, 4), (g1, 1, 1, 3), (g1, 2, 5, 4)):
        pair = relative_complex(g, a, b, ell)
        for seq, s in zip(pair.cells, simplices(pair)):
            assert simplex_to_sequence(a, b, s) == seq
            assert subsequence_length(g, a, b, s) == ell
            pos = 0
            for t in range(1, len(seq) - 1):
                pos += g.d(seq[t - 1], seq[t])
                assert s[t - 1] == (seq[t], pos)


def test_top_cells_are_the_walks_with_a_smooth_point(g1, g3, c4):
    # the walks by brute force: those with a smooth point are listed, in
    # some order, and the others are counted as isolated; with them the
    # cells are the full-length simplices of K
    for g in (c4, g1, g3, complete_graph(5)):
        for a, b in product(g.vertices, repeat=2):
            for ell in range(3, 7):
                pair = relative_complex(g, a, b, ell)
                walks = enumerate_sequences(g, ell, ell, {(a, b): 1})
                smooth = {w for w in walks if any(is_smooth(g, w, i) for i in range(1, ell))}
                top = pair.cells[pair.starts[-2]:]
                assert len(top) == len(set(top)) and set(top) == smooth
                assert pair.isolated == len(walks) - len(smooth)
                full = path_complex(g, a, b, ell)
                kept = sum(subsequence_length(g, a, b, s) == ell for s in full)
                assert len(pair.cells) + pair.isolated == kept


def test_relative_complex_enumerates_no_walk(g1, monkeypatch):
    # the degrees below l are grown by insertion, and only their cells
    # with no smooth point are enumerated; the walks, degree l, are counted
    calls = []

    def recording(g, k, length, summands=None, smooth=True, charge=None):
        calls.append((k, length, smooth))
        return enumerate_sequences(g, k, length, summands, smooth, charge)

    monkeypatch.setattr(homology, "enumerate_sequences", recording)
    monkeypatch.setattr(ai_complex, "enumerate_sequences", recording)
    for ell in (3, 4, 5, 6):
        pair = relative_complex(g1, 1, 3, ell)
        assert pair.cells[-1] and len(pair.cells[-1]) == ell + 1
    assert calls and all(k < length and smooth is False for k, length, smooth in calls)
    assert {k for k, length, _ in calls if length == 6} == {3, 4, 5}


def test_subcomplex_is_the_short_cells(g1, g2, g3, c4):
    # K' by its definition: the completed sequence is shorter than l
    for g in (c4, g1, g2, g3):
        for a, b in ((1, 1), (1, 3), (2, 5), (4, 2)):
            if b > g.n:
                continue
            for ell in (3, 4, 5):
                full = path_complex(g, a, b, ell)
                pair = relative_complex(g, a, b, ell)
                cells = simplices(pair)
                short = {s for s in full if subsequence_length(g, a, b, s) < ell}
                assert not short & set(cells)
                assert set(cells) <= full - short
                assert len(cells) + pair.isolated == len(full - short)


def signed_covers(pair):
    """(face, cell, sign) for each entry of the pair's maps, as sequences."""
    cells, starts = pair.cells, pair.starts
    return sorted(
        (cells[starts[d - 1] + r], cells[starts[d] + c], v)
        for d, mat in pair.boundaries.items()
        for (r, c), v in mat.entries.items()
    )


@pytest.mark.parametrize("name", ["G1", "G2", "G3", "C4", "RP2H"])
def test_the_grown_pair_is_the_lexicographic_pair_reordered(name):
    # relative_complex grows each degree by insertion; the oracle lists
    # each dimension below the top lexicographically and builds its maps
    # by deletion.  Per dimension: the same cells, those with a smooth
    # point (a face outside K') first and the others lexicographically
    # after them; the same signed covers, isolated cells and starts; and
    # every map of full shape, with d_(k-1) d_k = 0
    g = load_fixture(name)
    rp2 = name == "RP2H"
    seen = 0
    for a, b in pair_orbits(g) if rp2 else product(g.vertices, repeat=2):
        for ell in range(3, 6 if rp2 else 8):
            pair, lex = relative_complex(g, a, b, ell), lexicographic_pair(g, a, b, ell)
            assert (pair.starts, pair.isolated) == (lex.starts, lex.isolated)
            for lo, hi in zip(pair.starts, pair.starts[1:]):
                cells = pair.cells[lo:hi]
                assert sorted(cells) == sorted(lex.cells[lo:hi])
                smooth = [any(is_smooth(g, x, i) for i in range(1, len(x) - 1)) for x in cells]
                faced = sum(smooth)
                assert all(smooth[:faced])
                assert list(cells[faced:]) == sorted(cells[faced:])
                seen += 0 < faced < hi - lo
            assert signed_covers(pair) == signed_covers(lex)
            assert pair.boundaries.keys() == lex.boundaries.keys()
            for d, mat in pair.boundaries.items():
                dims = pair.starts[d] - pair.starts[d - 1], pair.starts[d + 1] - pair.starts[d]
                assert (mat.nrows, mat.ncols) == dims
                if d - 1 in pair.boundaries:
                    assert is_zero(sparse_matmul(pair.boundaries[d - 1], mat))
    assert seen  # some dimension is not in lexicographic order


@pytest.mark.parametrize("seed", range(12))
def test_direct_cells_are_the_full_length_simplices_of_k(seed):
    # the two routes to the cells, in the order that the pair promises,
    # on every endpoint pair; the top cells left out are isolated
    g = random_connected(random.Random(seed), 4 + seed % 4)
    for a in g.vertices:
        for b in g.vertices:
            for ell in (3, 4, 5):
                full = path_complex(g, a, b, ell)
                kept = [s for s in full if subsequence_length(g, a, b, s) == ell]
                expected = sorted(kept, key=lambda s: (len(s), s))
                assert_listed_plus_isolated(relative_complex(g, a, b, ell), expected)


@pytest.mark.parametrize("seed", range(12))
def test_face_table_boundaries_are_the_simplex_boundaries(seed):
    # the relative boundary two ways: from the smooth deletions that
    # relative_complex stores as maps, with the magnitude sign (-1)^i, and
    # by dropping each simplex element, with the simplicial sign (-1)^(i-1),
    # and keeping the faces outside K'; the simplex route takes the cells
    # in the pair's order, the isolated ones last
    g = random_connected(random.Random(seed), 4 + seed % 4)
    for a in g.vertices:
        for b in g.vertices:
            for ell in (3, 4, 5):
                full = path_complex(g, a, b, ell)
                kept = [s for s in full if subsequence_length(g, a, b, s) == ell]
                pair = relative_complex(g, a, b, ell)
                listed = simplices(pair)
                isolated = sorted(set(kept) - set(listed))
                dims, maps = cell_boundaries(listed + isolated)
                table_dims = [hi - lo for lo, hi in zip(pair.starts, pair.starts[1:])]
                table_dims[-1] += pair.isolated
                # slot k of the simplex route holds dimension k - 1
                assert dims[1:] + [0] * (ell - len(dims)) == table_dims
                maps = {k - 1: m for k, m in maps}
                listed_maps = {}
                for d, m in maps.items():
                    ncols = m.ncols - (pair.isolated if d == ell - 2 else 0)
                    assert all(c < ncols for _, c in m.entries)  # no face
                    if ncols:
                        listed_maps[d] = negated(SparseMatrix.from_entries(m.entries, m.nrows, ncols))
                assert listed_maps == pair.boundaries
                # the Morse covers are the entries of the simplex route's maps
                starts = list(accumulate(dims[1:], initial=0))
                assert set(pair.covers()) == {
                    (starts[d - 1] + r, starts[d] + c) for d, m in maps.items() for r, c in m.entries
                }


def test_lower_length_complex_sits_inside_subcomplex(g1):
    # needs every edge on a triangle, which holds in this fixture
    for a, b in ((1, 1), (1, 4), (2, 5)):
        shorter = path_complex(g1, a, b, 3)
        sub = path_complex(g1, a, b, 4) - set(simplices(relative_complex(g1, a, b, 4)))
        assert shorter <= sub
        assert shorter < sub  # strict on this fixture


def test_relative_homology_c4(c4):
    pair = relative_complex(c4, 1, 1, 4)
    assert relative_homology(pair) == [(0, ()), (0, ()), (3, ())]


def test_relative_homology_empty_pair(c4):
    # bipartite parity: no odd-to-even paths, so K is empty
    pair = relative_complex(c4, 1, 2, 4)
    assert not path_complex(c4, 1, 2, 4)
    assert relative_homology(pair) == [(0, ()), (0, ()), (0, ())]


def test_relative_boundary_squares_to_zero(g1):
    pair = relative_complex(g1, 1, 1, 4)
    boundaries = pair.boundaries
    for d in range(2, len(pair.starts) - 1):  # the cells of dimension d
        assert is_zero(sparse_matmul(boundaries[d - 1], boundaries[d]))



def test_augmented_boundary_squares_to_zero(g1, c4):
    for g, a, b, ell in ((c4, 1, 1, 4), (g1, 1, 1, 4), (g1, 2, 4, 4)):
        dims, maps = cell_boundaries([()] + sorted(path_complex(g, a, b, ell)))
        boundaries = dict(maps)
        # the augmentation sends every vertex to the empty simplex
        assert dims[0] == 1
        assert boundaries[1].entries == {(0, c): 1 for c in range(dims[1])}
        for d in range(2, len(dims)):
            assert is_zero(sparse_matmul(boundaries[d - 1], boundaries[d]))

def test_euler_characteristic_of_quotient(g1):
    pair = relative_complex(g1, 2, 4, 4)
    cells = simplices(pair)
    # the isolated cells are in the top dimension, l - 2
    chi = sum((-1) ** (len(s) - 1) for s in cells) + (-1) ** (4 - 2) * pair.isolated
    rel = relative_homology(pair)
    assert chi == sum((-1) ** d * rank for d, (rank, _) in enumerate(rel))


def test_reduced_homology_basics():
    assert reduced_homology([]) == []
    point = [((1, 1),)]
    assert reduced_homology(point) == [(0, ())]
    two_points = [((1, 1),), ((2, 2),)]
    assert reduced_homology(two_points) == [(1, ())]


def test_reduced_homology_octahedron(c4):
    assert reduced_homology(path_complex(c4, 1, 1, 4)) == [(0, ()), (0, ()), (1, ())]


def test_correspondence_c4(c4):
    report = verify_correspondence(c4, 1, 1, 4)
    assert report.ok
    assert report.per_degree[4] == (True, (3, ()), (3, ()))


def test_correspondence_carries_the_torsion_of_rp2():
    # K_4(bottom, top) of RP^2's Hasse diagram is the order complex of its
    # face poset, so the simplex route meets the Z/2 through cell_boundaries
    g = hasse_graph(RP2_FACES)
    report = verify_correspondence(g, 1, g.n, 4)
    assert report.ok
    assert report.per_degree[3] == (True, (0, (2,)), (0, (2,)))
    assert reduced_homology(path_complex(g, 1, g.n, 4)) == [(0, ()), (0, (2,)), (0, ())]


def test_correspondence_g1_all_pairs_length3(g1):
    for a in g1.vertices:
        for b in g1.vertices:
            assert verify_correspondence(g1, a, b, 3).ok


def test_correspondence_vacuous_when_no_paths(c4):
    report = verify_correspondence(c4, 1, 2, 4)
    assert report.ok
    assert all(entry == (True, (0, ()), (0, ())) for entry in report.per_degree.values())


def test_correspondence_reduced_branch_contractible():
    g = path_graph(5)
    report = verify_correspondence(g, 1, 4, 3)  # d(a, b) = l, one geodesic
    assert report.ok
    assert report.per_degree[2] == (True, (0, ()), (0, ()))


def test_correspondence_reduced_branch_disconnected():
    g = cycle_graph(6)
    report = verify_correspondence(g, 1, 4, 3)  # two geodesics, d(a, b) = l
    assert report.ok
    assert report.per_degree[2] == (True, (1, ()), (1, ()))


def test_g2_total_relative_rank_is_diagonal_rank(g2):
    total = 0
    for a in g2.vertices:
        for b in g2.vertices:
            rel = relative_homology(relative_complex(g2, a, b, 3))
            total += rel[1][0]
            assert rel[0] == (0, ())
    assert total == 38


def test_correspondence_agreement_uses_both_sides(g2):
    # spot check that the two sides are computed by different pipelines
    lhs = mh_column(g2, 3, {(1, 3): 1})[3]
    rhs = relative_homology(relative_complex(g2, 1, 3, 3))[1]
    assert lhs == rhs


def test_path_complex_is_refused_exactly_over_the_cap(g1, monkeypatch):
    # K_8(1,1) of K_2 is one path's 127 subsets; the G1 complexes are
    # unions over several paths, charged one simplex at a time near the cap
    for g, a, b, ell in ((g1, 1, 3, 4), (g1, 2, 5, 5), (complete_graph(2), 1, 1, 8)):
        size = len(path_complex(g, a, b, ell))
        monkeypatch.setenv("MAGHOM_BASIS_CAP", str(size))
        assert len(path_complex(g, a, b, ell)) == size
        monkeypatch.setenv("MAGHOM_BASIS_CAP", str(size - 1))
        with pytest.raises(BudgetExceeded, match=f"K_{ell}\\({a},{b}\\) exceeds the cap of {size - 1} "):
            path_complex(g, a, b, ell)
        monkeypatch.delenv("MAGHOM_BASIS_CAP")
