import random
import time
from collections import defaultdict
from itertools import product

import pytest
from conftest import (
    K33,
    PETERSEN,
    RP2_FACES,
    full_basis,
    full_boundary,
    hasse_graph,
    load_fixture,
    random_connected,
)
from oracles import diagonal_pair_by_pair, is_smooth, is_zero, sequence_length, sparse_matmul

from maghom import (
    complete_graph,
    cycle_graph,
    enumerate_sequences,
    is_diagonal_up_to,
    mh_table,
    path_graph,
    star_graph,
)
from maghom import homology
from maghom.errors import BudgetExceeded, ValidationError
from maghom.homology import (
    boundary_matrix,
    merge_torsion,
    mh_column,
    pairwise_column,
)
from maghom.snf import SparseMatrix
from maghom.symmetry import pair_orbits


def test_enumerate_degree_zero(g1):
    assert enumerate_sequences(g1, 0, 0) == tuple((v,) for v in g1.vertices)
    assert enumerate_sequences(g1, 0, 1) == ()


def test_enumerate_k2_small():
    k2 = complete_graph(2)
    assert enumerate_sequences(k2, 2, 2) == ((1, 2, 1), (2, 1, 2))


def test_enumerate_is_lexicographic_and_valid(g2):
    seqs = enumerate_sequences(g2, 3, 4)
    assert list(seqs) == sorted(seqs)
    for s in seqs:
        assert all(s[i] != s[i + 1] for i in range(len(s) - 1))
        assert sequence_length(g2, s) == 4


def test_enumerate_endpoint_restriction(g2):
    full = enumerate_sequences(g2, 3, 4)
    restricted = enumerate_sequences(g2, 3, 4, {(1, 2): 1})
    assert restricted == tuple(s for s in full if s[0] == 1 and s[-1] == 2)


def test_boundary_zero_column_for_non_smooth(c4):
    # (u, v, u) has a non-smooth middle: d(u, u) = 0 but the gaps sum to 2
    basis = full_basis(c4, 2, 2)
    mat = full_boundary(c4, 2, 2)
    col = basis.index((1, 2, 1))
    assert not is_smooth(c4, (1, 2, 1), 1)
    assert all(c != col for (_, c) in mat.entries)


def test_boundary_squares_to_zero(g1, g3):
    for g in (g1, g3):
        for length in range(5):
            for k in range(2, length + 1):
                prod = sparse_matmul(
                    full_boundary(g, k - 1, length), full_boundary(g, k, length)
                )
                assert is_zero(prod)


def test_mh_degree_zero(g1, g2, c4):
    for g in (g1, g2, c4):
        assert mh_column(g, 0)[0] == (g.n, ())
        for length in (1, 2, 3):
            assert mh_column(g, length)[0] == (0, ())


def test_mh_small_forced_values(g1, g3):
    for g in (g1, g3):
        assert mh_column(g, 1)[1] == (2 * g.m, ())
        for length in (2, 3):
            assert mh_column(g, length)[1] == (0, ())


def test_single_edge_table():
    # K2 chains alternate endlessly but nothing is ever smooth
    table = mh_table(complete_graph(2), 2)
    for length in range(3):
        assert table.rank(length, length) == 2
        assert not table.torsion(length, length)
    assert table.is_diagonal()


def test_a_table_holds_only_its_nonzero_groups():
    # K2 has one nonzero group per length, MH_(l,l) = Z^2, among the
    # (lmax + 1)(lmax + 2)/2 groups with k <= l, here 80,901
    table = mh_table(complete_graph(2), 400)
    assert table.entries == {(length, length): (2, ()) for length in range(401)}
    assert table.rank(3, 400) == 0 and table.torsion(3, 400) == ()
    assert table.is_diagonal() and table.off_diagonal() == {}
    assert table.to_csv().splitlines()[401] == "400," + "," * 400 + "2"


def test_g2_pinned_rank(g2):
    assert mh_column(g2, 3)[3] == (38, ())


def test_g3_pinned_ranks(g3):
    assert mh_column(g3, 3)[2] == (2, ())
    assert mh_column(g3, 6)[4] == (2, ())
    assert mh_column(g3, 6)[5] == (60, ())


def test_direct_sum_law(g1, g3):
    for g, k, length in ((g1, 3, 3), (g3, 2, 3), (g3, 3, 4)):
        total = 0
        torsion = []
        for a in g.vertices:
            for b in g.vertices:
                rank, tors = mh_column(g, length, {(a, b): 1})[k]
                total += rank
                torsion.extend(tors)
        rank, tors = mh_column(g, length)[k]
        assert total == rank
        assert sorted(torsion) == sorted(tors)


def test_mh_ab_bipartite_odd_closed(c4):
    # closed sequences in a bipartite graph have even length
    for k in range(4):
        assert enumerate_sequences(c4, k, 3, {(1, 1): 1}) == ()
        assert mh_column(c4, 3, {(1, 1): 1})[k] == (0, ())


def test_mh_ab_c4_antipodal_sphere(c4):
    assert mh_column(c4, 4, {(1, 1): 1})[4] == (3, ())


def test_diagonality_judgements(g1, g3):
    assert is_diagonal_up_to(star_graph(3), 4)
    assert is_diagonal_up_to(g1, 4)
    assert not is_diagonal_up_to(g3, 3)


def test_g1_diagonal_entries_match_series(g1):
    # the erratum question: degree 2 carries rank 60, degree 3 rank 182
    assert mh_column(g1, 2)[2] == (60, ())
    assert mh_column(g1, 3)[3] == (182, ())
    assert mh_column(g1, 3)[2] == (0, ())


def test_off_diagonal_growth_forces_non_pawful(g3):
    # pawful graphs are diagonal, so a nonzero off-diagonal group rules it out
    from maghom import is_pawful

    assert not is_diagonal_up_to(g3, 3)
    assert not is_pawful(g3).verdict


def test_basis_cap(monkeypatch, g1):
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "3")
    with pytest.raises(BudgetExceeded):
        mh_column(g1, 5)


def test_basis_cap_applies_to_a_repeated_call(monkeypatch, g1):
    # the degree-1 basis at length 2 fits under the cap and the degree-2
    # one does not; an earlier uncapped call must not let a capped one by
    cap = len(full_basis(g1, 1, 2))
    assert len(full_basis(g1, 2, 2)) > cap
    assert mh_column(g1, 2)[1] == (0, ())
    monkeypatch.setenv("MAGHOM_BASIS_CAP", str(cap))
    with pytest.raises(BudgetExceeded):
        mh_column(g1, 2)


def test_table_csv_blanks(g3):
    table = mh_table(g3, 3)
    lines = table.to_csv().splitlines()
    assert lines[0] == "l\\k,0,1,2,3"
    assert lines[1] == "0,6,,,"
    assert lines[4] == "3,,,2,50"


def test_path_graph_tree_table():
    # tree magnitude is n - 2mq/(1+q), so every diagonal rank past 0 is 2m
    table = mh_table(path_graph(4), 3)
    assert table.is_diagonal()
    assert [table.rank(k, k) for k in range(4)] == [4, 6, 6, 6]


# n <= 7, seeded; shared by the enumerator, boundary and direct-sum checks
SMALL_GRAPHS = [random_connected(random.Random(seed), 2 + seed % 6) for seed in range(24)]


def brute_force_sequences(g, k):
    """Every degree-k sequence, lexicographically, keyed by its length."""
    by_length = defaultdict(list)
    for seq in product(g.vertices, repeat=k + 1):
        if all(seq[i] != seq[i + 1] for i in range(k)):
            by_length[sequence_length(g, seq)].append(seq)
    return by_length


def test_enumerator_matches_brute_force(g1, c4):
    rng = random.Random(7)
    for g in [c4, g1] + SMALL_GRAPHS[:12]:
        pairs = list(product(g.vertices, repeat=2))
        for k in range(6):
            by_length = brute_force_sequences(g, k)
            for length in range(6):
                seqs = tuple(by_length[length])
                assert enumerate_sequences(g, k, length) == seqs
                assert full_basis(g, k, length) == seqs
                some = rng.sample(pairs, rng.randrange(len(pairs) + 1))
                assert enumerate_sequences(g, k, length, dict.fromkeys(some, 1)) == tuple(
                    x for x in seqs if (x[0], x[-1]) in some
                )
                by_ends = defaultdict(list)
                for x in seqs:
                    by_ends[(x[0], x[-1])].append(x)
                for a, b in pairs:
                    assert enumerate_sequences(g, k, length, {(a, b): 1}) == tuple(by_ends[(a, b)])


def test_basis_cap_is_exact(monkeypatch, g1):
    # the cap bounds the full basis: every sequence found counts the weight
    # m of its summand, summed over all summands of one enumeration
    all_pairs = dict.fromkeys(product(g1.vertices, repeat=2), 1)
    open_pairs = {(a, b): 2 for a, b in all_pairs if a < b}
    closed_pairs = {(a, a): 3 for a in g1.vertices}
    for k, length, summands in (
        (1, 2, all_pairs), (2, 2, all_pairs), (3, 4, open_pairs),
        (3, 4, closed_pairs | open_pairs), (4, 5, {(1, 3): 1}),
        (3, 4, {(2, 2): 1, (1, 3): 5, (4, 2): 5}), (3, 4, pair_orbits(g1)),
    ):
        basis = enumerate_sequences(g1, k, length, summands)
        full = sum(summands[x[0], x[-1]] for x in basis)
        assert basis
        monkeypatch.setenv("MAGHOM_BASIS_CAP", str(full))
        assert enumerate_sequences(g1, k, length, summands) == basis
        monkeypatch.setenv("MAGHOM_BASIS_CAP", str(full - 1))
        with pytest.raises(BudgetExceeded):
            enumerate_sequences(g1, k, length, summands)
        monkeypatch.delenv("MAGHOM_BASIS_CAP")


def test_one_enumeration_merges_the_bases_of_its_pairs(g1, g2, g3, c4):
    # one pass over all the orbit representatives gives the lexicographic
    # merge of the bases each pair gets when enumerated alone
    for g in [c4, g1, g2, g3, K33, PETERSEN] + SMALL_GRAPHS:
        summands = pair_orbits(g)
        for length in range(6):
            for k in range(length + 1):
                assert enumerate_sequences(g, k, length, summands) == tuple(sorted(
                    x for pair in summands for x in enumerate_sequences(g, k, length, {pair: 1})
                ))


def test_column_cap_is_the_largest_full_basis(monkeypatch, g1):
    largest = max(len(full_basis(g1, k, 4)) for k in range(5))
    column = mh_column(g1, 4)
    monkeypatch.setenv("MAGHOM_BASIS_CAP", str(largest))
    assert mh_column(g1, 4) == column
    monkeypatch.setenv("MAGHOM_BASIS_CAP", str(largest - 1))
    with pytest.raises(BudgetExceeded):
        mh_column(g1, 4)


def test_top_degree_cap_counts_the_walks(monkeypatch):
    # K_3 at l = 4: only degree 4 is nonempty, 3 * 2^4 = 48 walks, counted
    # over the summands (1, 1) (m = 3) and (1, 2) (m = 6) without enumeration
    k3 = complete_graph(3)
    assert len(full_basis(k3, 4, 4)) == 48
    column = mh_column(k3, 4)
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "48")
    assert mh_column(k3, 4) == column
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "47")
    with pytest.raises(BudgetExceeded, match="degree-4 length-4 basis exceeds the cap of 47"):
        mh_column(k3, 4)


def test_degrees_below_l_over_the_diameter_are_not_enumerated(monkeypatch, g3):
    calls = []
    enumerate_named = homology.enumerate_sequences
    monkeypatch.setattr(
        homology, "enumerate_sequences",
        lambda g, k, length, summands: calls.append((k, length)) or enumerate_named(g, k, length, summands),
    )
    # K_2 has diameter 1: at length l only the l-step walks are cells
    table = mh_table(complete_graph(2), 50)
    assert calls == [] and table.is_diagonal() and table.rank(50, 50) == 2
    # G3 has diameter 2: degrees ceil(l / 2) to l - 1, and 2 or more
    mh_table(g3, 6)
    assert calls == [(k, length) for length in range(3, 7) for k in range(max(2, -(-length // 2)), length)]


def nonzero_columns(mat):
    """The columns of ``mat`` as a multiset of {row: entry}, zero ones left out."""
    columns = defaultdict(dict)
    for (r, c), v in mat.entries.items():
        columns[c][r] = v
    return sorted(sorted(col.items()) for col in columns.values())


def test_top_degree_is_counted_and_its_boundary_inserted(g1, g2, g3, c4):
    # the walk count is the enumerated top degree; the boundary built by
    # insertion peels exactly the rows of the deletion-rule d_l that hold
    # a one-entry column, and stores the rest of d_l on the other rows,
    # without its zero columns
    for g in [c4, g1, g2, g3, K33] + SMALL_GRAPHS:
        pair_sets = [pair_orbits(g)] + [{(a, b): 1} for a in g.vertices for b in g.vertices]
        for length in range(1, 6):
            walks = g.walks(length)
            for pairs in pair_sets:
                top = enumerate_sequences(g, length, length, pairs)
                assert sum(walks[a][b] for a, b in pairs) == len(top)
                lower = enumerate_sequences(g, length - 1, length, pairs)
                inserted = boundary_matrix(g, None, lower)
                index = {x: r for r, x in enumerate(lower)}
                full = {
                    (index[x[:i] + x[i + 1 :]], col): (-1) ** i
                    for col, x in enumerate(top)
                    for i in range(1, length)
                    if is_smooth(g, x, i)
                }
                deleted = SparseMatrix(full, len(lower), len(top))
                lone = {col[0][0] for col in nonzero_columns(deleted) if len(col) == 1}
                assert inserted.peeled == lone
                rest = {rc: v for rc, v in full.items() if rc[0] not in lone}
                assert nonzero_columns(inserted) == nonzero_columns(
                    SparseMatrix(rest, len(lower), len(top))
                )
                assert not any(r in lone for r, _ in inserted.entries)
                assert inserted.ncols == len(nonzero_columns(inserted))


def test_peeled_rows_are_zero_columns_of_the_map_below(g1, g3):
    # a cell that d_l peels has no smooth point, so no insertion reaches
    # its column of d_(l-1), which is built whole; the graphs of diameter
    # 3 or more also test the ends of the peeled cell's gap of 2
    peeled_seen = 0
    for g in [g1, g3, K33, PETERSEN, cycle_graph(7)] + SMALL_GRAPHS:
        for length in range(3, 7):
            upper = enumerate_sequences(g, length - 1, length, pair_orbits(g))
            lower = enumerate_sequences(g, length - 2, length, pair_orbits(g))
            if upper and lower:
                peeled = boundary_matrix(g, None, upper).peeled
                below = boundary_matrix(g, upper, lower)
                assert not any(col in peeled for _, col in below.entries)
                peeled_seen += len(peeled)
    assert peeled_seen > 1000


@pytest.mark.parametrize(
    "summands",
    [
        {(1, 99): 1},
        {(0, 3): 1},
        {(2, -1): 1},
        {(1, 3): 0},
        {(1, 1): 2, (1, 3): -1},
        {(1, 3): 1.5},
        {(1, 3): "2"},
        {(1, 3, 4): 1},
        {(1,): 1},
        {3: 1},
        {("1", 3): 1},
        [(1, 3)],
    ],
)
def test_summands_name_only_vertex_pairs_with_positive_integer_weights(g1, summands):
    with pytest.raises(ValidationError):
        enumerate_sequences(g1, 3, 4, summands)
    for length in (0, 4):
        with pytest.raises(ValidationError):
            mh_column(g1, length, summands)
        with pytest.raises(ValidationError):
            mh_table(g1, length, summands)


def test_the_weight_counts_a_summand(g1):
    # (3, 1) is the reversal of (1, 3), so m = 2 counts both
    assert mh_column(g1, 4, {(1, 3): 1})[4] == (4, ())
    assert mh_column(g1, 4, {(3, 1): 1})[4] == (4, ())
    assert mh_column(g1, 4, {(1, 3): 2})[4] == (8, ())
    assert mh_column(g1, 4, {(1, 3): 1, (3, 1): 1})[4] == (8, ())


def test_torsion_of_a_hasse_diagram_through_the_summand_route():
    # the (bottom, top) summand of the Hasse diagram of RP^2 at length 4
    # is the reduced homology of RP^2 shifted up by 2, so degree 3 holds
    # Z/2; its reversal (top, bottom) holds another, merged with weight 2
    g = hasse_graph(RP2_FACES)
    assert (g.n, g.m) == (33, 76)
    column = mh_column(g, 4)
    assert column == pairwise_column(g, 4)
    assert column[3] == (450, (2, 2))
    assert mh_column(g, 4, {(1, g.n): 1})[3] == (0, (2,))


def test_a_weight_repeats_the_groups_of_its_summand():
    # m copies of the summand's groups, torsion included, added to the
    # other pairs' groups; the pairs of one call share one enumeration
    g = hasse_graph(RP2_FACES)
    assert mh_column(g, 4, {(1, g.n): 3})[3] == (0, (2, 2, 2))
    weights = {(1, g.n): 2, (g.n, 1): 1, (1, 1): 4}
    alone = {pair: mh_column(g, 4, {pair: 1}) for pair in weights}
    assert mh_column(g, 4, weights) == [
        (
            sum(m * alone[pair][k][0] for pair, m in weights.items()),
            merge_torsion((alone[pair][k][1], m) for pair, m in weights.items()),
        )
        for k in range(5)
    ]
    assert mh_column(g, 4, weights)[4][0] > 0


def test_between_is_the_geodesic_interval(g1, g2, g3, c4):
    for g in [c4, g1, g2, g3, load_fixture("R40"), K33, PETERSEN] + SMALL_GRAPHS:
        d = g.dist
        for u in g.vertices:
            for w in g.vertices:
                interval = [
                    v for v in g.vertices if v not in (u, w) and d[u][v] + d[v][w] == d[u][w]
                ]
                assert list(g.between[u][w]) == interval
                if d[u][w] <= 1:
                    assert interval == []
                if d[u][w] == 2:
                    assert interval == [v for v in g.neighbors[u] if v in g.neighbors[w]]


def test_boundary_raises_on_a_missing_coface(g1):
    # a basis without one cell with a smooth point is not the degree
    # above ``lower``
    basis = full_basis(g1, 3, 4)
    lower = full_basis(g1, 2, 4)
    col = min(c for _, c in boundary_matrix(g1, basis, lower).entries)
    with pytest.raises(KeyError):
        boundary_matrix(g1, basis[:col] + basis[col + 1 :], lower)


def open_basis(g, k, length):
    """The sequences with x_0 < x_k, a basis of a subcomplex."""
    pairs = {(a, b): 1 for a in g.vertices for b in g.vertices if a < b}
    return enumerate_sequences(g, k, length, pairs)


def test_boundary_matches_smooth_point_rule(g3):
    # the inline smooth test agrees with is_smooth, position by position
    for g in [g3] + SMALL_GRAPHS:
        for length in range(2, 5):
            for k in range(2, length + 1):
                for bases in (full_basis, open_basis):
                    basis = bases(g, k, length)
                    lower = bases(g, k - 1, length)
                    index = {x: r for r, x in enumerate(lower)}
                    expected = {
                        (index[x[:i] + x[i + 1 :]], col): (-1) ** i
                        for col, x in enumerate(basis)
                        for i in range(1, k)
                        if is_smooth(g, x, i)
                    }
                    assert boundary_matrix(g, basis, lower).entries == expected


def invariant_factors(divisors):
    """Invariant factors of the sum of the groups Z/d, by their primary parts."""
    powers = defaultdict(list)  # prime -> its prime powers, one per divisor
    for d in divisors:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                powers[p].append(q)
            p += 1
    width = max(map(len, powers.values()), default=0)
    factors = [1] * width
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[width - 1 - i] *= q
    return tuple(factors)


def test_merge_torsion():
    assert merge_torsion([((2,), 2), ((3,), 1)]) == (2, 6)
    assert merge_torsion([((2, 4), 2), ((), 1)]) == (2, 2, 4, 4)
    assert merge_torsion([((), 2), ((3, 9), 1)]) == (3, 9)
    assert merge_torsion([((), 2), ((), 1)]) == ()
    assert merge_torsion([]) == ()
    assert merge_torsion([((2, 6), 3)]) == (2, 2, 2, 6, 6, 6)
    rng = random.Random(3)
    for _ in range(200):
        parts = []
        for _ in range(rng.randrange(4)):
            chain, d = [], 1
            for _ in range(rng.randrange(4)):
                d *= rng.choice((2, 3, 4, 5, 6, 9))
                chain.append(d)
            parts.append((tuple(chain), rng.randint(1, 4)))
        expected = invariant_factors([d for chain, m in parts for d in chain * m])
        assert merge_torsion(parts) == expected


def test_merge_torsion_of_many_divisors_stays_fast():
    # a Smith form of the 800 x 800 diagonal matrix takes seconds
    start = time.perf_counter()
    assert merge_torsion([((2,), 400), ((4,), 400)]) == (2,) * 400 + (4,) * 400
    assert time.perf_counter() - start < 1


def test_column_is_the_sum_of_all_endpoint_summands(g1, g2, g3, c4):
    # a second route to the halved complex: every ordered pair (a, b),
    # b < a included, computed on its own and added up
    for g in [c4, g1, g2, g3] + SMALL_GRAPHS[:20]:
        table = mh_table(g, 5)
        ranks = defaultdict(int)
        torsion = defaultdict(list)
        for a, b in product(g.vertices, repeat=2):
            for cell, (rank, tors) in mh_table(g, 5, {(a, b): 1}).entries.items():
                ranks[cell] += rank
                torsion[cell] += tors
        assert table.entries == {
            cell: (ranks[cell], invariant_factors(torsion[cell])) for cell in ranks
        }
        assert is_diagonal_up_to(g, 5) == table.is_diagonal()


def test_diagonal_check_stops_at_the_first_off_diagonal_length(monkeypatch, g1, g3):
    # each length is enumerated once for all orbit representatives and
    # reduced as one complex, not pair by pair through mh_column
    seen = []
    cells, reduce = homology._cells, homology._homology

    def recorded_cells(g, length, summands):
        seen.append(("cells", length, len(summands)))
        return cells(g, length, summands)

    def recorded_homology(g, ones, bases, top):
        seen.append(("reduce", len(bases) + 2))
        return reduce(g, ones, bases, top)

    def refused(*args):
        raise AssertionError("mh_column called")

    monkeypatch.setattr(homology, "_cells", recorded_cells)
    monkeypatch.setattr(homology, "_homology", recorded_homology)
    monkeypatch.setattr(homology, "mh_column", refused)
    assert len(pair_orbits(g3)) > 1 and len(pair_orbits(g1)) > 1
    assert not is_diagonal_up_to(g3, 6)
    # lengths 0-2 are diagonal without computing
    assert seen == [("cells", 3, len(pair_orbits(g3))), ("reduce", 3)]
    seen.clear()
    assert is_diagonal_up_to(g1, 4)
    n = len(pair_orbits(g1))
    assert seen == [("cells", 3, n), ("reduce", 3), ("cells", 4, n), ("reduce", 4)]
    seen.clear()
    assert is_diagonal_up_to(g3, 2)
    assert seen == []


def outcome(route, g, lmax):
    try:
        return route(g, lmax)
    except BudgetExceeded as exc:
        return str(exc)


def cap_charges(g, lmax):
    """Every amount charged to the basis cap at lengths 3..lmax: the
    degree-1 cells, each enumerated degree and the walks, each cell
    weighed by its orbit size."""
    summands, charges = pair_orbits(g), set()
    for length in range(3, lmax + 1):
        walks = g.walks(length)
        charges.add(sum(m for (a, b), m in summands.items() if g.dist[a][b] == length))
        for k in range(2, length):
            basis = enumerate_sequences(g, k, length, summands)
            charges.add(sum(summands[x[0], x[-1]] for x in basis))
        charges.add(sum(m * walks[a][b] for (a, b), m in summands.items()))
    return charges


@pytest.mark.parametrize("name", ["C4", "G1", "G3", "K33", "C7"])
def test_merged_diagonal_check_keeps_every_budget_outcome(monkeypatch, name):
    # swept across each charge, the merged check gives the per-pair
    # route's verdict or raises its message at the same caps; C7, of
    # diameter 3, reaches the degree-1 charge first at length 3
    g = {"K33": K33, "C7": cycle_graph(7)}.get(name) or load_fixture(name)
    lmax = 6
    caps = sorted({c + d for c in cap_charges(g, lmax) for d in (-1, 0) if c + d > 0})
    raised = 0
    for cap in caps:
        monkeypatch.setenv("MAGHOM_BASIS_CAP", str(cap))
        merged = outcome(is_diagonal_up_to, g, lmax)
        assert merged == outcome(diagonal_pair_by_pair, g, lmax), cap
        raised += isinstance(merged, str)
    monkeypatch.delenv("MAGHOM_BASIS_CAP")
    assert 0 < raised < len(caps)
    assert is_diagonal_up_to(g, lmax) == diagonal_pair_by_pair(g, lmax)


def test_lengths_up_to_two_are_diagonal(g1, g2, g3, c4):
    # MH_(0,l) and MH_(1,l) vanish off the diagonal, so is_diagonal_up_to
    # starts at length 3 and still agrees with the whole table
    for g in [c4, g1, g2, g3, K33, PETERSEN] + SMALL_GRAPHS:
        for length in range(3):
            column = mh_column(g, length)
            assert all(group == (0, ()) for group in column[:length])
        for lmax in range(6):
            assert is_diagonal_up_to(g, lmax) == mh_table(g, lmax).is_diagonal()
