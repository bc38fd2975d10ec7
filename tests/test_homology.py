import pytest
from conftest import full_boundary

from maghom import (
    complete_graph,
    enumerate_sequences,
    is_diagonal_up_to,
    mh_ab,
    mh_rank,
    mh_table,
    path_graph,
    star_graph,
)
from maghom.errors import BudgetExceeded
from maghom.homology import is_smooth, sequence_length
from maghom.snf import sparse_matmul


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
    restricted = enumerate_sequences(g2, 3, 4, (1, 2))
    assert restricted == tuple(s for s in full if s[0] == 1 and s[-1] == 2)


def test_boundary_zero_column_for_non_smooth(c4):
    # (u, v, u) has a non-smooth middle: d(u, u) = 0 but the gaps sum to 2
    basis = enumerate_sequences(c4, 2, 2)
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
                assert prod.is_zero()


def test_mh_degree_zero(g1, g2, c4):
    for g in (g1, g2, c4):
        assert mh_rank(g, 0, 0) == (g.n, ())
        for length in (1, 2, 3):
            assert mh_rank(g, 0, length) == (0, ())


def test_mh_small_forced_values(g1, g3):
    for g in (g1, g3):
        assert mh_rank(g, 1, 1) == (2 * g.m, ())
        for length in (2, 3):
            assert mh_rank(g, 1, length) == (0, ())


def test_mh_vanishes_above_diagonal(g2):
    for length in range(4):
        assert mh_rank(g2, length + 1, length) == (0, ())


def test_single_edge_table():
    # K2 chains alternate endlessly but nothing is ever smooth
    table = mh_table(complete_graph(2), 2)
    for length in range(3):
        assert table.rank(length, length) == 2
        assert not table.torsion(length, length)
    assert table.is_diagonal()


def test_g2_pinned_rank(g2):
    assert mh_rank(g2, 3, 3) == (38, ())


def test_g3_pinned_ranks(g3):
    assert mh_rank(g3, 2, 3) == (2, ())
    assert mh_rank(g3, 4, 6) == (2, ())
    assert mh_rank(g3, 5, 6) == (60, ())


def test_direct_sum_law(g1, g3):
    for g, k, length in ((g1, 3, 3), (g3, 2, 3), (g3, 3, 4)):
        total = 0
        torsion = []
        for a in g.vertices:
            for b in g.vertices:
                rank, tors = mh_ab(g, a, b, k, length)
                total += rank
                torsion.extend(tors)
        rank, tors = mh_rank(g, k, length)
        assert total == rank
        assert sorted(torsion) == sorted(tors)


def test_mh_ab_bipartite_odd_closed(c4):
    # closed sequences in a bipartite graph have even length
    for k in range(4):
        assert enumerate_sequences(c4, k, 3, (1, 1)) == ()
        assert mh_ab(c4, 1, 1, k, 3) == (0, ())


def test_mh_ab_c4_antipodal_sphere(c4):
    assert mh_ab(c4, 1, 1, 4, 4) == (3, ())


def test_diagonality_judgements(g1, g3):
    assert is_diagonal_up_to(star_graph(3), 4)
    assert is_diagonal_up_to(g1, 4)
    assert not is_diagonal_up_to(g3, 3)


def test_g1_diagonal_entries_match_series(g1):
    # the erratum question: degree 2 carries rank 60, degree 3 rank 182
    assert mh_rank(g1, 2, 2) == (60, ())
    assert mh_rank(g1, 3, 3) == (182, ())
    assert mh_rank(g1, 2, 3) == (0, ())


def test_off_diagonal_growth_forces_non_pawful(g3):
    # pawful graphs are diagonal, so a nonzero off-diagonal group rules it out
    from maghom import is_pawful

    assert not is_diagonal_up_to(g3, 3)
    assert not is_pawful(g3).verdict


def test_basis_cap(monkeypatch, g1):
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "3")
    with pytest.raises(BudgetExceeded):
        mh_rank(g1, 5, 5)


def test_basis_cap_applies_to_a_repeated_call(monkeypatch, g1):
    # the degree-1 basis at length 2 fits under the cap and the degree-2
    # one does not; an earlier uncapped call must not let a capped one by
    cap = len(enumerate_sequences(g1, 1, 2))
    assert len(enumerate_sequences(g1, 2, 2)) > cap
    assert mh_rank(g1, 1, 2) == (0, ())
    monkeypatch.setenv("MAGHOM_BASIS_CAP", str(cap))
    with pytest.raises(BudgetExceeded):
        mh_rank(g1, 1, 2)


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
