from maghom import complete_graph
from maghom.ai_complex import faces, relative_complex
from maghom.matching import build_matching, build_pawful_S
from maghom.morse import (
    Matching,
    critical_cells,
    is_acyclic,
    morse_rank_check,
    verify_matching,
)


def square_boundary_poset():
    """The boundary of a square as an abstract complex on elements 1..4."""
    cells = [(1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4), (1, 4)]
    return sorted(cells, key=lambda s: (len(s), s))


def test_cover_relations():
    cells = square_boundary_poset()
    covers = {(low, high) for high in cells for low, _ in faces(high) if low in cells}
    assert ((1,), (1, 2)) in covers
    assert ((3,), (1, 2)) not in covers
    assert all(len(high) == len(low) + 1 for low, high in covers)


def test_verify_empty_matching():
    poset = square_boundary_poset()
    assert verify_matching(poset, Matching(frozenset())) == (True, None)


def test_verify_rejects_duplicate_cell():
    poset = square_boundary_poset()
    m = Matching(frozenset({((1,), (1, 2)), ((1,), (1, 4))}))
    ok, why = verify_matching(poset, m)
    assert not ok
    assert "(1,)" in why


def test_verify_rejects_non_cover():
    poset = square_boundary_poset()
    ok, why = verify_matching(poset, Matching(frozenset({((1,), (2, 3))})))
    assert not ok and "cover" in why


def test_single_pair_is_acyclic():
    poset = square_boundary_poset()
    m = Matching(frozenset({((1,), (1, 2))}))
    assert verify_matching(poset, m)[0]
    assert is_acyclic(poset, m) == (True, None)


def test_rotating_matching_has_cycle():
    poset = square_boundary_poset()
    m = Matching(
        frozenset(
            {((1,), (1, 2)), ((2,), (2, 3)), ((3,), (3, 4)), ((4,), (1, 4))}
        )
    )
    assert verify_matching(poset, m)[0]
    ok, cycle = is_acyclic(poset, m)
    assert not ok
    assert cycle[0] == cycle[-1]
    # alternation: dimensions go up and down by one along the cycle
    dims = [len(c) - 1 for c in cycle]
    assert all(abs(a - b) == 1 for a, b in zip(dims, dims[1:]))
    uppers = [c for c in cycle[:-1] if len(c) == 2]
    assert len(uppers) == len(set(uppers)) >= 2


def test_critical_cells_empty_matching():
    poset = square_boundary_poset()
    crit = critical_cells(poset, Matching(frozenset()))
    assert len(crit) == len(poset)


def test_critical_cells_partition():
    poset = square_boundary_poset()
    m = Matching(frozenset({((1,), (1, 2)), ((2,), (2, 3))}))
    crit = critical_cells(poset, m)
    assert len(crit) == len(poset) - 4


def test_morse_rank_check_c4(c4):
    s = build_pawful_S(c4)
    build = build_matching(c4, relative_complex(c4, 1, 1, 4), s)
    ok, detail = morse_rank_check(relative_complex(c4, 1, 1, 4), build.matching)
    assert ok and "3 critical" in detail


def test_morse_rank_check_rejects_empty_matching(c4):
    # with nothing matched there are critical cells in low dimensions
    ok, detail = morse_rank_check(relative_complex(c4, 1, 1, 4), Matching(frozenset()))
    assert not ok and "off dimension" in detail


def test_morse_rank_check_vacuous_empty_poset(c4):
    # no odd-length closed paths in a bipartite graph: empty cell set
    ok, _ = morse_rank_check(relative_complex(c4, 1, 2, 4), Matching(frozenset()))
    assert ok


def test_critical_count_equals_relative_rank_complete_graph():
    g = complete_graph(4)
    s = build_pawful_S(g)
    for a, b in ((1, 1), (1, 2)):
        build = build_matching(g, relative_complex(g, a, b, 3), s)
        from maghom.ai_complex import relative_homology

        rel = relative_homology(relative_complex(g, a, b, 3))
        assert rel[1][0] == len(build.critical)
        from maghom import mh_ab

        assert mh_ab(g, a, b, 3, 3)[0] == len(build.critical)
