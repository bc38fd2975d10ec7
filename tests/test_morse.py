import random
from types import SimpleNamespace

import oracles

from maghom import complete_graph
from maghom.ai_complex import faces, relative_complex
from maghom.matching import build_matching, build_pawful_S
from maghom.morse import critical_cells, is_acyclic, morse_rank_check, verify_matching


def square_boundary_poset():
    """The boundary of a square as an abstract complex on elements 1..4.

    It is given as the morse functions read a relative complex: cells
    with sentinel ends, their covers as (face, cell) indices, and each
    cell's display form.
    """
    simplices = [(1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4), (1, 4)]
    simplices.sort(key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(simplices)}
    covers = [(index[f], c) for c, s in enumerate(simplices) for f, _ in faces(s) if f in index]
    return SimpleNamespace(
        cells=[(0,) + s + (0,) for s in simplices],
        covers=covers.__iter__,
        simplex=simplices.__getitem__,
    )


def matching(poset, *pairs):
    index = {poset.simplex(c): c for c in range(len(poset.cells))}
    return frozenset((index[low], index[high]) for low, high in pairs)


def test_cover_relations():
    poset = square_boundary_poset()
    cells = [poset.simplex(c) for c in range(len(poset.cells))]
    covers = {(low, high) for high in cells for low, _ in faces(high) if low in cells}
    assert ((1,), (1, 2)) in covers
    assert ((3,), (1, 2)) not in covers
    assert all(len(high) == len(low) + 1 for low, high in covers)


def test_verify_empty_matching():
    poset = square_boundary_poset()
    assert verify_matching(poset, frozenset()) == (True, None)


def test_verify_rejects_duplicate_cell():
    poset = square_boundary_poset()
    m = matching(poset, ((1,), (1, 2)), ((1,), (1, 4)))
    ok, why = verify_matching(poset, m)
    assert not ok
    assert "(1,)" in why


def test_verify_rejects_non_cover():
    poset = square_boundary_poset()
    ok, why = verify_matching(poset, matching(poset, ((1,), (2, 3))))
    assert not ok and "cover" in why


def test_single_pair_is_acyclic():
    poset = square_boundary_poset()
    m = matching(poset, ((1,), (1, 2)))
    assert verify_matching(poset, m)[0]
    assert is_acyclic(poset, m) == (True, None)


def test_rotating_matching_has_cycle():
    poset = square_boundary_poset()
    m = matching(poset, ((1,), (1, 2)), ((2,), (2, 3)), ((3,), (3, 4)), ((4,), (1, 4)))
    assert verify_matching(poset, m)[0]
    ok, cycle = is_acyclic(poset, m)
    assert not ok
    cycle = [poset.simplex(c) for c in cycle]
    assert cycle[0] == cycle[-1]
    # alternation: dimensions go up and down by one along the cycle
    dims = [len(c) - 1 for c in cycle]
    assert all(abs(a - b) == 1 for a, b in zip(dims, dims[1:]))
    uppers = [c for c in cycle[:-1] if len(c) == 2]
    assert len(uppers) == len(set(uppers)) >= 2


def test_critical_cells_empty_matching():
    poset = square_boundary_poset()
    crit = critical_cells(poset, frozenset())
    assert len(crit) == len(poset.cells)


def test_critical_cells_partition():
    poset = square_boundary_poset()
    m = matching(poset, ((1,), (1, 2)), ((2,), (2, 3)))
    crit = critical_cells(poset, m)
    assert len(crit) == len(poset.cells) - 4


def test_morse_rank_check_c4(c4):
    s = build_pawful_S(c4)
    build = build_matching(c4, relative_complex(c4, 1, 1, 4), s)
    ok, detail = morse_rank_check(relative_complex(c4, 1, 1, 4), build.matching)
    assert ok and "3 critical" in detail


def test_morse_rank_check_rejects_empty_matching(c4):
    # with nothing matched there are critical cells in low dimensions
    ok, detail = morse_rank_check(relative_complex(c4, 1, 1, 4), frozenset())
    assert not ok and "off dimension" in detail


def test_morse_rank_check_vacuous_empty_poset(c4):
    # no odd-length closed paths in a bipartite graph: empty cell set
    ok, _ = morse_rank_check(relative_complex(c4, 1, 2, 4), frozenset())
    assert ok


def test_critical_count_equals_relative_rank_complete_graph():
    g = complete_graph(4)
    s = build_pawful_S(g)
    for a, b in ((1, 1), (1, 2)):
        build = build_matching(g, relative_complex(g, a, b, 3), s)
        from maghom.ai_complex import relative_homology

        rel = relative_homology(relative_complex(g, a, b, 3))
        assert rel[1][0] == len(build.critical)
        from maghom import mh_column

        assert mh_column(g, 3, [(1, [(a, b)])])[3][0] == len(build.critical)


def test_random_matchings_agree_with_the_simplex_oracles(g1):
    # the index-and-table checks against the former simplex-based ones, on
    # valid, cyclic and invalid matchings; cycles come back cell for cell
    rng = random.Random(3141)
    seen = {"acyclic": 0, "cyclic": 0, "invalid": 0}
    for trial in range(360):
        a, b = rng.choice(list(g1.vertices)), rng.choice(list(g1.vertices))
        pair = relative_complex(g1, a, b, 4 + trial % 3)
        covers = list(pair.covers())
        rng.shuffle(covers)
        pairs, used = set(), set()
        for low, high in covers[: rng.randint(0, len(covers))]:
            if low not in used and high not in used:
                pairs.add((low, high))
                used |= {low, high}
        n = len(pair.cells)
        if n > 1 and trial % 4 == 0:  # any two cells: a reused cell or a non-cover
            pairs.add(tuple(rng.sample(range(n), 2)))
        matching = frozenset(pairs)
        shown = {(pair.simplex(low), pair.simplex(high)) for low, high in pairs}
        simplices = [pair.simplex(c) for c in range(n)]
        valid = verify_matching(pair, matching)
        assert valid == oracles.verify_matching(simplices, shown)
        ok, cycle = is_acyclic(pair, matching)
        expected = oracles.is_acyclic(simplices, shown)
        assert (ok, cycle and [pair.simplex(c) for c in cycle]) == expected
        seen["invalid" if not valid[0] else "acyclic" if ok else "cyclic"] += 1
    assert min(seen.values()) >= 20, seen
