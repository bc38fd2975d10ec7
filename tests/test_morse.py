import random
from types import SimpleNamespace

import oracles

from maghom import complete_graph
from maghom.ai_complex import faces, relative_complex
from maghom.matching import build_matching, build_pawful_S, parse_s
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
    build = build_matching(relative_complex(c4, 1, 1, 4), s)
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
        pair = relative_complex(g, a, b, 3)
        build = build_matching(pair, s)
        from maghom.ai_complex import relative_homology

        rel = relative_homology(relative_complex(g, a, b, 3))
        assert rel[1][0] == len(build.critical) + pair.isolated
        from maghom import mh_column

        assert mh_column(g, 3, {(a, b): 1})[3][0] == len(build.critical) + pair.isolated


def assert_agrees_with_the_simplex_oracles(pair, pairs):
    """Verdicts, messages and cycles as the oracles give them.

    A cell index outside the cell set is shown to the oracles as a tuple
    that is no simplex of the complex; the message names it by index.
    """
    n = len(pair.cells)
    simplices = oracles.simplices(pair)
    outside = simplices[-1] * 2
    shown = {
        tuple(simplices[c] if 0 <= c < n else outside for c in cover) for cover in pairs
    }
    matching = frozenset(pairs)
    expected = oracles.verify_matching(simplices, shown)
    stray = sorted(p for p in pairs if not all(0 <= c < n for c in p))
    if stray:
        expected = (False, f"pair {stray[0]} uses a cell outside the cell set")
    assert verify_matching(pair, matching) == expected
    ok, cycle = is_acyclic(pair, matching)
    assert (ok, cycle and [pair.simplex(c) for c in cycle]) == oracles.is_acyclic(simplices, shown)
    return expected[0], ok


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
        valid, ok = assert_agrees_with_the_simplex_oracles(pair, pairs)
        seen["invalid" if not valid else "acyclic" if ok else "cyclic"] += 1
    assert min(seen.values()) >= 20, seen


def closing_covers(pair, low, high):
    """Covers (low, high), (l2, h2), .., (lk, hk) with l2 a face of high,
    l3 of h2, .. and low of hk, all cells distinct: matched, they close a
    cycle.  Found as a shortest path from ``high`` back to ``low`` through
    the other covers between their two dimensions; empty if none."""
    cells, sizes = pair.cells, {len(pair.cells[low]), len(pair.cells[high])}
    linked: dict[int, list[int]] = {}
    for f, c in pair.covers():
        if len(cells[f]) in sizes and len(cells[c]) in sizes and (f, c) != (low, high):
            linked.setdefault(f, []).append(c)
            linked.setdefault(c, []).append(f)
    back = {high: high}
    for c in (queue := [high]):  # breadth first: the queue grows as it is read
        for t in linked.get(c, ()):
            if t not in back:
                back[t] = c
                queue.append(t)
    if low not in back:
        return []
    walk = [low]  # back from low: low, hk, lk, .., l2, high
    while walk[-1] != high:
        walk.append(back[walk[-1]])
    return [(low, high)] + list(zip(walk[-2:0:-2], walk[-3:0:-2]))


def repaired(pairs, covers):
    """``pairs`` with each cover matched in turn, the pairs it meets dropped."""
    out = set(pairs)
    for f, c in covers:
        out = {p for p in out if f not in p and c not in p} | {(f, c)}
    return out


def edge_cases(pair, base, pairs):
    """``base`` broken at each of its given pairs (low, high) in each way
    that an unordered pass could miss: a negative index (a list indexed by
    cell would wrap it onto the pair itself), an index past the end, the
    lower or the upper cell named in a second pair, and a pair that is no
    cover."""
    n = len(pair.cells)
    covers = list(pair.covers())
    for low, high in pairs:
        rest = base - {(low, high)}
        yield from ({(low - n, high), *rest}, {(low + n, high), *rest}, {(high, low), *rest})
        yield from ({*base, (f, c)} for f, c in covers if (f == low) != (c == high))


def test_fast_paths_on_edge_cases_agree_with_the_simplex_oracles(g1, g1_cert_text):
    square = square_boundary_poset()
    rotating = matching(square, ((1,), (1, 2)), ((2,), (2, 3)), ((3,), (3, 4)), ((4,), (1, 4)))
    pair = relative_complex(g1, 1, 3, 6)
    certified = build_matching(pair, parse_s(g1_cert_text, g1)).matching
    covers = list(pair.covers())
    for closing in (closing_covers(pair, f, c) for f, c in covers):
        on = {cell for cover in closing for cell in cover}
        # an upper cell of the cycle with a face off it: named in a second
        # pair with that face, it must not drop out of the cycle
        if any(f not in on for f, c in covers if c in dict(closing).values()):
            break
    cyclic = frozenset(repaired(certified, closing))
    assert not is_acyclic(pair, cyclic)[0]
    for poset, base, pairs in ((square, rotating, rotating), (pair, cyclic, closing)):
        for broken in edge_cases(poset, base, pairs):
            valid, _ = assert_agrees_with_the_simplex_oracles(poset, broken)
            assert not valid
    # wrapped, a negative index would close the square's cycle again
    wrapped = next(edge_cases(square, rotating, rotating))
    assert is_acyclic(square, frozenset(wrapped)) == (True, None)


def test_cycles_at_length_6_agree_with_the_simplex_oracles(g1, g1_cert_text):
    # the certificate's matching, re-paired along random covers and then
    # along covers that close a cycle: the unordered pass finds one and
    # the ordered search then names the oracle's, cell for cell
    pair = relative_complex(g1, 1, 3, 6)
    certified = build_matching(pair, parse_s(g1_cert_text, g1)).matching
    covers = list(pair.covers())
    rng = random.Random(2718)
    trials = 0
    while trials < 12:
        closing = closing_covers(pair, *rng.choice(covers))
        if closing:
            pairs = repaired(certified, rng.sample(covers, rng.randint(0, 6)) + closing)
            assert assert_agrees_with_the_simplex_oracles(pair, pairs) == (True, False)
            trials += 1
