from math import inf

import pytest
from oracles import sequence_indices

from maghom import complete_graph, from_edges
from maghom.ai_complex import relative_complex
from maghom.errors import (
    BudgetExceeded,
    CertificateError,
    ParseError,
    ValidationError,
)
from maghom.matching import (
    SStructure,
    build_matching,
    build_pawful_S,
    check_star_property,
    parse_s,
    search_structure,
    serialize_s,
    verify_s_structure,
)
from maghom.morse import is_acyclic, morse_rank_check, verify_matching


@pytest.fixture(scope="module")
def g1_cert(g1, g1_cert_text):
    return parse_s(g1_cert_text, g1)


def _middles(g, s):
    """The triple middle over each ordered distance-2 pair, and the
    quadruple middle over each key (alpha, delta, beta) with
    d(alpha,delta) = 2, as the certificate chose them."""
    pair_mid = {(t[0], t[2]): t[1] for t in s.triples}
    triple_mid = {(q[0], q[3], q[1]): q[2] for q in s.quads if g.d(q[0], q[3]) == 2}
    return pair_mid, triple_mid


def test_pawful_middles_complete_graph():
    assert _middles(complete_graph(4), build_pawful_S(complete_graph(4))) == ({}, {})


def test_pawful_middles_c4(c4):
    pair_mid, triple_mid = _middles(c4, build_pawful_S(c4))
    assert pair_mid == {(1, 3): 2, (3, 1): 2, (2, 4): 1, (4, 2): 1}
    assert triple_mid == {}


def test_pawful_middles_are_the_smallest_common_neighbors():
    # C_5 on 1..5 with two adjacent hubs 6, 7 joined to every rim vertex
    rim = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    g = from_edges(rim + [(h, v) for h in (6, 7) for v in range(1, 6)] + [(6, 7)])
    pair_mid, triple_mid = _middles(g, build_pawful_S(g))
    assert pair_mid == {(1, 3): 2, (3, 1): 2, (1, 4): 5, (4, 1): 5, (2, 4): 3,
                        (4, 2): 3, (2, 5): 1, (5, 2): 1, (3, 5): 4, (5, 3): 4}
    # a far middle is adjacent to alpha, delta and beta: only the hubs are
    assert set(triple_mid.values()) == {6} and len(triple_mid) == 10


def test_build_pawful_S_rejects_non_pawful(g1):
    with pytest.raises(ValidationError) as err:
        build_pawful_S(g1)
    assert str(err.value) == "graph is not pawful: triple 3,1,4 has no common neighbor"


def test_pawful_structure_complete_graph_empty():
    s = build_pawful_S(complete_graph(5))
    assert not s.quads and not s.triples


def test_pawful_structure_c4(c4):
    s = build_pawful_S(c4)
    assert s.triples == {(1, 2, 3), (3, 2, 1), (2, 1, 4), (4, 1, 2)}
    # all quadruples come from the near clause: middle equals the first entry
    assert all(q[2] == q[0] for q in s.quads)
    assert len(s.quads) == 8


def test_pawful_structure_middles_are_near(c4):
    for g in (c4, complete_graph(4), complete_graph(5)):
        s = build_pawful_S(g)
        for q in s.quads:
            assert g.d(q[0], q[2]) <= 1


def test_sequence_indices_plain_geodesic(c4):
    s = build_pawful_S(c4)
    idx = sequence_indices(c4, (1, 2, 1, 2, 1), s)
    assert (idx.pattern, idx.gap) == (inf, inf)


def test_sequence_indices_window(c4):
    s = build_pawful_S(c4)
    idx = sequence_indices(c4, (1, 2, 1, 4, 1), s)
    assert (idx.pattern, idx.gap) == (1, inf)


def test_sequence_indices_gap_first(c4):
    s = build_pawful_S(c4)
    idx = sequence_indices(c4, (1, 3, 2, 1), s)
    assert idx.gap == 0 and idx.pattern == inf


def test_sequence_indices_triple_override_flag(g1):
    s = SStructure(frozenset({(1, 2, 6, 4)}), frozenset({(1, 2, 6)}))
    seq = (1, 2, 6, 4)
    assert sequence_indices(g1, seq, s).pattern == 0


def test_build_matching_c4(c4):
    s = build_pawful_S(c4)
    build = build_matching(c4, relative_complex(c4, 1, 1, 4), s)
    assert len(build.matching) == 6
    assert len(build.critical) == 3
    poset = relative_complex(c4, 1, 1, 4)
    assert all(len(poset.simplex(c)) - 1 == 2 for c in build.critical)
    assert verify_matching(poset, build.matching)[0]
    assert is_acyclic(poset, build.matching)[0]


def test_build_matching_partitions_cells(c4):
    s = build_pawful_S(c4)
    build = build_matching(c4, relative_complex(c4, 1, 1, 4), s)
    cells = relative_complex(c4, 1, 1, 4).cells
    inserted = {low for low, _ in build.matching}
    deleted = {high for _, high in build.matching}
    assert inserted | deleted | set(build.critical) == set(range(len(cells)))
    assert len(inserted) == len(deleted) == len(build.matching)
    assert len(inserted) + len(deleted) + len(build.critical) == len(cells)


def test_build_matching_scan_agrees_with_sequence_indices(g1, g1_cert, c4):
    # the first-event scan of build_matching against the two full scans
    for g, s in ((g1, g1_cert), (c4, build_pawful_S(c4))):
        for a, b in ((1, 1), (1, 3), (2, 4), (4, 2)):
            pair = relative_complex(g, a, b, 5)
            build = build_matching(g, pair, s)
            groups = {"critical": [], "inserted": [], "deleted": []}
            for c, seq in enumerate(pair.cells):
                idx = sequence_indices(g, seq, s)
                if idx.pattern == idx.gap == inf:
                    groups["critical"].append(c)
                else:
                    groups["inserted" if idx.gap < idx.pattern else "deleted"].append(c)
            assert groups == {
                "critical": list(build.critical),
                "inserted": sorted(low for low, _ in build.matching),
                "deleted": sorted(high for _, high in build.matching),
            }
            for low, high in build.matching:
                i = sequence_indices(g, pair.cells[high], s).pattern
                assert pair.cells[low] == pair.cells[high][: i + 1] + pair.cells[high][i + 2 :]


def test_build_matching_complete_graphs():
    for n, ell in ((5, 4), (4, 3), (4, 5)):
        g = complete_graph(n)
        s = build_pawful_S(g)
        for a, b in ((1, 2), (2, 2)):
            pair = relative_complex(g, a, b, ell)
            build = build_matching(g, pair, s)
            assert not build.matching  # nothing to pair: no gaps, no patterns
            assert all(len(pair.simplex(c)) - 1 == ell - 2 for c in build.critical)
            assert morse_rank_check(relative_complex(g, a, b, ell), build.matching)[0]


def test_build_matching_rejects_incomplete_certificate(c4):
    s = build_pawful_S(c4)
    crippled = SStructure(s.quads, frozenset(t for t in s.triples if t != (1, 2, 3)))
    with pytest.raises(CertificateError):
        build_matching(c4, relative_complex(c4, 1, 1, 4), crippled)


@pytest.mark.parametrize(
    "extra, message",
    [
        ("Q 1 2 6 4", "two quadruples share the key (1, 2, 4)"),
        ("T 1 5 6", "two triples share the key (1, 6)"),
    ],
)
def test_build_matching_rejects_two_middles_over_one_key(g1, g1_cert_text, extra, message):
    s = parse_s(g1_cert_text + extra + "\n", g1)
    with pytest.raises(CertificateError) as err:
        build_matching(g1, relative_complex(g1, 1, 3, 3), s)
    assert str(err.value) == message


def test_build_matching_g1_certificate(g1, g1_cert):
    for ell in (3, 4):
        for a, b in ((1, 1), (1, 4), (3, 5), (6, 6)):
            build = build_matching(g1, relative_complex(g1, a, b, ell), g1_cert)
            poset = relative_complex(g1, a, b, ell)
            assert verify_matching(poset, build.matching)[0]
            assert is_acyclic(poset, build.matching)[0]
            assert all(len(poset.simplex(c)) - 1 == ell - 2 for c in build.critical)


def test_star_property_pawful_fixtures(c4):
    for g in (c4, complete_graph(4), complete_graph(5)):
        assert check_star_property(g) == (True, None)


def test_star_property_g1(g1):
    ok, witness = check_star_property(g1)
    assert not ok
    assert witness == (3, 4, 1)
    # the failing keys are exactly those whose every middle vertex is far
    violating = [
        (al, be, de)
        for al in g1.vertices
        for be in g1.neighbors[al]
        for de in g1.vertices
        if g1.d(be, de) == 2
        and all(g1.d(al, ga) == 2 for ga in g1.vertices if g1.d(be, ga) == g1.d(ga, de) == 1)
    ]
    assert sorted(violating) == [(3, 4, 1), (4, 3, 1)]


def test_star_property_k2_vacuous():
    assert check_star_property(complete_graph(2)) == (True, None)


def test_verify_g1_certificate(g1, g1_cert):
    assert verify_s_structure(g1, g1_cert.triples, g1_cert.quads) == (True, None)
    far = {q for q in g1_cert.quads if g1.d(q[0], q[2]) == 2}
    assert far == {(4, 3, 2, 1), (3, 4, 5, 1)}


def test_verify_reports_condition_iii(g1, g1_cert):
    quads = set(g1_cert.quads)
    quads.remove((3, 2, 6, 4))
    quads.add((3, 2, 5, 4))  # far middle although other middles exist
    ok, why = verify_s_structure(g1, g1_cert.triples, quads)
    assert not ok and why.startswith("(iii)")


def test_verify_reports_condition_ii(g1, g1_cert):
    quads = set(g1_cert.quads)
    quads.remove((1, 2, 5, 4))
    quads.add((1, 2, 3, 4))  # prefix (1,2,3) collides with a triple
    ok, why = verify_s_structure(g1, g1_cert.triples, quads)
    assert not ok and why.startswith("(ii)")


def test_verify_reports_condition_i(g1, g1_cert):
    triples = set(g1_cert.triples)
    triples.remove((1, 2, 3))
    ok, why = verify_s_structure(g1, triples, g1_cert.quads)
    assert not ok and why.startswith("(i)")


def test_pawful_structures_satisfy_general_conditions(c4):
    for g in (c4, complete_graph(4), complete_graph(5)):
        s = build_pawful_S(g)
        assert verify_s_structure(g, s.triples, s.quads) == (True, None)


def test_search_g1_finds_certificate(g1):
    found = search_structure(g1)
    assert found is not None
    assert verify_s_structure(g1, found.triples, found.quads) == (True, None)


def test_search_g2_exhausts(g2):
    assert search_structure(g2) is None


def test_search_complete_graph_trivial():
    found = search_structure(complete_graph(4))
    assert found is not None
    assert not found.quads and not found.triples


def test_pawful_implies_searchable(c4):
    # pawful -> star property -> some certificate exists
    for g in (c4, complete_graph(4)):
        assert check_star_property(g)[0]
        found = search_structure(g)
        assert found is not None
        assert verify_s_structure(g, found.triples, found.quads) == (True, None)


def test_search_is_deterministic(g1):
    assert search_structure(g1) == search_structure(g1)


def test_search_budget(g1):
    with pytest.raises(BudgetExceeded):
        search_structure(g1, budget=1)


def test_search_respects_env_budget(g1, monkeypatch):
    monkeypatch.setenv("MAGHOM_SEARCH_BUDGET", "1")
    with pytest.raises(BudgetExceeded):
        search_structure(g1)


def test_serialize_round_trip(g1, g1_cert):
    text = serialize_s(g1_cert)
    again = parse_s(text, g1)
    assert again.quads == g1_cert.quads
    assert again.triples == g1_cert.triples
    assert len(g1_cert.triples) == 10 and len(g1_cert.quads) == 30


def test_parse_empty_certificate(g1):
    s = parse_s("# nothing here\n", g1)
    assert not s.quads and not s.triples


def test_parse_rejects_malformed(g1):
    with pytest.raises(ParseError):
        parse_s("T 1 2\n", g1)
    with pytest.raises(ParseError):
        parse_s("X 1 2 3\n", g1)
    with pytest.raises(ValidationError):
        parse_s("T 1 2 5\n", g1)  # d(1,5) is 1, not 2


def test_diameter_guards(g1):
    from maghom import path_graph

    p4 = path_graph(4)
    with pytest.raises(ValidationError):
        check_star_property(p4)
    with pytest.raises(ValidationError):
        search_structure(p4)
    with pytest.raises(ValidationError):
        build_matching(p4, relative_complex(p4, 1, 4, 3), SStructure(frozenset(), frozenset()))
