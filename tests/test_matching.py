import hashlib
import random
import re
import sys
from collections import Counter
from dataclasses import replace
from itertools import combinations
from math import inf

import pytest
from conftest import FIXTURES, K20X2, load_fixture, random_connected
from oracles import (
    build_matching as build_matching_by_index,
    lexicographic_pair,
    pawful_violations,
    sequence_indices,
    star_failures,
    star_property,
    well_shaped,
)

from maghom import complete_graph, diameter, from_edges, is_pawful
from maghom.ai_complex import relative_complex
from maghom.errors import (
    BudgetExceeded,
    CertificateError,
    InternalCheckError,
    MaghomError,
    ParseError,
    ValidationError,
)
from maghom.graph import parse_graph6
from maghom.matching import (
    SStructure,
    build_matching,
    build_pawful_S,
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
    build = build_matching(relative_complex(c4, 1, 1, 4), s)
    assert len(build.matching) == 6
    poset = relative_complex(c4, 1, 1, 4)
    assert len(build.critical) + poset.isolated == 3
    assert all(len(poset.simplex(c)) - 1 == 2 for c in build.critical)
    assert verify_matching(poset, build.matching)[0]
    assert is_acyclic(poset, build.matching)[0]


def test_build_matching_partitions_cells(c4):
    s = build_pawful_S(c4)
    build = build_matching(relative_complex(c4, 1, 1, 4), s)
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
            build = build_matching(pair, s)
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
            build = build_matching(pair, s)
            assert not build.matching  # nothing to pair: no gaps, no patterns
            assert all(len(pair.simplex(c)) - 1 == ell - 2 for c in build.critical)
            assert morse_rank_check(relative_complex(g, a, b, ell), build.matching)[0]


def test_build_matching_rejects_incomplete_certificate(c4):
    s = build_pawful_S(c4)
    crippled = SStructure(s.quads, frozenset(t for t in s.triples if t != (1, 2, 3)))
    with pytest.raises(CertificateError, match=r"^no certificate entry for the gap at 0 in \(1, 3, 1\)$"):
        build_matching(relative_complex(c4, 1, 1, 4), crippled)


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
        build_matching(relative_complex(g1, 1, 3, 3), s)
    assert str(err.value) == message


def _random_certificate(g, rng, variant):
    """Every key's middle drawn from ``Graph.between``, so every tuple is
    well shaped; then each tuple dropped with one probability, or one
    key with two candidates given a second middle."""
    triples, quads = set(), set()
    for be in g.vertices:
        for de in g.vertices:
            if g.dist[be][de] == 2:
                triples.add((be, rng.choice(g.between[be][de]), de))
                quads.update((al, be, rng.choice(g.between[be][de]), de) for al in g.neighbors[be])
    two = sorted(t for t in triples | quads if len(g.between[t[-3]][t[-1]]) > 1)
    if variant == "dropped":
        p = rng.choice((0.02, 0.1, 0.3))
        triples = {t for t in triples if rng.random() > p}
        quads = {q for q in quads if rng.random() > p}
    elif variant == "second" and two:
        t = rng.choice(two)
        other = rng.choice([x for x in g.between[t[-3]][t[-1]] if x != t[-2]])
        (triples if len(t) == 3 else quads).add(t[:-2] + (other, t[-1]))
    return SStructure(frozenset(quads), frozenset(triples))


BUILD_REFUSALS = re.compile(
    r"two (triples|quadruples) share the key \(.*\)"
    r"|no certificate entry for the gap at \d+ in \(.*\)"
    r"|deletion does not invert insertion at \(.*\)"
)


def test_build_matching_on_random_certificates(g1, g3, c4):
    # a well-shaped certificate gives an acyclic matching or one of the
    # four refusals; any other exception, such as a KeyError from a cell
    # lookup, would contradict a proof in build_matching's docstring
    rng = random.Random(32)
    graphs = [c4, g1, g3, load_fixture("P8")]
    while len(graphs) < 14:
        g = random_connected(rng, rng.randint(5, 8))
        if diameter(g) == 2:
            graphs.append(g)
    outcomes = Counter()
    for g in graphs:
        for ell in (3, 4, 5):
            for _ in range(2):
                a, b = rng.choice(g.vertices), rng.choice(g.vertices)
                pair = relative_complex(g, a, b, ell)
                for variant in ("complete", "dropped", "second") * 3:
                    try:
                        build = build_matching(pair, _random_certificate(g, rng, variant))
                    except CertificateError as exc:
                        assert BUILD_REFUSALS.fullmatch(str(exc)), str(exc)
                        outcomes[str(exc).split(" ")[0]] += 1
                        continue
                    assert verify_matching(pair, build.matching) == (True, None)
                    assert is_acyclic(pair, build.matching)[0]
                    outcomes["matched"] += 1
    assert set(outcomes) == {"matched", "two", "no", "deletion"}, outcomes


def test_build_matching_rechecks_that_every_pattern_first_cell_is_matched(c4):
    # relative_complex never gives this boundary, which lacks the row of a
    # gap-first cell: that cell finds no mate, and its pattern-first mate
    # is left with nothing to pair it with
    pair = relative_complex(c4, 1, 1, 4)
    s = build_pawful_S(c4)
    low = min(low for low, _ in build_matching(pair, s).matching)
    d = len(pair.cells[low]) - 3
    mat = pair.boundaries[d + 1]
    rows = {r: cols for r, cols in mat.rows.items() if r != low - pair.starts[d]}
    doctored = replace(pair, boundaries={**pair.boundaries, d + 1: replace(mat, rows=rows)})
    with pytest.raises(InternalCheckError, match="^1 pattern-first cells unmatched$"):
        build_matching(doctored, s)


def _build_outcome(build, pair, s):
    """A build's matching and critical cells, read through their
    sequences, or its refusal's type and message."""
    try:
        done = build(pair, s)
    except MaghomError as exc:
        return type(exc), str(exc)
    cells = pair.cells
    return {(cells[low], cells[high]) for low, high in done.matching}, sorted(
        cells[c] for c in done.critical
    )


def test_build_matching_agrees_with_the_index_and_insertion_oracle(g1, g1_cert):
    # each mate found in its cell's boundary row against the former lookup
    # of the inserted sequence in an index over all cells, the oracle
    # given the lexicographic pair, so that a refusal names the first
    # faulty cell in simplex order: on the G1 certificate and its
    # well-shaped one-coordinate mutations (plus some misshapen ones) at
    # l = 3..6, and on pawful 8-vertex graphs at l = 5..7
    rng = random.Random(4242)
    tuples = sorted(g1_cert.triples) + sorted(g1_cert.quads)
    mutants = [
        tuples[:i] + [t[:j] + (v,) + t[j + 1 :]] + tuples[i + 1 :]
        for i, t in enumerate(tuples)
        for j in range(len(t))
        for v in g1.vertices
        if v != t[j]
    ]
    assert len(mutants) == 750
    shaped = [m for m in mutants if all(well_shaped(g1, t) for t in m)]
    picked = shaped + rng.sample([m for m in mutants if m not in shaped], 10)
    certs = [g1_cert] + [
        SStructure(frozenset(t for t in m if len(t) == 4), frozenset(t for t in m if len(t) == 3))
        for m in picked
    ]
    pairs: dict[tuple[int, int, int], object] = {}
    cases = []
    for cert in certs:
        for ell in (3, 4, 5, 6):
            key = (rng.choice(g1.vertices), rng.choice(g1.vertices), ell)
            if key not in pairs:
                pairs[key] = relative_complex(g1, *key), lexicographic_pair(g1, *key)
            cases.append((*pairs[key], cert))
    pairs8 = list(combinations(range(1, 9), 2))
    # walk counts near those of the benchmark's 8-vertex morse calls
    sizes = {5: (300, 500), 6: (1500, 2500), 7: (7000, 11000)}
    for ell in (5, 5, 6, 6, 7):
        lo, hi = sizes[ell]
        while True:
            try:
                g = from_edges(sorted(rng.sample(pairs8, 16)), n=8)
            except ValidationError:  # disconnected
                continue
            a, b = rng.sample(g.vertices, 2)
            if is_pawful(g).verdict and lo <= g.walks(ell)[a][b] <= hi:
                break
        cert = build_pawful_S(g)
        cases.append((relative_complex(g, a, b, ell), lexicographic_pair(g, a, b, ell), cert))
    outcomes = Counter()
    for pair, lexicographic, cert in cases:
        got = _build_outcome(build_matching, pair, cert)
        assert got == _build_outcome(build_matching_by_index, lexicographic, cert)
        outcomes["matched" if isinstance(got[0], set) else got[1].split(" ")[0]] += 1
    assert set(outcomes) == {"matched", "two", "no", "deletion", "triple", "quadruple"}, outcomes


def test_build_matching_g1_certificate(g1, g1_cert):
    for ell in (3, 4):
        for a, b in ((1, 1), (1, 4), (3, 5), (6, 6)):
            build = build_matching(relative_complex(g1, a, b, ell), g1_cert)
            poset = relative_complex(g1, a, b, ell)
            assert verify_matching(poset, build.matching)[0]
            assert is_acyclic(poset, build.matching)[0]
            assert all(len(poset.simplex(c)) - 1 == ell - 2 for c in build.critical)


def test_star_property_is_pawfulness_on_the_fixtures():
    graphs = [complete_graph(n) for n in (1, 2, 4, 5)]
    graphs += [load_fixture(p.name) for p in sorted(FIXTURES.iterdir()) if "." not in p.name]
    small = [g for g in graphs if diameter(g) <= 2]
    assert len(small) == 9  # all but R40 and RP2H
    for g in small:
        assert star_property(g) == is_pawful(g).verdict, g.edges


def test_star_property_is_pawfulness_on_random_graphs():
    rng = random.Random(2026)
    verdicts = Counter()
    while sum(verdicts.values()) < 600:
        n = rng.randint(4, 12)
        p = rng.uniform(0.3, 0.8)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
        try:
            g = from_edges(edges, n=n)
        except ValidationError:  # disconnected
            continue
        if diameter(g) <= 2:
            verdict = is_pawful(g).verdict
            assert star_property(g) == verdict, g.edges
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 100


def test_g1_star_failures_are_its_pawful_violations(g1):
    # a failing key (alpha, beta, delta) is the violation (beta, delta, alpha)
    assert star_failures(g1) == [(3, 4, 1), (4, 3, 1)]
    violations = pawful_violations(g1)
    assert sorted((z, x, y) for x, y, z in violations) == star_failures(g1)
    assert is_pawful(g1).violation == violations[0] == (3, 1, 4)


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
    for g in (c4, complete_graph(4)):
        assert is_pawful(g).verdict
        found = search_structure(g)
        assert found is not None
        assert verify_s_structure(g, found.triples, found.quads) == (True, None)


def test_search_assigns_more_variables_than_the_recursion_limit():
    # 1560 variables, each a level of the backtracking search: a search
    # that recursed once per variable would raise RecursionError here
    assert sys.getrecursionlimit() < 1560
    found = search_structure(K20X2)
    assert found is not None
    assert (len(found.triples), len(found.quads)) == (40, 1520)
    assert verify_s_structure(K20X2, found.triples, found.quads) == (True, None)


def test_search_is_deterministic(g1):
    assert search_structure(g1) == search_structure(g1)


def test_search_budget(g1):
    with pytest.raises(BudgetExceeded):
        search_structure(g1, budget=1)


def test_search_refutes_a_non_pawful_graph_in_sixty_nodes():
    # n = 9, diameter 2, not pawful, no certificate (and diagonal through
    # l = 4): refusing a quadruple whose prefix is a chosen back prunes
    # the tree to 60 nodes; without that half of condition (ii) the
    # search runs past 10^6
    g = parse_graph6("HtbNqC}")
    assert (g.n, diameter(g), is_pawful(g).verdict) == (9, 2, False)
    assert search_structure(g, budget=60) is None
    with pytest.raises(BudgetExceeded):
        search_structure(g, budget=59)


def test_search_results_on_the_atlas_are_pinned():
    # the certificate found (231 of the 374 graphs have one) depends on
    # the order of the variables and of their candidates
    digest = hashlib.sha256()
    for line in (FIXTURES / "atlas7_diam2.g6").read_text().split():
        found = search_structure(parse_graph6(line))
        digest.update((serialize_s(found) if found else "none\n").encode())
    assert digest.hexdigest() == (
        "5004f716cf5e24ee01b50d10975d5602001272f8a5468207a5360f510193585c"
    )


@pytest.mark.parametrize("budget", [0, -5])
def test_search_refuses_a_budget_below_one(g1, budget):
    want = f"^search budget must be a positive integer, got {budget}$"
    with pytest.raises(ValidationError, match=want):
        search_structure(g1, budget=budget)


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


def test_parse_and_verify_agree_on_every_one_coordinate_mutation(g1, g1_cert):
    # parse_s refuses a misshapen tuple, and verify_s_structure names the
    # same one under condition (i); a well-shaped one passes parse_s.
    # Misshapen is decided by the oracle, which shares no code with either
    tuples = sorted(g1_cert.triples) + sorted(g1_cert.quads)
    verdicts = Counter()
    for i, t in enumerate(tuples):
        for j in range(len(t)):
            for v in g1.vertices:
                if v == t[j]:
                    continue
                u = t[:j] + (v,) + t[j + 1 :]
                rest = tuples[:i] + [u] + tuples[i + 1 :]
                s = SStructure(
                    frozenset(x for x in rest if len(x) == 4),
                    frozenset(x for x in rest if len(x) == 3),
                )
                try:
                    parse_s(serialize_s(s), g1)
                    refused = None
                except ValidationError as exc:
                    refused = str(exc)
                ok, why = verify_s_structure(g1, s.triples, s.quads)
                misshapen = not well_shaped(g1, u)
                assert (why == f"(i): {u} has the wrong distance pattern") == misshapen
                kind = "triple" if len(u) == 3 else "quadruple"
                words = f"{kind} {u} violates its distance conditions"
                assert refused == (words if misshapen else None)
                verdicts[misshapen, ok] += 1
    # 40 tuples, 3 or 4 coordinates, 5 other vertices each
    assert sum(verdicts.values()) == 5 * (3 * 10 + 4 * 30)
    assert verdicts[True, False] and verdicts[False, False] and not verdicts[True, True]


def test_diameter_guards(g1):
    from maghom import path_graph

    p4 = path_graph(4)
    with pytest.raises(ValidationError):
        search_structure(p4)
    with pytest.raises(ValidationError):
        build_matching(relative_complex(p4, 1, 4, 3), SStructure(frozenset(), frozenset()))
