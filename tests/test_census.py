"""Whole-space censuses on five and seven vertices.

Runs every connected labelled graph on 5 vertices through the full
pipeline and asserts the implication chain the library is built around:
pawful implies a certificate exists implies diagonality; and a diagonal
bridgeless non-tree has every edge on a short cycle.  Bridges are
excluded from the last step because an edge on no cycle at all can
coexist with diagonality (attaching a pendant tree to a diagonal graph
keeps it diagonal).  On diameter <= 2 the star property, checked by the
brute-force oracle, is pawfulness itself (see ``is_pawful``).

On seven vertices, ``classify`` runs over the diameter <= 2 graphs of
``fixtures/atlas7_diam2.g6`` (written by ``tools/atlas7.py`` from the
networkx graph atlas), its ``star`` field is pawfulness on every record,
and its counts are pinned.
"""

import json
from collections import Counter, deque
from functools import cached_property
from itertools import combinations

from conftest import FIXTURES, census_stream
from oracles import diagonal_pair_by_pair, indexed_is_diagonal_up_to, star_property

from maghom import (
    ahk_edge_cycle_check,
    cli,
    diameter,
    from_edges,
    is_diagonal_up_to,
    is_pawful,
)
from maghom import matching
from maghom.errors import ValidationError
from maghom.graph import Graph, parse_graph6
from maghom.matching import build_pawful_S, search_structure, verify_s_structure

N = 5


def connected_graphs():
    all_edges = list(combinations(range(1, N + 1), 2))
    for mask in range(1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
        if len(edges) < N - 1:
            continue
        try:
            yield from_edges(edges, n=N)
        except ValidationError:
            continue


def has_bridge(g):
    es = set(g.edges)

    def connected_without(drop):
        adj = {v: [] for v in g.vertices}
        for e in es:
            if e != drop:
                adj[e[0]].append(e[1])
                adj[e[1]].append(e[0])
        seen = {1}
        queue = deque([1])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == g.n

    return any(not connected_without(e) for e in es)


def test_implication_chain_on_all_five_vertex_graphs():
    total = 0
    pawful_count = 0
    small_count = 0
    for g in connected_graphs():
        total += 1
        pawful = is_pawful(g).verdict
        small = diameter(g) <= 2
        cert = (search_structure(g) is not None) if small else False
        diagonal = is_diagonal_up_to(g, 4)
        pawful_count += pawful
        small_count += small

        if small:
            assert star_property(g) == pawful, g.edges
        if pawful:
            assert cert, g.edges
        if cert:
            assert diagonal, g.edges
        if diagonal and not g.is_tree() and not has_bridge(g):
            assert ahk_edge_cycle_check(g)[0], g.edges
    assert total == 728
    assert small_count == 368
    assert pawful_count == 296


def test_seven_vertex_census_of_diameter_two(capsys):
    # one graph per isomorphism class: 374 of the 853 connected ones
    assert cli.main(["classify", str(FIXTURES / "atlas7_diam2.g6"), "--lmax", "4"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    lines = (FIXTURES / "atlas7_diam2.g6").read_text().split()
    assert len(records) == len(lines) == 374
    for r, line in zip(records, lines):
        assert r["star"] is r["pawful"] is star_property(parse_graph6(line)), r["index"]
        assert r["s_found"] in (True, False) and r["diagonal"] in (True, False)  # no budget hit
        if r["pawful"]:
            assert r["s_found"] is True, r["index"]
        if r["s_found"] is True:
            assert r["diagonal"] is True, r["index"]
    kinds = Counter(
        "pawful" if r["pawful"]
        else "certificate" if r["s_found"] is True
        else "diagonal" if r["diagonal"] is True
        else "not diagonal"
        for r in records
    )
    assert kinds == {"pawful": 217, "certificate": 14, "diagonal": 111, "not diagonal": 32}


def test_classify_tests_pawfulness_once_per_record(capsys, monkeypatch):
    # the record's pawful field and the certificate built for a pawful
    # graph read one witness, kept on the graph; the certificate is still
    # built, by build_pawful_S, which refuses a graph that is not pawful
    tested, built = [], []
    witness, build = Graph.pawful.func, matching.build_pawful_S

    def counted(g):
        tested.append(g.edges)
        return witness(g)

    kept = cached_property(counted)
    kept.__set_name__(Graph, "pawful")
    monkeypatch.setattr(Graph, "pawful", kept)
    monkeypatch.setattr(matching, "build_pawful_S", lambda g: built.append(g) or build(g))
    assert cli.main(["classify", str(FIXTURES / "atlas7_diam2.g6"), "--lmax", "2"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(tested) == len(set(tested)) == len(records) == 374
    assert len(built) == sum(r["pawful"] for r in records) == 217


def test_merged_diagonal_check_agrees_with_the_pair_by_pair_route():
    # is_diagonal_up_to reduces each length as one complex; mh_column
    # reduces one endpoint pair at a time
    lines = (FIXTURES / "atlas7_diam2.g6").read_text().split()
    assert len(lines) == 374
    verdicts = Counter()
    for line in lines:
        g = parse_graph6(line)
        verdict = is_diagonal_up_to(g, 5)
        assert verdict == diagonal_pair_by_pair(g, 5), line
        verdicts[verdict] += 1
    assert verdicts[False] > 0 and verdicts[True] > 0


def test_grown_diagonal_check_agrees_with_the_lexicographic_pipeline():
    # each length grown degree by degree from the map below, against the
    # whole lexicographic bases reduced as one complex: on the atlas at
    # lmax 5, and on the benchmark's seed-1 census stream at lmax 4
    runs = [(parse_graph6(line), 5) for line in (FIXTURES / "atlas7_diam2.g6").read_text().split()]
    runs += [(from_edges(edges, n=n), 4) for n, edges in census_stream(1)]
    assert len(runs) == 374 + 300
    verdicts = Counter()
    for g, lmax in runs:
        verdict = is_diagonal_up_to(g, lmax)
        assert verdict == indexed_is_diagonal_up_to(g, lmax), (g.n, g.edges)
        verdicts[lmax, verdict] += 1
    assert all(verdicts[lmax, verdict] for lmax in (4, 5) for verdict in (True, False))


def test_every_built_certificate_on_the_atlas_is_valid():
    # classify takes a pawful graph's certificate from build_pawful_S,
    # with no search; each one built on the atlas passes all three
    # certificate conditions
    built = 0
    for line in (FIXTURES / "atlas7_diam2.g6").read_text().split():
        g = parse_graph6(line)
        if is_pawful(g).verdict:
            s = build_pawful_S(g)
            assert verify_s_structure(g, s.triples, s.quads) == (True, None), line
            built += 1
    assert built == 217
