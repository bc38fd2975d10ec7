import random

import pytest

from maghom import (
    ahk_edge_cycle_check,
    complete_graph,
    cycle_graph,
    diameter,
    from_edges,
    is_pawful,
    parse_graph,
    path_graph,
    serialize_edge_list,
    star_graph,
)
from maghom.errors import ParseError, ValidationError
from maghom.graph import parse_edge_list, parse_graph6

from conftest import RP2_FACES, encode_graph6, hasse_graph, load_fixture


def floyd_warshall(n, edges):
    """Independent distance oracle."""
    big = 10**9
    d = [[0 if i == j else big for j in range(n + 1)] for i in range(n + 1)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def test_parse_two_edge_path():
    g = parse_edge_list("1 2\n2 3")
    assert g.n == 3 and g.m == 2
    assert g.d(1, 3) == 2


def test_parse_g1_fixture(g1):
    assert (g1.n, g1.m) == (6, 10)
    assert g1.d(1, 6) == 2
    far = {(u, v) for u in g1.vertices for v in g1.vertices if u < v and g1.d(u, v) == 2}
    assert far == {(1, 3), (1, 4), (1, 6), (2, 4), (3, 5)}


def test_parse_comments_and_normalization():
    g = parse_edge_list("# header\n10 30\n30 20  # tail comment\n")
    assert g.n == 3
    assert g.edges == ((1, 3), (2, 3))


@pytest.mark.parametrize(
    "text,exc",
    [
        ("1 2 3", ParseError),
        ("1 x", ParseError),
        ("", ParseError),
        ("1 1", ValidationError),
        ("1 2\n2 1", ValidationError),
        ("1 2\n3 4", ValidationError),
    ],
)
def test_parse_rejects(text, exc):
    with pytest.raises(exc):
        parse_edge_list(text)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: from_edges([(True, 2)]), "vertex ids must be positive integers, got (True, 2)"),
        (lambda: from_edges([(1, 2)], 2.0), "vertex count must be an integer, got 2.0"),
        (lambda: from_edges([(1, 2)], True), "vertex count must be an integer, got True"),
        (lambda: complete_graph(True), "n must be an integer, got True"),
        (lambda: complete_graph(2.0), "n must be an integer, got 2.0"),
        (lambda: path_graph(3.0), "n must be an integer, got 3.0"),
        (lambda: cycle_graph(4.5), "n must be an integer, got 4.5"),
        (lambda: star_graph(True), "leaves must be an integer, got True"),
    ],
)
def test_graphs_refuse_bool_and_float_ids_and_sizes(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: complete_graph(0), "complete graph needs n >= 1"),
        (lambda: path_graph(-1), "path graph needs n >= 1"),
        (lambda: cycle_graph(2), "cycle graph needs n >= 3"),
        (lambda: star_graph(0), "star graph needs at least one leaf"),
        (lambda: from_edges([], 0), "graph must have at least one vertex"),
    ],
)
def test_graphs_refuse_too_few_vertices(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


def test_distances_match_floyd_warshall(g1, g2, g3, c4):
    for g in (g1, g2, g3, c4):
        oracle = floyd_warshall(g.n, g.edges)
        for u in g.vertices:
            for v in g.vertices:
                assert g.d(u, v) == oracle[u][v]


def test_metric_axioms(g1, g3):
    for g in (g1, g3):
        for u in g.vertices:
            assert g.d(u, u) == 0
            for v in g.vertices:
                assert g.d(u, v) == g.d(v, u)
                assert (g.d(u, v) == 1) == ((min(u, v), max(u, v)) in g.edges)
                for w in g.vertices:
                    assert g.d(u, w) <= g.d(u, v) + g.d(v, w)


def test_serialize_round_trip(g1, g2, g3, c4):
    for g in (g1, g2, g3, c4):
        assert parse_edge_list(serialize_edge_list(g)) == g


def test_graph6_star_string():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g.edges == ((1, 5), (2, 5), (3, 5), (4, 5))


def test_graph6_round_trip_fixtures(g1, g2, g3, c4):
    for g in (g1, g2, g3, c4):
        assert parse_graph6(encode_graph6(g.n, g.edges)) == g


def test_rp2_fixture_is_the_hasse_diagram_of_rp2():
    g = load_fixture("RP2H")
    assert g == hasse_graph(RP2_FACES)
    assert (g.n, g.m) == (33, 76)


def test_graph6_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 12)
        edges = {(i, rng.randint(i + 1, n)) for i in range(1, n)}  # spanning tree-ish
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(1, n + 1), 2)
            edges.add((min(u, v), max(u, v)))
        g = from_edges(sorted(edges), n=n)
        assert parse_graph6(encode_graph6(n, edges)) == g


def test_graph6_long_form():
    # n >= 63 uses the 126-prefixed three-byte vertex count
    n = 63
    edges = [(i, i + 1) for i in range(1, n)]
    header = chr(126) + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if j - i == 1 else 0)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(63 + int("".join(map(str, bits[t : t + 6])), 2))
        for t in range(0, len(bits), 6)
    )
    g = parse_graph6(header + body)
    assert g == from_edges(edges, n=n)


@pytest.mark.parametrize("n, header", [(62, "}"), (63, "~??~"), (64, "~?@?"), (120, "~?@w")])
def test_graph6_round_trip_across_the_long_form(n, header):
    # from n = 63 on, the oracle writes the 4-byte vertex count
    rng = random.Random(2024)
    cycle = {tuple(sorted((i, i % n + 1))) for i in range(1, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    dense = cycle | {pair for pair in pairs if rng.random() < 0.5}
    for edges in (cycle, dense):
        line = encode_graph6(n, edges)
        assert line[: len(header)] == header
        assert parse_graph6(line) == from_edges(sorted(edges), n=n)


def test_graph6_rejects():
    with pytest.raises(ParseError):
        parse_graph6("D?")           # wrong length for n=5
    with pytest.raises(ParseError):
        parse_graph6("D?\x01")       # byte below the printable range


def test_parse_graph_format_detection(g2):
    assert parse_graph(serialize_edge_list(g2)) == g2
    assert parse_graph(encode_graph6(g2.n, g2.edges)) == g2


def test_diameter():
    assert diameter(complete_graph(4)) == 1
    assert diameter(cycle_graph(4)) == 2


def test_diameter_g2(g2):
    oracle = floyd_warshall(g2.n, g2.edges)
    assert diameter(g2) == max(
        oracle[u][v] for u in g2.vertices for v in g2.vertices
    ) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_complete_graphs_pawful(n):
    assert is_pawful(complete_graph(n)).verdict


def test_c4_pawful_condition_vacuous(c4):
    # no triple in C4 satisfies the hypothesis, checked exhaustively
    hypothesis_triples = [
        (x, y, z)
        for x in c4.vertices
        for y in c4.vertices
        for z in c4.vertices
        if c4.d(x, y) == 2 and c4.d(y, z) == 2 and c4.d(x, z) == 1
    ]
    assert hypothesis_triples == []
    assert is_pawful(c4).verdict


def test_g1_not_pawful(g1):
    w = is_pawful(g1)
    assert not w.verdict
    assert w.violation == (3, 1, 4)
    assert set(w.violation) == {1, 3, 4}
    x, y, z = w.violation
    assert (g1.d(x, y), g1.d(y, z), g1.d(x, z)) == (2, 2, 1)
    assert not [w for w in g1.vertices if g1.d(w, x) == g1.d(w, y) == g1.d(w, z) == 1]
    assert w.far_pair is None


def test_g2_not_pawful(g2):
    w = is_pawful(g2)
    assert not w.verdict and w.violation is not None
    x, y, z = w.violation
    assert (g2.d(x, y), g2.d(y, z), g2.d(x, z)) == (2, 2, 1)
    assert not [w for w in g2.vertices if g2.d(w, x) == g2.d(w, y) == g2.d(w, z) == 1]


def test_pawful_far_pair():
    w = is_pawful(path_graph(4))
    assert not w.verdict
    assert w.far_pair == (1, 4)
    assert w.violation is None


def test_pawful_witness_reason(g1):
    assert is_pawful(path_graph(4)).reason() == "vertices (1, 4) are at distance > 2"
    assert is_pawful(g1).reason() == "triple 3,1,4 has no common neighbor"


def test_ahk_check(g3):
    assert ahk_edge_cycle_check(complete_graph(4)) == (True, None)
    assert ahk_edge_cycle_check(g3) == (True, None)
    ok, edge = ahk_edge_cycle_check(cycle_graph(5))
    assert not ok and edge == (1, 2)


def test_ahk_rejects_trees():
    with pytest.raises(ValidationError):
        ahk_edge_cycle_check(star_graph(3))


def test_walks_are_the_powers_of_the_adjacency_matrix(g3):
    # asked in any order of lengths, each is A times the one before
    for g in (g3, cycle_graph(5), star_graph(3), complete_graph(1)):
        verts = range(g.n + 1)
        adj = [[int(v in g.neighbors[u]) for v in verts] for u in verts]
        power = [[int(u == v) for v in verts] for u in verts]
        expected = []
        for _ in range(7):
            expected.append(tuple(map(tuple, power)))
            power = [[sum(power[u][w] * adj[w][v] for w in verts) for v in verts] for u in verts]
        for length in (4, 0, 6, 2, 5, 1, 3):
            assert g.walks(length) == expected[length]
