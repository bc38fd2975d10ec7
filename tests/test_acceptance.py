"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
lines.  Everything is exact integer arithmetic; the only tolerances are
the stated runtime targets, asserted where the criterion states one.
"""

import random
import time

from conftest import full_boundary
from oracles import (
    euler_check,
    from_dense,
    is_zero,
    rank_fraction_free,
    simplices,
    sparse_matmul,
)

from maghom import (
    complete_graph,
    cycle_graph,
    magnitude_rational,
    magnitude_series,
    mh_column,
    mh_table,
    serialize_edge_list,
    star_graph,
)
from maghom.ai_complex import (
    f_vector,
    path_complex,
    relative_complex,
    relative_homology,
    verify_correspondence,
)
from maghom.graph import parse_edge_list
from maghom.matching import (
    build_matching,
    build_pawful_S,
    parse_s,
    search_structure,
    serialize_s,
    verify_s_structure,
)
from maghom.morse import is_acyclic, morse_rank_check, verify_matching
from maghom.snf import smith_normal_form


def report(num, ok, desc, seconds=None):
    stamp = f" ({seconds:.2f}s)" if seconds is not None else ""
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}{stamp}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_magnitude_of_g1(g1):
    t0 = time.perf_counter()
    rat = magnitude_rational(g1)
    series = magnitude_series(g1, 7)
    dt = time.perf_counter() - t0
    ok = (
        list(rat.num.coeffs) == [-6, -10, 4, 2]
        and list(rat.den.coeffs) == [-1, -5, -6, 0, 1, 1]
        and series == [6, -20, 60, -182, 556, -1702, 5214, -15980]
        and dt < 1.0
    )
    report(1, ok, "magnitude of G1: exact rational function and 8 series terms", dt)


def test_criterion_02_mh_table_g2(g2):
    t0 = time.perf_counter()
    table = mh_table(g2, 6)
    dt = time.perf_counter() - t0
    diag = [table.rank(k, k) for k in range(7)]
    ok = (
        diag == [5, 12, 22, 38, 66, 118, 218]
        and table.off_diagonal() == {}
        and table.is_diagonal()
        and dt < 300
    )
    report(2, ok, "G2 table through length 6: diagonal ranks, trivial elsewhere", dt)


def test_criterion_03_mh_table_g3(g3):
    t0 = time.perf_counter()
    table = mh_table(g3, 6)
    dt = time.perf_counter() - t0
    diag = [table.rank(k, k) for k in range(7)]
    off = {cell: val[0] for cell, val in table.off_diagonal().items()}
    no_torsion = all(not table.torsion(k, l) for k in range(7) for l in range(7))
    ok = (
        diag == [6, 16, 30, 50, 82, 138, 242]
        and off == {(2, 3): 2, (3, 4): 10, (4, 5): 28, (4, 6): 2, (5, 6): 60}
        and no_torsion
        and dt < 600
    )
    report(3, ok, "G3 table through length 6: diagonal and off-diagonal ranks", dt)


def test_criterion_04_c4_worked_example(c4):
    pair = relative_complex(c4, 1, 1, 4)
    full = path_complex(c4, 1, 1, 4)
    expected_sub = {
        ((2, 1),), ((1, 2),), ((2, 3),), ((4, 3),), ((4, 1),),
        ((1, 2), (2, 3)), ((2, 1), (2, 3)), ((2, 1), (1, 2)),
        ((1, 2), (4, 3)), ((4, 1), (1, 2)), ((4, 1), (4, 3)),
    }
    rel = relative_homology(pair)
    ok = (
        f_vector(full) == (6, 12, 8)
        and full - set(simplices(pair)) == expected_sub
        and rel == [(0, ()), (0, ()), (3, ())]
        and mh_column(c4, 4, {(1, 1): 1})[4] == (3, ())
    )
    report(4, ok, "C4 pair at (a,a), length 4: octahedron, 11-face subcomplex, Z^3")


def test_criterion_05_summand_correspondence(g1, g2, c4):
    t0 = time.perf_counter()
    ok = True
    for g in (g1, g2, c4):
        for ell in (3, 4):
            for a in g.vertices:
                for b in g.vertices:
                    ok = ok and verify_correspondence(g, a, b, ell).ok
    dt = time.perf_counter() - t0
    report(5, ok, "degree-shift correspondence on G1, G2, C4 for lengths 3 and 4", dt)


def test_criterion_06_pawful_pipeline(c4):
    t0 = time.perf_counter()
    ok = True
    for g in (complete_graph(4), complete_graph(5), c4):
        cert = build_pawful_S(g)
        for ell in (3, 4, 5):
            for a in g.vertices:
                for b in g.vertices:
                    built = build_matching(relative_complex(g, a, b, ell), cert)
                    poset = relative_complex(g, a, b, ell)
                    ok = ok and verify_matching(poset, built.matching)[0]
                    ok = ok and is_acyclic(poset, built.matching)[0]
                    ok = ok and all(len(poset.simplex(c)) - 1 == ell - 2 for c in built.critical)
                    ok = ok and morse_rank_check(relative_complex(g, a, b, ell), built.matching)[0]
    dt = time.perf_counter() - t0
    report(6, ok, "pawful matchings on K4, K5, C4 for lengths 3..5: acyclic wedge model", dt)


def test_criterion_07_g1_certificate(g1, g1_cert_text):
    t0 = time.perf_counter()
    cert = parse_s(g1_cert_text, g1)
    ok = len(cert.triples) == 10 and len(cert.quads) == 30
    ok = ok and verify_s_structure(g1, cert.triples, cert.quads) == (True, None)
    far = {q for q in cert.quads if g1.d(q[0], q[2]) == 2}
    ok = ok and far == {(4, 3, 2, 1), (3, 4, 5, 1)}
    for ell in (3, 4):
        for a in g1.vertices:
            for b in g1.vertices:
                built = build_matching(relative_complex(g1, a, b, ell), cert)
                poset = relative_complex(g1, a, b, ell)
                ok = ok and verify_matching(poset, built.matching)[0]
                ok = ok and is_acyclic(poset, built.matching)[0]
                ok = ok and all(len(poset.simplex(c)) - 1 == ell - 2 for c in built.critical)
    dt = time.perf_counter() - t0
    report(7, ok, "verbatim G1 certificate: valid, far subset exact, matchings acyclic", dt)


def test_criterion_08_g2_exhaustive_none(g2):
    t0 = time.perf_counter()
    first = search_structure(g2)
    second = search_structure(g2)
    dt = time.perf_counter() - t0
    ok = first is None and second is None and dt < 60
    report(8, ok, "exhaustive certificate search on G2 returns none", dt)


def test_criterion_09_euler_cross_check(g1, g2, g3, c4):
    t0 = time.perf_counter()
    ok = True
    for g in (c4, complete_graph(4), star_graph(3), g1, g2, g3):
        ok = ok and euler_check(g, 4)
    dt = time.perf_counter() - t0
    report(9, ok, "series coefficients equal alternating rank sums through length 4", dt)


def test_criterion_10_property_suites(g1, g3, c4, g1_cert_text):
    ok = True

    # boundary composes to zero on magnitude complexes
    for g in (g1, g3):
        for length in range(5):
            for k in range(2, length + 1):
                ok = ok and is_zero(sparse_matmul(
                    full_boundary(g, k - 1, length), full_boundary(g, k, length)
                ))

    # and on a relative path-pair complex
    pair = relative_complex(c4, 1, 1, 4)
    boundaries = pair.boundaries
    for d in range(2, len(pair.starts) - 1):  # the cells of dimension d
        ok = ok and is_zero(sparse_matmul(boundaries[d - 1], boundaries[d]))

    # endpoint decomposition is a direct sum
    for g, k, length in ((g1, 3, 3), (g3, 2, 3)):
        total = sum(
            mh_column(g, length, {(a, b): 1})[k][0] for a in g.vertices for b in g.vertices
        )
        ok = ok and total == mh_column(g, length)[k][0]

    # two rank algorithms agree on 200 random matrices
    rng = random.Random(271828)
    for _ in range(200):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        m = [[rng.randint(-10, 10) for _ in range(nc)] for _ in range(nr)]
        ok = ok and smith_normal_form(from_dense(m)).rank == \
            rank_fraction_free(m)

    # round trips
    for g in (g1, g3, c4, cycle_graph(5)):
        ok = ok and parse_edge_list(serialize_edge_list(g)) == g
    cert = parse_s(g1_cert_text, g1)
    again = parse_s(serialize_s(cert), g1)
    ok = ok and (again.quads, again.triples) == (cert.quads, cert.triples)

    report(10, ok, "property suites: d.d=0, direct sum, SNF vs elimination, round trips")
