import csv
import io
import json
import os
import random
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from maghom import ai_complex, cli, complete_graph, homology, mh_column, serialize_edge_list
from maghom.errors import BudgetExceeded
from maghom.symmetry import pair_orbits
from conftest import FIXTURES, K20X2, census_stream, encode_graph6, random_connected
from oracles import indexed_groups, indexed_is_diagonal_up_to, indexed_mh_table

GOLDEN = FIXTURES.parent / "tests" / "golden"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_magnitude_json(capsys):
    code, out, _ = run(capsys, "magnitude", FIXTURES / "G1", "--series", 7, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["num"] == [-6, -10, 4, 2]
    assert payload["den"] == [-1, -5, -6, 0, 1, 1]
    assert payload["series"] == [6, -20, 60, -182, 556, -1702, 5214, -15980]


def test_magnitude_human(capsys):
    code, out, _ = run(capsys, "magnitude", FIXTURES / "C4")
    assert code == 0
    assert out.startswith("magnitude = ")


def test_magnitude_series_over_the_cap_is_a_budget_error(capsys, monkeypatch):
    monkeypatch.delenv("MAGHOM_BASIS_CAP", raising=False)
    code, out, err = run(capsys, "magnitude", FIXTURES / "G1", "--series", 99999999999)
    assert code == 2 and out == ""
    assert err == (
        "budget exceeded: series through q^99999999999 needs 6 x 100000000000 "
        "coefficients, over the basis cap 2000000\n"
    )


def test_magnitude_series_is_charged_by_coefficient_size(capsys, monkeypatch):
    # 6 x 300001 coefficients are under the cap, their words are not
    monkeypatch.delenv("MAGHOM_BASIS_CAP", raising=False)
    code, out, err = run(capsys, "magnitude", FIXTURES / "G1", "--series", 300000)
    assert code == 2 and out == ""
    assert err == (
        "budget exceeded: series through q^300000 needs 6 x 300001 coefficients "
        "of 14063 machine words each, over the basis cap 2000000\n"
    )


def test_magnitude_series_over_the_cap_is_refused_before_the_elimination(capsys, monkeypatch):
    def elimination(g):
        raise AssertionError("the elimination ran")

    monkeypatch.delenv("MAGHOM_BASIS_CAP", raising=False)
    monkeypatch.setattr(cli, "magnitude_rational", elimination)
    code, out, err = run(capsys, "magnitude", FIXTURES / "R40", "--series", 2000)
    assert code == 2 and out == ""
    assert err == (
        "budget exceeded: series through q^2000 needs 40 x 2001 coefficients "
        "of 188 machine words each, over the basis cap 2000000\n"
    )


@pytest.mark.parametrize(
    "order, code, err",
    [
        (100, 2, "budget exceeded: series through q^100 needs 6 x 101 coefficients, "
                 "over the basis cap 143\n"),
        (-1, 1, "error: series order must be >= 0\n"),
    ],
    ids=["over-the-cap", "negative"],
)
def test_magnitude_series_refusal_comes_before_the_elimination_cap(capsys, monkeypatch, order, code, err):
    # the elimination on G1 is over this cap too (16 x 9 coefficients)
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "143")
    assert run(capsys, "magnitude", FIXTURES / "G1", "--series", order) == (code, "", err)


def test_magnitude_elimination_over_the_cap_is_a_budget_error(capsys, monkeypatch):
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "143")
    code, out, err = run(capsys, "magnitude", FIXTURES / "G1")
    assert code == 2 and out == ""
    assert err == (
        "budget exceeded: elimination on 4 cells needs 16 x 9 coefficients, "
        "over the basis cap 143\n"
    )


def test_successive_calls_print_what_fresh_processes_print(capsys, monkeypatch):
    # the parser is built once per process; defaults must not leak between calls
    monkeypatch.delenv("MAGHOM_BASIS_CAP", raising=False)
    calls = [
        ("mh-table", FIXTURES / "G1", "--lmax", 2, "--json"),
        ("magnitude", FIXTURES / "G1", "--series", 5, "--json"),
        ("mh-table", FIXTURES / "C4", "--json"),
        ("magnitude", FIXTURES / "C4"),
        ("pawful", FIXTURES / "G1"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "maghom", *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_the_parser_is_built_at_import():
    # main parses with the parser that import built, not with a new one
    code = (
        "import maghom.cli as c; c.build_parser = None; "
        "raise SystemExit(c.main(['pawful', 'fixtures/G1']))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=FIXTURES.parent, timeout=60,
    )
    golden = (GOLDEN / "pawful.out").read_text()
    assert (f"exit {done.returncode}\n{done.stdout}", done.stderr) == (golden, "")


def test_mh_table_csv(capsys, g3):
    code, out, _ = run(capsys, "mh-table", FIXTURES / "G3", "--lmax", 6, "--csv")
    assert code == 0
    assert out == (
        "l\\k,0,1,2,3,4,5,6\n"
        "0,6,,,,,,\n"
        "1,,16,,,,,\n"
        "2,,,30,,,,\n"
        "3,,,2,50,,,\n"
        "4,,,,10,82,,\n"
        "5,,,,,28,138,\n"
        "6,,,,,2,60,242\n"
    )


def test_mh_table_rows_keep_the_header_width_with_two_torsion_divisors(capsys):
    # RP^2's Hasse diagram has MH_(3,4) = Z^450 + (Z/2)^2
    golden = (GOLDEN / "mh_table_rp2_csv.out").read_text().split("\n", 1)[1]
    rows = list(csv.reader(io.StringIO(golden)))
    assert rows[5][4] == "450+T[2 2]"
    assert {len(row) for row in rows} == {len(rows[0])}
    code, out, _ = run(capsys, "mh-table", FIXTURES / "RP2H", "--lmax", 4)
    assert code == 0
    assert out == golden.replace(",", "\t")
    rows = [line.split("\t") for line in out.splitlines()]
    assert {len(row) for row in rows} == {len(rows[0])}


def test_mh_table_json(capsys):
    code, out, _ = run(capsys, "mh-table", FIXTURES / "C4", "--lmax", 2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lmax"] == 2
    assert payload["entries"]["0,0"] == {"rank": 4, "torsion": []}


def test_mh_table_ab_restriction(capsys):
    code, out, _ = run(
        capsys, "mh-table", FIXTURES / "C4", "--lmax", 4, "--ab", "1,1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"]["4,4"] == {"rank": 3, "torsion": []}


def test_ai_complex_json(capsys):
    code, out, _ = run(
        capsys,
        "ai-complex", FIXTURES / "C4", "--a", 1, "--b", 1, "--ell", 4,
        "--homology", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [6, 12, 8]
    assert payload["subcomplex_size"] == 11
    assert payload["relative_homology"][2] == {"degree": 2, "rank": 3, "torsion": []}


def test_ai_complex_list_faces(capsys):
    code, out, _ = run(
        capsys, "ai-complex", FIXTURES / "C4", "--a", 1, "--b", 1, "--ell", 4,
        "--list-faces",
    )
    assert code == 0
    assert out.count("\n  K' ") == 11


def test_ai_complex_refuses_a_path_complex_over_the_cap(capsys, monkeypatch, tmp_path):
    # the one edge path of length 40 from 1 to 1 on K_2 alone has 2^39 - 1
    # interior subsets, far over the default cap
    monkeypatch.delenv("MAGHOM_BASIS_CAP", raising=False)
    k2 = tmp_path / "K2"
    k2.write_text("1 2\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "ai-complex", k2, "--a", 1, "--b", 1, "--ell", 40, "--json")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "budget exceeded: K_40(1,1) exceeds the cap of 2000000 simplices\n"


@pytest.mark.parametrize(
    "command, code, out, err",
    [
        ("morse", 0, "homology model: ok, 1 critical cell in dimension 999\n", ""),
        ("ai-complex", 2, "", "budget exceeded: K_1001(1,2) exceeds the cap of 2000000 simplices\n"),
    ],
    ids=["morse", "ai-complex"],
)
def test_a_length_past_the_recursion_limit(capsys, monkeypatch, tmp_path, command, code, out, err):
    # the one cell of K_2 from 1 to 2 at length 1001 is a degree-1001
    # sequence, grown one vertex at a time without recursion
    monkeypatch.delenv("MAGHOM_BASIS_CAP", raising=False)
    k2 = tmp_path / "K2"
    k2.write_text("1 2\n")
    assert run(capsys, command, k2, "--a", 1, "--b", 2, "--ell", 1001) == (code, out, err)


def test_morse_pawful(capsys):
    code, out, _ = run(
        capsys, "morse", FIXTURES / "C4", "--a", 1, "--b", 1, "--ell", 4,
        "--matching", "pawful", "--report",
    )
    assert code == 0
    assert "acyclic: yes" in out
    assert "3 critical cells in dimension 2" in out


def test_match_with_certificate(capsys):
    code, out, _ = run(
        capsys, "match", FIXTURES / "G1", "--a", 1, "--b", 3, "--ell", 3,
        "--s", FIXTURES / "G1.sstruct",
    )
    assert code == 0
    assert "matched pairs: 3" in out
    assert out.count("pair: ") == 3


def test_certificate_error_names_the_cell(capsys, tmp_path):
    # swapping the middle of one quadruple breaks the insert/delete inverse
    bad = tmp_path / "bad.sstruct"
    text = (FIXTURES / "G1.sstruct").read_text()
    bad.write_text(text.replace("Q 1 2 5 4\n", "Q 1 2 3 4\n"))
    code, out, err = run(
        capsys, "match", FIXTURES / "G1", "--a", 1, "--b", 3, "--ell", 4, "--s", bad
    )
    assert (code, out) == (1, "")
    assert err == "error: deletion does not invert insertion at ((2, 1), (4, 3))\n"


@pytest.mark.parametrize(
    "extra, key",
    [("Q 1 2 6 4", "two quadruples share the key (1, 2, 4)"),
     ("T 1 5 6", "two triples share the key (1, 6)")],
)
def test_certificate_with_two_middles_over_one_key(capsys, tmp_path, extra, key):
    bad = tmp_path / "bad.sstruct"
    bad.write_text((FIXTURES / "G1.sstruct").read_text() + extra + "\n")
    code, out, err = run(
        capsys, "match", FIXTURES / "G1", "--a", 1, "--b", 3, "--ell", 3, "--s", bad
    )
    assert (code, out, err) == (1, "", f"error: {key}\n")


CERTIFICATE_ARGS = {"match": ["--a", 1, "--b", 3, "--ell", 3, "--s"], "s-structure": ["--verify"]}


@pytest.mark.parametrize("command", sorted(CERTIFICATE_ARGS))
def test_certificate_ids_above_n(capsys, command):
    # line 7 of G1.sstruct is "T 1 2 6"; G2 has 5 vertices
    code, out, err = run(
        capsys, command, FIXTURES / "G2", *CERTIFICATE_ARGS[command], FIXTURES / "G1.sstruct"
    )
    assert (code, out, err) == (1, "", "error: line 7: vertex 6 is outside 1..5\n")


@pytest.mark.parametrize("line, vertex", [("T 0 2 3", 0), ("Q 1 2 3 -1", -1)])
@pytest.mark.parametrize("command", sorted(CERTIFICATE_ARGS))
def test_certificate_ids_below_one(capsys, tmp_path, command, line, vertex):
    bad = tmp_path / "bad.sstruct"
    bad.write_text(f"T 1 2 3\n{line}\n")
    code, out, err = run(capsys, command, FIXTURES / "G1", *CERTIFICATE_ARGS[command], bad)
    assert (code, out, err) == (1, "", f"error: line 2: vertex {vertex} is outside 1..6\n")


def test_pawful_command(capsys):
    code, out, _ = run(capsys, "pawful", FIXTURES / "G1")
    assert code == 0
    assert out.strip() == "pawful: false (triple 3,1,4 has no common neighbor)"


@pytest.mark.parametrize("command", ["morse", "match"])
def test_non_pawful_certificate_error(capsys, command):
    choice = ["--matching", "pawful"] if command == "morse" else ["--pawful"]
    code, out, err = run(
        capsys, command, FIXTURES / "G1", "--a", 1, "--b", 3, "--ell", 4, *choice
    )
    assert (code, out) == (1, "")
    assert err == "error: graph is not pawful: triple 3,1,4 has no common neighbor\n"


def test_s_structure_search_exhausted(capsys):
    code, out, _ = run(capsys, "s-structure", FIXTURES / "G2", "--search")
    assert code == 0
    assert out.strip() == "exhausted: none"


def test_s_structure_search_found(capsys):
    code, out, _ = run(capsys, "s-structure", FIXTURES / "G1", "--search")
    assert code == 0
    assert out.startswith("found:")
    assert "\nT " in out and "\nQ " in out


def test_s_structure_verify(capsys):
    code, out, _ = run(
        capsys, "s-structure", FIXTURES / "G1", "--verify", FIXTURES / "G1.sstruct"
    )
    assert code == 0
    assert out.strip() == "valid: true"


def test_s_structure_budget_exceeded(capsys):
    code, out, err = run(capsys, "s-structure", FIXTURES / "G1", "--search", "--budget", 1)
    assert (code, out) == (2, "")
    assert err == "budget exceeded: certificate search exceeded 1 nodes\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["s-structure", FIXTURES / "G1", "--search", "--budget", 0],
        # R40 has diameter 6: the option is checked before the graph
        ["s-structure", FIXTURES / "R40", "--search", "--budget", 0],
        ["classify", GOLDEN / "stream7.g6", "--budget", -3],
    ],
    ids=["s-structure", "s-structure-diameter-6", "classify"],
)
def test_budget_must_be_positive(capsys, argv):
    assert run(capsys, *argv) == (1, "", "error: --budget must be positive\n")


def test_ahk_check(capsys, tmp_path):
    code, out, _ = run(capsys, "ahk-check", FIXTURES / "G3")
    assert code == 0 and "true" in out
    c5 = tmp_path / "c5"
    c5.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
    code, out, _ = run(capsys, "ahk-check", c5)
    assert code == 0 and "false (edge (1, 2))" in out


def test_ahk_check_tree_rejected(capsys, tmp_path):
    tree = tmp_path / "tree"
    tree.write_text("1 2\n2 3\n")
    code, _, err = run(capsys, "ahk-check", tree)
    assert code == 1 and "non-trees" in err


def test_classify_stream(capsys, tmp_path, g1, g2, g3):
    stream = tmp_path / "stream.g6"
    stream.write_text(
        "\n".join(
            [
                encode_graph6(g1.n, g1.edges),
                "!!!notgraph6!!!",
                encode_graph6(g2.n, g2.edges),
                encode_graph6(g3.n, g3.edges),
            ]
        )
        + "\n"
    )
    code, out, err = run(capsys, "classify", stream, "--lmax", 4)
    assert code == 0
    assert "warning: line 2" in err
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3
    r1, r2, r3 = records
    assert (r1["pawful"], r1["s_found"], r1["diagonal"]) == (False, True, True)
    assert (r2["pawful"], r2["s_found"], r2["diagonal"]) == (False, False, True)
    assert (r3["ahk"], r3["diagonal"]) == (True, False)


def test_classify_records_budget_failure_and_goes_on(capsys, monkeypatch, tmp_path, g3):
    k3 = complete_graph(3)  # largest basis at lmax 4: 3 * 2^4 = 48 sequences
    small = encode_graph6(k3.n, k3.edges)
    stream = tmp_path / "stream.g6"
    stream.write_text("\n".join([small, encode_graph6(g3.n, g3.edges), small]) + "\n")
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "48")
    code, out, err = run(capsys, "classify", stream, "--lmax", 4)
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["index"] for r in records] == [1, 2, 3]
    assert [r["diagonal"] for r in records] == [True, "budget-exceeded", True]
    assert records[1]["pawful"] is False and records[1]["s_found"] is False


def test_classify_records_a_search_over_its_budget_and_goes_on(capsys, tmp_path):
    # P4 (diameter 3, no search), G1 (over one node), then a graph whose
    # search is ruled out before its first node
    stream = tmp_path / "stream.g6"
    stream.write_text("Ch\nEhtw\nFEl~?\n")
    code, out, err = run(capsys, "classify", stream, "--budget", 1)
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["s_found"] for r in records] == [None, "budget-exceeded", False]


def test_classify_builds_a_pawful_graphs_certificate_without_a_search(capsys, monkeypatch, tmp_path):
    # C4 is pawful, so its certificate is built and its record reads true
    # even at a budget of one node; G1 is not, and its search still runs
    # over that budget
    searched = []
    search = cli.mt.search_structure

    def recorded(g, budget=None):
        searched.append(g.n)
        return search(g, budget=budget)

    monkeypatch.setattr(cli.mt, "search_structure", recorded)
    stream = tmp_path / "stream.g6"
    stream.write_text("Cr\nEhtw\n")
    code, out, err = run(capsys, "classify", stream, "--budget", 1)
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["n"], r["pawful"], r["s_found"]) for r in records] == [(4, True, True), (6, False, "budget-exceeded")]
    assert searched == [6]


def test_classify_searches_a_large_graph_and_goes_on(capsys, tmp_path):
    # K_(20x2) has 1560 certificate variables, more than the recursion limit
    seven = (GOLDEN / "stream7.g6").read_text().splitlines()[0]
    stream = tmp_path / "stream.g6"
    stream.write_text(encode_graph6(K20X2.n, K20X2.edges) + "\n" + seven + "\n")
    code, out, err = run(capsys, "classify", stream, "--lmax", 2)
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["index"], r["n"]) for r in records] == [(1, 40), (2, 7)]
    assert (records[0]["pawful"], records[0]["s_found"]) == (True, True)


class LinesOnly(io.StringIO):
    """A stdin that can be iterated line by line but not read whole."""

    def read(self, *args):
        raise AssertionError("classify read the whole stream")

    def readlines(self, *args):
        raise AssertionError("classify read the whole stream")


def test_classify_streams_stdin(capsys, monkeypatch, g1, g2):
    lines = [encode_graph6(g1.n, g1.edges), "", "!!!notgraph6!!!", encode_graph6(g2.n, g2.edges)]
    monkeypatch.setattr("sys.stdin", LinesOnly("\n".join(lines) + "\n"))
    code, out, err = run(capsys, "classify", "-", "--lmax", 3)
    assert code == 0
    assert err.startswith("warning: line 3:")
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["index"], r["n"]) for r in records] == [(1, g1.n), (4, g2.n)]


@pytest.mark.parametrize("cap, code", [(40, 0), (39, 2)])
def test_basis_cap_bounds_each_degree_of_cells(capsys, monkeypatch, cap, code):
    # C4 (1,3) at l = 6: 40 cells of degree 5, the largest list, from 32 edge paths
    monkeypatch.setenv("MAGHOM_BASIS_CAP", str(cap))
    got, out, err = run(
        capsys, "morse", FIXTURES / "C4", "--a", 1, "--b", 3, "--ell", 6,
        "--matching", "pawful",
    )
    assert got == code
    if code:
        assert "degree-5 length-6 basis exceeds the cap of 39" in out + err
    else:
        assert out == "homology model: ok, 3 critical cells in dimension 4\n"


@pytest.mark.parametrize("command", ["morse", "match"])
def test_one_pair_per_matching_command(capsys, monkeypatch, command):
    calls = []
    for builder in ("relative_complex", "path_complex"):
        original = getattr(ai_complex, builder)

        def counted(*args, builder=builder, original=original):
            calls.append(builder)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("maghom") and getattr(module, builder, None) is original:
                monkeypatch.setattr(module, builder, counted)
    choice = ["--matching", "pawful"] if command == "morse" else ["--pawful"]
    code, out, _ = run(
        capsys, command, FIXTURES / "C4", "--a", 1, "--b", 1, "--ell", 4, *choice
    )
    assert code == 0 and "3 critical cells in dimension 2" in out
    assert calls == ["relative_complex"]


def test_missing_file(capsys):
    code, _, err = run(capsys, "magnitude", "no/such/file")
    assert code == 1 and "error" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("1 2 3\n")
    code, _, err = run(capsys, "magnitude", bad)
    assert code == 1



def test_directory_as_graph_file(capsys):
    code, out, err = run(capsys, "magnitude", FIXTURES)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "directory" in err


def test_undecodable_graph_file(capsys, tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe1 2\n")
    code, out, err = run(capsys, "magnitude", bad)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "decode" in err


def _stream_with_bad_third_line(g1, g2):
    good = [encode_graph6(g.n, g.edges).encode() for g in (g1, g2)]
    return b"\n".join(good + [b"\xff\xfe", good[0]]) + b"\n"


def _assert_bad_line_skipped(code, out, err, g1, g2):
    assert code == 0
    assert err.startswith("warning: line 3:") and err.count("\n") == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["index"], r["n"]) for r in records] == [(1, g1.n), (2, g2.n), (4, g1.n)]


def test_classify_undecodable_line_in_file(capsys, tmp_path, g1, g2):
    stream = tmp_path / "stream.g6"
    stream.write_bytes(_stream_with_bad_third_line(g1, g2))
    code, out, err = run(capsys, "classify", stream, "--lmax", 2)
    _assert_bad_line_skipped(code, out, err, g1, g2)


def test_classify_undecodable_line_on_stdin(capsys, monkeypatch, g1, g2):
    data = io.BytesIO(_stream_with_bad_third_line(g1, g2))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(data, encoding="utf-8"))
    code, out, err = run(capsys, "classify", "-", "--lmax", 2)
    _assert_bad_line_skipped(code, out, err, g1, g2)


@pytest.mark.parametrize("command", ["classify", "mh-table"])
def test_negative_lmax(capsys, tmp_path, g1, command):
    path = tmp_path / "g1.g6"
    path.write_text(encode_graph6(g1.n, g1.edges) + "\n")
    graph = path if command == "classify" else FIXTURES / "G1"
    code, out, err = run(capsys, command, graph, "--lmax", -1)
    assert (code, out, err) == (1, "", "error: --lmax must be >= 0\n")

def test_internal_inconsistency_exit_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "magnitude_series", lambda g, n: [0] * (n + 1))
    code, _, err = run(capsys, "magnitude", FIXTURES / "C4", "--series", 2)
    assert code == 3
    assert "inconsistency" in err


def test_mh_table_verify_on_the_golden_g3_table(capsys):
    argv = ["mh-table", FIXTURES / "G3", "--lmax", 5, "--json"]
    code, out, _ = run(capsys, *argv, "--verify")
    assert f"exit {code}\n{out}" == (GOLDEN / "mh_table_json.out").read_text()
    assert out == run(capsys, *argv)[1]


def test_mh_table_verify_on_symmetric_random_graphs(capsys, tmp_path):
    checked = 0
    for seed in range(40):
        g = random_connected(random.Random(seed), 5 + seed % 4)
        if len(pair_orbits(g)) == g.n * (g.n + 1) // 2:
            continue  # Aut(G) is trivial: only reversal pairs up the summands
        path = tmp_path / f"g{seed}"
        path.write_text(serialize_edge_list(g))
        code, out, err = run(capsys, "mh-table", path, "--lmax", 4, "--csv", "--verify")
        assert (code, err) == (0, "")
        assert out == run(capsys, "mh-table", path, "--lmax", 4, "--csv")[1]
        checked += 1
        if checked == 12:
            break
    assert checked == 12


def test_mh_table_verify_on_the_rp2_fixture(capsys):
    # the orbit route and the sum over all endpoint pairs agree on torsion
    code, out, err = run(capsys, "mh-table", FIXTURES / "RP2H", "--lmax", 4, "--verify")
    assert (code, err) == (0, "")
    assert out == run(capsys, "mh-table", FIXTURES / "RP2H", "--lmax", 4)[1]


def test_mh_table_verify_mismatch_exit_code(capsys, monkeypatch):
    real = cli.pairwise_column

    def off_by_one(g, length):
        column = real(g, length)
        rank, tors = column[-1]
        return column[:-1] + [(rank + 1, tors)]

    monkeypatch.setattr(cli, "pairwise_column", off_by_one)
    code, out, err = run(capsys, "mh-table", FIXTURES / "C4", "--lmax", 2, "--verify")
    assert code == 3
    assert out == ""
    assert "length-0 groups differ" in err


def test_mh_table_verify_refuses_one_summand(capsys):
    code, _, err = run(
        capsys, "mh-table", FIXTURES / "C4", "--lmax", 2, "--ab", "1,1", "--verify"
    )
    assert code == 1
    assert "whole table" in err


def test_graph6_input_format(capsys, tmp_path, g2):
    path = tmp_path / "g2.g6"
    path.write_text(encode_graph6(g2.n, g2.edges) + "\n")
    code, out, _ = run(capsys, "magnitude", path, "--format", "graph6")
    assert code == 0
    code2, out2, _ = run(capsys, "magnitude", FIXTURES / "G2")
    assert out == out2


def test_match_requires_certificate_choice(capsys):
    with pytest.raises(SystemExit):
        cli.main(["match", str(FIXTURES / "G1"), "--a", "1", "--b", "1", "--ell", "3"])


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_basis_cap_env(capsys, monkeypatch, tmp_path, value):
    path = tmp_path / "c5_tail"
    path.write_text("1 2\n2 3\n3 4\n4 5\n5 1\n1 6\n6 7\n")
    monkeypatch.setenv("MAGHOM_BASIS_CAP", value)
    code, out, err = run(capsys, "mh-table", path, "--lmax", 3)
    assert (code, out) == (1, "")
    assert err == f"error: MAGHOM_BASIS_CAP must be a positive integer, got {value!r}\n"


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_search_budget_env(capsys, monkeypatch, value):
    monkeypatch.setenv("MAGHOM_SEARCH_BUDGET", value)
    code, out, err = run(capsys, "s-structure", FIXTURES / "G1", "--search")
    assert (code, out) == (1, "")
    assert err == f"error: MAGHOM_SEARCH_BUDGET must be a positive integer, got {value!r}\n"


@pytest.mark.parametrize("name", ["MAGHOM_BASIS_CAP", "MAGHOM_SEARCH_BUDGET"])
def test_classify_checks_its_settings_before_the_first_record(capsys, monkeypatch, tmp_path, name):
    # P4 (diameter 3, no search) before a diameter-2 graph: no record is
    # written, not even at an lmax that needs no homology
    stream = tmp_path / "stream.g6"
    stream.write_text("Ch\nFEl~?\n")
    monkeypatch.setenv(name, "abc")
    for lmax in (2, 4):
        code, out, err = run(capsys, "classify", stream, "--lmax", lmax)
        assert (code, out) == (1, "")
        assert err == f"error: {name} must be a positive integer, got 'abc'\n"
    if name == "MAGHOM_SEARCH_BUDGET":  # --budget stands in for it
        code, out, err = run(capsys, "classify", stream, "--lmax", 2, "--budget", 5)
        assert code == 0 and len(out.splitlines()) == 2


@pytest.mark.parametrize(
    "argv, err",
    [
        ([], "MAGHOM_BASIS_CAP must be a positive integer, got 'x'"),
        (["--budget", -3], "--budget must be positive"),
        (["--budget", -3, "--lmax", -1], "--lmax must be >= 0"),
    ],
    ids=["cap", "budget", "lmax"],
)
def test_classify_checks_lmax_then_budget_then_each_setting(capsys, monkeypatch, tmp_path, argv, err):
    # with every check failing, the first in that order wins, and no record is written
    stream = tmp_path / "stream.g6"
    stream.write_text("Ch\nFEl~?\n")
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "x")
    monkeypatch.setenv("MAGHOM_SEARCH_BUDGET", "y")
    assert run(capsys, "classify", stream, *argv) == (1, "", f"error: {err}\n")


# every cap of the sweep: 1..60, then the powers of two and three times them
SWEEP_CAPS = sorted(set(range(1, 61)) | {2**k for k in range(15)} | {3 * 2**k for k in range(14)})


def test_every_basis_cap_refuses_as_the_lexicographic_pipeline(capsys, monkeypatch, tmp_path):
    # stdout, stderr and exit code at each cap of the sweep are those of
    # the lexicographic pipeline (tests/oracles.py), which enumerates
    # every degree whole before it builds a map: a refusal names the same
    # degree with the same message, and a record over the cap in a
    # census stream reads "budget-exceeded" in the same field
    stream = tmp_path / "census.g6"
    stream.write_text("".join(encode_graph6(n, edges) + "\n" for n, edges in census_stream(1)[:50]))
    commands = [
        ["mh-table", FIXTURES / "G3", "--lmax", 6],
        ["mh-table", FIXTURES / "G3", "--lmax", 6, "--ab", "1,2"],
        ["classify", stream, "--lmax", 4],
    ]
    outcomes = Counter()
    for cap in SWEEP_CAPS:
        monkeypatch.setenv("MAGHOM_BASIS_CAP", str(cap))
        for argv in commands:
            grown = run(capsys, *argv)
            with monkeypatch.context() as patch:
                patch.setattr(homology, "_groups", indexed_groups)
                patch.setattr(cli, "is_diagonal_up_to", indexed_is_diagonal_up_to)
                assert run(capsys, *argv) == grown, (cap, argv)
            budget = grown[0] == 2 or '"budget-exceeded"' in grown[1]
            outcomes[argv[0], budget] += 1
    # each command both refuses and finishes somewhere in the sweep
    assert all(outcomes[command, budget] for command in ("mh-table", "classify") for budget in (True, False))


def test_a_degree_is_refused_while_its_smooth_cells_are_found(monkeypatch, g3):
    # G3 at l = 9: degree 6 holds 28,056 cells of the full basis and
    # degree 7 holds 92,214, 77,414 of them with a smooth point; at a cap
    # of 50,000 degree 7 is refused while d_7 finds them, before its
    # other cells are enumerated, with the message of a whole
    # enumeration, and the memory traced stays under 6 MB (3.4 MB on
    # CPython 3.11, where the uncapped column peaks at 8.8 MB)
    enumerated = []
    enumerate_named = homology.enumerate_sequences

    def recorded(g, k, length, *args):
        enumerated.append(k)
        return enumerate_named(g, k, length, *args)

    monkeypatch.setattr(homology, "enumerate_sequences", recorded)
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "50000")
    g3.walks(9)  # the walk counts, held by the graph, are not the column's
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="^degree-7 length-9 basis exceeds the cap of 50000$") as err:
            mh_column(g3, 9)
        capped = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "boundary_matrix" in [frame.name for frame in traceback.extract_tb(err.value.__traceback__)]
    assert enumerated == [5, 6]
    assert capped < 6_000_000
    monkeypatch.undo()
    monkeypatch.setenv("MAGHOM_BASIS_CAP", "50000")
    with pytest.raises(BudgetExceeded, match="^degree-7 length-9 basis exceeds the cap of 50000$"):
        indexed_mh_table(g3, 9)
