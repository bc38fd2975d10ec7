import io
import json
import random
import sys

import pytest

from maghom import ai_complex, cli, complete_graph, serialize_edge_list
from maghom.symmetry import pair_orbits
from conftest import FIXTURES, encode_graph6, random_connected

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
    code, _, err = run(capsys, "s-structure", FIXTURES / "G1", "--search", "--budget", 1)
    assert code == 2
    assert "budget" in err


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
