"""Byte-for-byte CLI output on the README's command lines.

Each case's stdout and exit code are compared with a file under
``tests/golden``.  The files were captured from the CLI and pin its
output format; a change that alters them must say why.  Regenerate with
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.

``REFUSALS`` lists commands the CLI refuses, each with its environment,
exit code and exact stderr.  The tests run both tables through ``main``,
and CI runs both through the installed console script.
"""

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from maghom.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
F = ROOT / "fixtures"

CASES = {
    "magnitude_series": ["magnitude", F / "G1", "--series", "7"],
    "magnitude_json": ["magnitude", F / "G1", "--json"],
    # coefficients of up to 94 bits: a digit width too narrow shows here
    "magnitude_series_r40": ["magnitude", F / "R40", "--series", "60", "--json"],
    # a 500-vertex tree: the whole-graph quotient is over the basis cap,
    # its 2-core is one vertex
    "magnitude_series_t500": ["magnitude", F / "T500", "--series", "8", "--json"],
    "mh_table_csv": ["mh-table", F / "G3", "--lmax", "6", "--csv"],
    # --verify also sums each length over all n^2 endpoint summands
    "mh_table_csv_verify": ["mh-table", F / "G3", "--lmax", "6", "--verify", "--csv"],
    "mh_table_json": ["mh-table", F / "G3", "--lmax", "5", "--json"],
    "mh_table_json_l8": ["mh-table", F / "G3", "--lmax", "8", "--json"],
    # RP^2's Hasse diagram: MH_(3,4) = Z^450 + (Z/2)^2
    "mh_table_rp2": ["mh-table", F / "RP2H", "--lmax", "5", "--json"],
    # two torsion divisors in one field: T[2 2]
    "mh_table_rp2_csv": ["mh-table", F / "RP2H", "--lmax", "4", "--csv"],
    "mh_table_rp2_csv_verify": ["mh-table", F / "RP2H", "--lmax", "4", "--verify", "--csv"],
    "mh_table_ab": ["mh-table", F / "C4", "--lmax", "4", "--ab", "1,1", "--json"],
    "mh_table_tsv": ["mh-table", F / "G1", "--lmax", "4"],
    "ai_complex": ["ai-complex", F / "C4", "--a", "1", "--b", "1", "--ell", "4",
                   "--homology", "--list-faces"],
    "ai_complex_g1": ["ai-complex", F / "G1", "--a", "2", "--b", "5", "--ell", "4",
                      "--json", "--homology", "--list-faces"],
    "ai_complex_g3": ["ai-complex", F / "G3", "--a", "1", "--b", "2", "--ell", "5",
                      "--homology", "--json"],
    "morse_report": ["morse", F / "C4", "--a", "1", "--b", "1", "--ell", "4",
                     "--matching", "pawful", "--report"],
    "morse_report_g1": ["morse", F / "G1", "--a", "1", "--b", "3", "--ell", "7",
                        "--matching", F / "G1.sstruct", "--report"],
    # the size of the benchmark's pawful 8-vertex morse items at l = 7
    "morse_report_p8": ["morse", F / "P8", "--a", "3", "--b", "8", "--ell", "7",
                        "--matching", "pawful", "--report"],
    # K5 at l = 5 has no cell below the top, so every walk is isolated:
    # 205 critical cells, none of them listed
    "morse_report_k5": ["morse", GOLDEN / "K5", "--a", "1", "--b", "2", "--ell", "5",
                        "--report"],
    "morse_certificate": ["morse", F / "G1", "--a", "1", "--b", "3", "--ell", "5",
                          "--matching", F / "G1.sstruct"],
    "match_s": ["match", F / "G1", "--a", "1", "--b", "3", "--ell", "3",
                "--s", F / "G1.sstruct"],
    "match_s_g1_l5": ["match", F / "G1", "--a", "1", "--b", "3", "--ell", "5",
                      "--s", F / "G1.sstruct"],
    "match_pawful_c4": ["match", F / "C4", "--a", "1", "--b", "3", "--ell", "4",
                        "--pawful"],
    "pawful": ["pawful", F / "G1"],
    "s_structure_verify": ["s-structure", F / "G1", "--verify", F / "G1.sstruct"],
    "s_structure_search": ["s-structure", F / "G2", "--search"],
    # a found certificate: the search's variable order decides which
    "s_structure_search_g1": ["s-structure", F / "G1", "--search"],
    "ahk_check": ["ahk-check", F / "G3"],
    "classify": ["classify", GOLDEN / "stream.g6", "--lmax", "4"],
    # 7 vertices: FEl~? is first off-diagonal at l = 5, FhCKG and Frq_w at
    # l = 4, Fpa?g and FxOY? at l = 3; the last three are diagonal
    "classify_l5": ["classify", GOLDEN / "stream7.g6", "--lmax", "5"],
}

# name -> (environment, argv, exit code, exact stderr): a command refused
# over a limit or on an invalid certificate (misshapen tuples, two
# middles over one key, a gap with no middle, or an insertion that
# deletion does not invert), with no stdout checked
REFUSALS = {
    "morse_basis_cap": (
        {"MAGHOM_BASIS_CAP": "39"},
        ["morse", F / "C4", "--a", "1", "--b", "3", "--ell", "6", "--matching", "pawful"],
        2,
        "budget exceeded: degree-5 length-6 basis exceeds the cap of 39\n",
    ),
    "magnitude_series_cap": (
        {},
        ["magnitude", F / "G1", "--series", "300000"],
        2,
        "budget exceeded: series through q^300000 needs 6 x 300001 coefficients"
        " of 14063 machine words each, over the basis cap 2000000\n",
    ),
    "ai_complex_simplex_cap": (
        {},
        ["ai-complex", GOLDEN / "K2", "--a", "1", "--b", "2", "--ell", "23"],
        2,
        "budget exceeded: K_23(1,2) exceeds the cap of 2000000 simplices\n",
    ),
    "search_budget": (
        {},
        ["s-structure", F / "G1", "--search", "--budget", "1"],
        2,
        "budget exceeded: certificate search exceeded 1 nodes\n",
    ),
    "search_budget_variable": (
        {"MAGHOM_SEARCH_BUDGET": "abc"},
        ["classify", GOLDEN / "stream7.g6"],
        1,
        "error: MAGHOM_SEARCH_BUDGET must be a positive integer, got 'abc'\n",
    ),
    "triple_distances": (
        {},
        ["s-structure", F / "G1", "--verify", GOLDEN / "T121.sstruct"],
        1,
        "error: triple (1, 2, 1) violates its distance conditions\n",
    ),
    "quadruple_distances": (
        {},
        ["s-structure", F / "G1", "--verify", GOLDEN / "Q1123.sstruct"],
        1,
        "error: quadruple (1, 1, 2, 3) violates its distance conditions\n",
    ),
    # two middles over a triple key and over a quadruple key: the
    # quadruples are checked first
    "certificate_two_middles": (
        {},
        ["match", F / "G1", "--a", "1", "--b", "3", "--ell", "3",
         "--s", GOLDEN / "G1_two_middles.sstruct"],
        1,
        "error: two quadruples share the key (1, 2, 4)\n",
    ),
    # the refusals that name one of several faulty cells name the first
    # in simplex order, not in cell index order: G1's certificate with
    # Q 1 2 5 4 made Q 1 2 3 4 (cell index order would name
    # ((6, 1), (5, 2), (1, 3), (2, 4))), and without T 1 2 3
    "certificate_swapped_middle": (
        {},
        ["match", F / "G1", "--a", "2", "--b", "4", "--ell", "6",
         "--s", GOLDEN / "G1_swapped_middle.sstruct"],
        1,
        "error: deletion does not invert insertion at ((1, 1), (2, 2), (1, 3), (2, 4))\n",
    ),
    "certificate_missing_triple": (
        {},
        ["morse", F / "G1", "--a", "1", "--b", "3", "--ell", "5",
         "--matching", GOLDEN / "G1_no_T123.sstruct"],
        1,
        "error: no certificate entry for the gap at 0 in (1, 3, 2, 6, 3)\n",
    ),
    # RP^2's Hasse diagram has 152 walks of length 1 and 360 pairs at
    # distance 2, so degree 1 at length 2 is the first degree over the cap
    "degree_1_cap": (
        {"MAGHOM_BASIS_CAP": "200"},
        ["mh-table", F / "RP2H", "--lmax", "3"],
        2,
        "budget exceeded: degree-1 length-2 basis exceeds the cap of 200\n",
    ),
    # diameter 5: refused before the complex is built, which at l = 30
    # would be over the basis cap
    "certificate_diameter": (
        {},
        ["morse", GOLDEN / "P6", "--a", "1", "--b", "1", "--ell", "30",
         "--matching", GOLDEN / "empty.sstruct"],
        1,
        "error: certificate matchings need diameter <= 2\n",
    ),
}


def run(argv) -> str:
    out = StringIO()
    with redirect_stdout(out):
        code = main([str(a) for a in argv])
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert run(CASES[name]) == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name, monkeypatch, capsys):
    env, argv, code, err = REFUSALS[name]
    for var in ("MAGHOM_BASIS_CAP", "MAGHOM_SEARCH_BUDGET"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert main([str(a) for a in argv]) == code
    assert capsys.readouterr().err == err


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_text(run(argv))
        print(name, file=sys.stderr)
