"""The library leaves no reference cycles behind: each call's tables are
freed when it returns, by reference counting, not by the cyclic
garbage collector.  So ``cli.main`` pauses the collector for each
command and puts it back as it found it."""

import argparse
import gc

import pytest
from conftest import FIXTURES, K33, PETERSEN
from test_golden import CASES

from maghom import cli, is_diagonal_up_to, mh_table
from maghom.ai_complex import relative_complex
from maghom.errors import BudgetExceeded, InternalCheckError, ParseError
from maghom.homology import enumerate_classes, orbit_classes
from maghom.matching import build_matching, parse_s, search_structure
from maghom.morse import is_acyclic, morse_rank_check, verify_matching
from maghom.symmetry import pair_orbits


def test_no_cyclic_garbage_is_left(c4, g1, g2, g3, g1_cert_text, monkeypatch):
    gc.collect()
    gc.disable()
    try:
        for g in (c4, g1, g3, K33, PETERSEN):
            is_diagonal_up_to(g, 5)
            mh_table(g, 5)
            pair_orbits(g)
        assert search_structure(g1) is not None
        assert search_structure(g2) is None
        try:
            search_structure(g1, budget=1)
        except BudgetExceeded:
            pass
        else:
            raise AssertionError("the search stayed within a budget of one node")
        monkeypatch.setenv("MAGHOM_BASIS_CAP", "3")
        try:
            enumerate_classes(g1, 3, 5, orbit_classes(g1))
        except BudgetExceeded:
            pass
        else:
            raise AssertionError("the enumeration stayed within a cap of 3")
        monkeypatch.delenv("MAGHOM_BASIS_CAP")
        pair = relative_complex(g1, 1, 3, 6)
        matching = build_matching(pair, parse_s(g1_cert_text, g1)).matching
        assert verify_matching(pair, matching) == (True, None)
        assert is_acyclic(pair, matching) == (True, None)
        assert morse_rank_check(pair, matching)[0]
        del pair, matching
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_command_leaves_cyclic_garbage(tmp_path, monkeypatch, capsys):
    stream = tmp_path / "stream.g6"
    stream.write_text("Ch\n!!!notgraph6!!!\nEhtw\nFEl~?\n")
    # (argv, MAGHOM_BASIS_CAP, exit code): every golden, then the refusals
    runs = [([str(a) for a in argv], None, 0) for argv in CASES.values()] + [
        (["magnitude", str(tmp_path / "missing")], None, 1),
        (["morse", str(FIXTURES / "C4"), "--a", "1", "--b", "3", "--ell", "6",
          "--matching", "pawful"], "39", 2),
        (["s-structure", str(FIXTURES / "G1"), "--search", "--budget", "1"], None, 2),
        # a warning for line 2, then "budget-exceeded" for line 3's search
        (["classify", str(stream), "--budget", "1"], None, 0),
    ]
    gc.collect()
    gc.disable()
    try:
        for argv, cap, code in runs:
            if cap is None:
                monkeypatch.delenv("MAGHOM_BASIS_CAP", raising=False)
            else:
                monkeypatch.setenv("MAGHOM_BASIS_CAP", cap)
            assert cli.main(argv) == code, argv
            assert gc.collect() == 0, argv
    finally:
        gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "error, code",
    [(None, 0), (ParseError, 1), (BudgetExceeded, 2), (InternalCheckError, 3), (RuntimeError, None)],
    ids=["exit-0", "exit-1", "exit-2", "exit-3", "escaping"],
)
def test_main_pauses_the_collector_and_restores_it(collecting, error, code, monkeypatch, capsys):
    seen = []

    def func(args):
        seen.append(gc.isenabled())
        if error:
            raise error("from the test")
        return 0

    (sub,) = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    monkeypatch.setitem(sub.choices["pawful"]._defaults, "func", func)
    argv = ["pawful", str(FIXTURES / "G1")]
    if collecting:
        gc.enable()
    else:
        gc.disable()
    try:
        if code is None:
            with pytest.raises(RuntimeError, match="from the test"):
                cli.main(argv)
        else:
            assert cli.main(argv) == code
        assert seen == [False]
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    capsys.readouterr()
