"""The library leaves no reference cycles behind: each call's tables are
freed when it returns, by reference counting, not by the cyclic
garbage collector."""

import gc
from pathlib import Path

from conftest import K33, PETERSEN

from maghom import cli, is_diagonal_up_to, mh_table
from maghom.ai_complex import relative_complex
from maghom.errors import BudgetExceeded
from maghom.homology import enumerate_classes, orbit_classes
from maghom.matching import build_matching, parse_s, search_structure
from maghom.morse import is_acyclic, morse_rank_check, verify_matching
from maghom.symmetry import pair_orbits

STREAM7 = Path(__file__).resolve().parent / "golden" / "stream7.g6"


def test_no_cyclic_garbage_is_left(c4, g1, g2, g3, g1_cert_text, monkeypatch, capsys):
    classify = ["classify", str(STREAM7), "--lmax", "5"]
    cli.main(classify)  # a warm-up: only what the second call leaves is checked
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
        assert cli.main(classify) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
