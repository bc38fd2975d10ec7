"""The library makes no reference cycles: each call's tables are freed
when it returns, by reference counting, not by the cyclic garbage
collector.  So ``cli.main`` pauses the collector for each command and
puts it back as it found it.  The interpreter may still leave cycles of
its own: CPython 3.12 and later run the exact division of huge integers
(``magnitude._det_bareiss``) in Python, in ``_pylong``, whose helper
closures are cycles.  A failure names what the collector found, so the
source of a cycle shows.
"""

import argparse
import gc
import types
from collections import Counter

import pytest
from conftest import FIXTURES, K33, PETERSEN
from test_golden import CASES, REFUSALS

from maghom import cli, is_diagonal_up_to, mh_table
from maghom.ai_complex import relative_complex
from maghom.errors import BudgetExceeded, InternalCheckError, ParseError
from maghom.homology import enumerate_sequences
from maghom.matching import build_matching, parse_s, search_structure
from maghom.morse import is_acyclic, morse_rank_check, verify_matching
from maghom.symmetry import pair_orbits


def collected():
    """Run the cyclic collector and say what it found: the count, and
    the objects by type, or by module and qualified name for functions.
    They are kept for the count (``gc.DEBUG_SAVEALL``), then freed."""
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        count = gc.collect()
        found = Counter(
            f"{obj.__module__}.{obj.__qualname__}"
            if isinstance(obj, types.FunctionType)
            else type(obj).__qualname__
            for obj in gc.garbage
        )
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        gc.collect()  # frees what was kept
    return count, ", ".join(f"{n} {name}" for name, n in found.most_common())


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
            enumerate_sequences(g1, 3, 5, pair_orbits(g1))
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
        count, found = collected()
        assert count == 0, found
    finally:
        gc.enable()


def test_no_command_leaves_cyclic_garbage(tmp_path, monkeypatch, capsys):
    stream = tmp_path / "stream.g6"
    stream.write_text("Ch\n!!!notgraph6!!!\nEhtw\nFEl~?\n")
    # (argv, environment, exit code): every golden, every refusal, and two
    # runs that no table lists
    runs = [(argv, {}, 0) for argv in CASES.values()]
    runs += [(argv, env, code) for env, argv, code, _ in REFUSALS.values()]
    runs += [
        (["magnitude", tmp_path / "missing"], {}, 1),
        # a warning for line 2, then "budget-exceeded" for line 3's search
        (["classify", stream, "--budget", "1"], {}, 0),
    ]
    gc.collect()
    gc.disable()
    try:
        for argv, env, code in runs:
            for var in ("MAGHOM_BASIS_CAP", "MAGHOM_SEARCH_BUDGET"):
                monkeypatch.delenv(var, raising=False)
            for var, value in env.items():
                monkeypatch.setenv(var, value)
            assert cli.main([str(a) for a in argv]) == code, argv
            count, found = collected()
            assert count == 0, (argv, found)
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
