"""``tools/codelines.py`` counts the lines that hold code: docstrings,
comments and blank lines are left out, a string that is not a docstring
counts every line it spans."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("codelines", ROOT / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(codelines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """A function docstring."""
    s = """not a
docstring"""
    return (x +
            len(s))


class C:
    """A class docstring."""

    y = os.sep
'''


def test_code_lines_of_a_synthetic_module(tmp_path, capsys):
    # import, def, the two lines of s, the two of the return, class, y
    assert codelines.code_lines(SOURCE) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert codelines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"8 {tmp_path / 'pkg' / 'a.py'}",
        f"0 {tmp_path / 'pkg' / 'b.py'}",
        "8 total",
    ]
