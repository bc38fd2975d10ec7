"""The README's Library code block runs, and its commented values hold.

The block runs from the repository root, as a reader would run it.  A
line ``expr  # value`` whose value is a Python literal is also checked:
``expr`` evaluated after the block must equal ``value``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_block():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def commented_values(block):
    for line in block.splitlines():
        code, sep, comment = line.partition("  # ")
        if not sep:
            continue
        try:
            value = ast.literal_eval(comment.strip())
            ast.parse(code.strip(), mode="eval")
        except (SyntaxError, ValueError):
            continue
        yield code.strip(), value


def test_readme_library_block(monkeypatch):
    monkeypatch.chdir(ROOT)
    block = library_block()
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checks = list(commented_values(block))
    assert len(checks) >= 4
    for code, value in checks:
        assert eval(code, namespace) == value, code
