"""`tools/code_lines.py`: code lines without blanks, comments or docstrings."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment after code


# a comment line
def f(x):
    """A function docstring."""
    s = """a string that is
not a docstring"""
    return (x +
            len(s))


class C:
    "a class docstring"
    y = os.sep
'''


def test_a_fixed_snippet_has_eight_code_lines():
    # import, def, the two string lines, the two return lines, class, y
    assert code_lines.code_lines(SNIPPET) == 8


def test_each_module_and_the_total_are_printed(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("# nothing but a comment\n\nx = 1\n")
    assert code_lines.main(tmp_path) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     8  a.py", "     1  b.py", "     9  total", ""]
