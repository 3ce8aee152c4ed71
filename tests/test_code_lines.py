"""tools/code_lines.py: the code-line count that simplicity changes cite."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 8 code lines: the import, the class and def lines, the two lines of the
# parenthesized sum, the return, and the two lines of a string that is not
# a docstring.  Docstrings, comment lines and blank lines do not count.
FIXTURE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves its line a code line

# a comment line


class Thing:
    """Class docstring."""

    def run(self, x):
        """Function docstring,
        over two lines."""
        # a comment inside the body
        total = (x +
                 1)

        return total


TEXT = """a string,
not a docstring"""
'''


def test_fixture_counts_its_code_lines_only():
    assert code_lines.code_lines(FIXTURE) == 8


def test_command_prints_each_module_and_the_total(tmp_path, capsys):
    """The command counts the .py files of the directory it is given, in
    name order, and prints their total."""
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n# comment\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main(["code_lines.py", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["a.py", "1"], ["b.py", "8"], ["total", "9"]]
