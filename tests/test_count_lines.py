"""tools/count_lines.py: the total and code lines it counts, on one source whose count is known line by line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"

# Code lines are 4, 9, 12, 14, 19, 20, 21, 24 and 26.  The docstrings of
# the module (1-2), the class (10), and the two functions (15-18, 25)
# are not code, nor are the comment line 6 and the blank lines; the
# string over lines 19-20 is a value, not a docstring, so both count.
SOURCE = '''\
"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line


class Point:
    """Class docstring."""

    x = 1

    def norm(self):
        """Function docstring,

        over three lines.
        """
        text = """a string that is
not a docstring"""
        return text


async def later():
    """One line."""
    return 1
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_total_and_code_lines():
    assert load_tool().count(SOURCE) == (26, 9)


def test_total_row_sums_the_modules(capsys):
    load_tool().main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    *modules, (name, lines, code) = rows
    assert name == "total" and modules
    assert (int(lines), int(code)) == (sum(int(r[1]) for r in modules), sum(int(r[2]) for r in modules))
