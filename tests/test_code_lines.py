import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class A:
    """Class docstring."""

    x = 1


def f(a,
      b):
    """Function docstring."""
    text = """a string
that is not a docstring"""
    "an expression after the first statement"
    return text
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, class, x, def over two lines, two string lines, the late
    # string expression and the return
    assert code_lines.code_lines(SAMPLE) == 9


def test_every_module_and_the_total_are_printed(capsys):
    assert code_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = [name for name, _count in rows]
    assert names[:-1] == sorted(p.name for p in code_lines.PACKAGE.glob("*.py"))
    assert rows[-1] == ["total", str(sum(int(count) for _name, count in rows[:-1]))]
