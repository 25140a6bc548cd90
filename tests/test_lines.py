"""tools/lines.py counts each line of a module once, as code, docstring,
comment or blank."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("lines",
                                               ROOT / "tools" / "lines.py")
lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lines)


@pytest.mark.parametrize("path", sorted(lines.PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_the_columns_sum_to_the_line_count(path):
    assert sum(lines.count(path).values()) == path.read_bytes().count(b"\n")


def test_each_line_is_counted_as_what_it_holds(tmp_path):
    path = tmp_path / "module.py"
    path.write_text('"""A docstring\n\nover three lines."""\n'
                    "\n"
                    "# a comment\n"
                    "x = '''a string\n"
                    "\n"
                    "'''  # code, blank line included\n"
                    "def f():\n"
                    "    '''Its docstring.'''\n"
                    "    return (x,\n"
                    "\n"
                    "            x)\n")
    assert lines.count(path) == {"code": 6, "docstring": 4, "comment": 1,
                                 "blank": 2}
