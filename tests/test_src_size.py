"""The package size counter ``tests/src_size.py``."""

from pathlib import Path

import src_size

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "enks"

SOURCE = '''"""Module doc,
two lines."""

# a comment
x = 1  # trailing


def f():
    """One line."""
    return x
'''


def test_file_size_counts_lines_code_and_docstrings():
    # 10 lines; the docstrings span lines 1-2 and 9; code is on lines 5,
    # 8 and 10, and the comment line and blank lines are neither
    assert src_size.file_size(SOURCE) == (10, 3, 3)


def test_main_prints_the_package_totals(capsys):
    assert src_size.main(["src_size.py", str(PACKAGE)]) == 0
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in PACKAGE.glob("*.py"))
    assert capsys.readouterr().out.startswith(f"{PACKAGE}: {lines} lines, ")
