"""Print the size of the ``enks`` package: lines, code lines and
docstring lines.

Run from the repository root with

    python tests/src_size.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/enks``.  Lines are every line of its
``.py`` files.  Docstring lines are the lines the module, class and
function docstrings span, found with ``ast``.  Code lines are the other
lines that hold a token that is not a comment.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def file_size(text: str) -> tuple[int, int, int]:
    """``(lines, code lines, docstring lines)`` of one source file."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs), len(docs)


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/enks")
    totals = [0, 0, 0]
    for path in sorted(root.glob("*.py")):
        for i, v in enumerate(file_size(path.read_text(encoding="utf-8"))):
            totals[i] += v
    print(f"{root}: {totals[0]} lines, {totals[1]} code lines, "
          f"{totals[2]} docstring lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
