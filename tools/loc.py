"""Count the lines that carry code in Python files: blank lines,
comment-only lines and docstrings (any bare string statement) are left
out, so a docstring rewrite or a comment cleanup does not move the
number. A line counts once, whatever it holds.

Usage (from the repo root):
    python tools/loc.py                    # every tracked sod_ray/*.py
    python tools/loc.py sod_ray/stages/dedup.py [more files ...]

Prints one line per file and a total; the total is the number that
simplicity changes report before and after.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """Number of lines holding a token that is neither a comment nor
    part of a docstring."""
    doc_lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            doc_lines.update(range(node.lineno, node.end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        for row in range(tok.start[0], tok.end[0] + 1):
            if row not in doc_lines:
                lines.add(row)
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        paths = subprocess.run(
            ["git", "ls-files", "sod_ray/*.py"],
            check=True, capture_output=True, text=True,
        ).stdout.split()
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        total += n
        print(f"{n:7d} {path}")
    print(f"{total:7d} total")
    return total


if __name__ == "__main__":
    main(sys.argv[1:])
