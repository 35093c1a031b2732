"""Count the code lines of Python source files.

    python3 tools/code_lines.py src/collatzpath/*.py

A code line holds at least one token that is not a comment, a newline or
indentation.  Module, class and function docstrings are left out, so a
line counts only for the code on it.  Prints one line per file, its count
then its path, and with several files a last line with their total.
A path it cannot read, or cannot parse as Python, is one line on stderr
and exit status 2, with no count printed.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    # The (start, end) positions of every module, class and function docstring.
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(path: str) -> int:
    """The number of code lines in the Python file at path."""
    with open(path, "rb") as f:
        source = f.read()
    spans = _docstring_spans(ast.parse(source, path))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if any(start <= token.start < end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = []
    for path in paths:
        try:
            counts.append((code_lines(path), path))
        except OSError as exc:
            print(f"code_lines: cannot read {path}: {exc.strerror}", file=sys.stderr)
            return 2
        except (SyntaxError, ValueError) as exc:
            # Older Pythons refuse a NUL byte with ValueError, newer ones with SyntaxError.
            reason = exc.msg if isinstance(exc, SyntaxError) else str(exc)
            print(f"code_lines: cannot parse {path}: {reason}", file=sys.stderr)
            return 2
    for count, path in counts:
        print(f"{count:6d}  {path}")
    if len(counts) > 1:
        print(f"{sum(count for count, _ in counts):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
