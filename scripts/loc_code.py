#!/usr/bin/env python3
"""Code-only line count of a change (``make loc``): the Python lines of
each directory at a git revision and in the working tree, blank lines,
comment-only lines and docstrings left out — a reworded docstring or a
deleted comment moves ``git diff --shortstat`` but not this count.

    python3 scripts/loc_code.py BASE [DIR ...]      # DIR defaults to src

prints one line per directory: ``DIR code: <at BASE> -> <now> (<delta>)``;
a BASE that names no commit (or an option) prints one line to stderr
and exits 2.
The revision is read with ``git show``; the working tree counts every
``.py`` file git tracks or does not ignore.  Stdlib only.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.AST) -> list[tuple]:
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, _DOC_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """Lines holding a token that is neither layout, a comment nor part
    of a docstring (a multi-line string expression counts every line)."""
    spans = _docstring_spans(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(
                lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(("git",) + args, check=True, text=True,
                          capture_output=True).stdout


def count_at(rev: str, directory: str) -> int:
    names = _git("ls-tree", "-r", "--name-only", rev, "--", directory)
    return sum(code_lines(_git("show", f"{rev}:{name}"))
               for name in names.splitlines() if name.endswith(".py"))


def count_worktree(directory: str) -> int:
    names = _git("ls-files", "--cached", "--others", "--exclude-standard",
                 "--", directory)
    return sum(code_lines(Path(name).read_text(encoding="utf-8"))
               for name in names.splitlines()
               if name.endswith(".py") and Path(name).is_file())


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print("usage: loc_code.py BASE [DIR ...]", file=sys.stderr)
        return 2
    rev, dirs = argv[0], argv[1:] or ["src"]
    if subprocess.run(("git", "rev-parse", "--verify", "--quiet",
                       f"{rev}^{{commit}}"),
                      capture_output=True).returncode:
        print(f"loc_code.py: unknown revision {rev!r}", file=sys.stderr)
        return 2
    for directory in dirs:
        before, after = count_at(rev, directory), count_worktree(directory)
        print(f"{directory + ' code:':<11}{before} -> {after} "
              f"({after - before:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
