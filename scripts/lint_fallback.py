#!/usr/bin/env python3
"""The stdlib stand-in for ruff's runtime-breaking classes (``make lint``
without ruff): E9, a file that does not compile, and F401, a
module-level import never read.

    python3 scripts/lint_fallback.py src tests benchmarks examples

prints one ``path:line:col: CODE message`` line per finding, then which
of the configured ruff classes it did not check, and exits 1 on any
finding.  F401 keeps ruff's exemptions here: ``src/repro/**/__init__.py``
(re-exports are the public API), a ``# noqa`` or ``# noqa: F401``
comment on the import line, ``from __future__`` imports and names listed
in ``__all__``; a name inside a quoted annotation counts as read.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: ruff.toml's other classes: this script does not check them
UNCHECKED = "E1/E2/E4/E7/W/F63/F7/F82"

_NOQA = re.compile(r"#\s*noqa(?::\s*([A-Z0-9, ]+))?", re.IGNORECASE)
_BLOCKS = (ast.If, ast.Try, ast.With)


def _exempt_file(path: Path) -> bool:
    parts = path.as_posix().split("/")
    return (path.name == "__init__.py" and "src" in parts
            and "repro" in parts[parts.index("src"):])


def _noqa(line: str) -> bool:
    match = _NOQA.search(line)
    return match is not None and (
        match.group(1) is None or "F401" in match.group(1).upper())


def _module_imports(body: list) -> list:
    """Import statements at module level, inside if/try/with blocks
    too, but not inside functions or classes."""
    found = []
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif isinstance(node, _BLOCKS):
            for field in ("body", "orelse", "finalbody"):
                found.extend(_module_imports(getattr(node, field, [])))
            for handler in getattr(node, "handlers", []):
                found.extend(_module_imports(handler.body))
    return found


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _reads(tree: ast.Module) -> set[str]:
    """Every name the module reads: loads, attribute roots, names in
    quoted annotations, and the strings of ``__all__``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(quoted)
                          if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                names |= {n.value for n in ast.walk(node.value)
                          if isinstance(n, ast.Constant)
                          and isinstance(n.value, str)}
    return names


def check_file(path: Path) -> list[str]:
    """The findings of one file, as ``path:line:col: CODE message``."""
    source = path.read_text(encoding="utf-8")
    try:
        compile(source, str(path), "exec", dont_inherit=True)
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno or 1}:{exc.offset or 1}: E999 "
                f"SyntaxError: {exc.msg}"]
    if _exempt_file(path):
        return []
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    reads = _reads(tree)
    findings = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if _noqa(lines[node.lineno - 1]):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in reads:
                shown = (alias.name if isinstance(node, ast.Import)
                         else f"{node.module or '.'}.{alias.name}")
                findings.append(f"{path}:{node.lineno}:{node.col_offset + 1}"
                                f": F401 `{shown}` imported but unused")
    return findings


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for name in paths:
        path = Path(name)
        if path.is_dir():
            files.extend(p for p in sorted(path.rglob("*.py"))
                         if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            files.append(path)
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    findings = []
    files = python_files(argv)
    for path in files:
        findings.extend(check_file(path))
    for line in findings:
        print(line)
    print(f"lint_fallback: {len(findings)} finding(s) in {len(files)} "
          f"files (E9, F401); not checked without ruff: {UNCHECKED}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
