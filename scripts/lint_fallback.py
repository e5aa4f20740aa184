#!/usr/bin/env python3
"""The stdlib stand-in for ruff's runtime-breaking classes (``make lint``
without ruff): E9, a file that does not compile; F401, a module-level
import never read; F63, a test that cannot mean what it says — F631 an
``assert`` on a non-empty tuple, F632 ``is`` / ``is not`` against a
str, bytes or number literal, F633 ``print >>``; F821, a name read
that nothing binds — not the module, an enclosing scope or the
builtins; and F822, a name in ``__all__`` the module does not bind.

    python3 scripts/lint_fallback.py src tests benchmarks examples

prints one ``path:line:col: CODE message`` line per finding, then which
of the configured ruff classes it did not check, and exits 1 on any
finding.  F401 keeps ruff's exemptions here: ``src/repro/**/__init__.py``
(re-exports are the public API), a ``# noqa`` or ``# noqa: F401``
comment on the import line, ``from __future__`` imports and names listed
in ``__all__``; a name inside a quoted annotation counts as read.  F82
reads the scopes from :mod:`symtable` and the annotations from the tree
(``from __future__ import annotations`` hides them from the symbol
table); a file with a ``*`` import is skipped, as ruff does.
"""

from __future__ import annotations

import ast
import builtins
import re
import symtable
import sys
from pathlib import Path

#: ruff.toml's other classes: this script does not check them
UNCHECKED = "E1/E2/E4/E7/W/F7/F823"

_NOQA = re.compile(r"#\s*noqa(?::\s*([A-Z0-9, ]+))?", re.IGNORECASE)
_BLOCKS = (ast.If, ast.Try, ast.With)
#: module attributes every module has besides the builtins
_MODULE_NAMES = {"__file__", "__builtins__", "__path__", "__annotations__"}


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


def _annotation_names(tree: ast.Module):
    """``(name, node)`` of every name an annotation reads, a quoted
    one's at the string's position."""
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name):
                yield node.id, node
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                for name in ast.walk(quoted):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _exports(tree: ast.Module):
    """``(name, node)`` of every string assigned to ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                for n in ast.walk(node.value):
                    if isinstance(n, ast.Constant) and isinstance(n.value,
                                                                  str):
                        yield n.value, n


def _reads(tree: ast.Module) -> set[str]:
    """Every name the module reads: loads, attribute roots, names in
    quoted annotations, and the strings of ``__all__``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
    names |= {name for name, _ in _annotation_names(tree)}
    return names | {name for name, _ in _exports(tree)}


def _undefined(path: Path, source: str, tree: ast.Module) -> list[str]:
    """F821 / F822: one finding per unbound name, at its first read."""
    if any(isinstance(node, ast.ImportFrom)
           and any(alias.name == "*" for alias in node.names)
           for node in ast.walk(tree)):
        return []
    top = symtable.symtable(source, str(path), "exec")
    bound = set(dir(builtins)) | _MODULE_NAMES
    read = set()                    # global reads of any scope
    tables = [top]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        for sym in table.get_symbols():
            name = sym.get_name()
            if (sym.is_assigned() or sym.is_imported()) and (
                    table is top or sym.is_declared_global()):
                bound.add(name)
            elif sym.is_referenced() and sym.is_global():
                read.add(name)
    annotated = list(_annotation_names(tree))
    unbound = (read | {name for name, _ in annotated}) - bound
    first = {}
    loads = [(node.id, node) for node in ast.walk(tree)
             if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)]
    for name, node in loads + annotated:
        if name in unbound:
            spot = (node.lineno, node.col_offset)
            first[name] = min(first.get(name, spot), spot)
    findings = [(spot, "F821", f"Undefined name `{name}`")
                for name, spot in first.items()]
    findings += [((node.lineno, node.col_offset), "F822",
                  f"Undefined name `{name}` in `__all__`")
                 for name, node in _exports(tree) if name not in bound]
    return [f"{path}:{line}:{col + 1}: {code} {message}"
            for (line, col), code, message in sorted(findings)]


def _is_literal(node) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (str, bytes, int, float, complex))
            and not isinstance(node.value, bool))


def _f63(tree: ast.Module):
    """``(node, code, message)`` of every F631 / F632 / F633 finding."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assert) and isinstance(node.test, ast.Tuple)
                and node.test.elts):
            yield (node, "F631", "Assert test is a non-empty tuple, which "
                                 "is always `True`")
        elif isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if (isinstance(op, (ast.Is, ast.IsNot))
                        and (_is_literal(left) or _is_literal(right))):
                    yield (node, "F632", "Use `==` to compare constant "
                                         "literals")
                left = right
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift)
              and isinstance(node.left, ast.Name)
              and node.left.id == "print"):
            yield (node, "F633", "Use of `>>` is invalid with `print` "
                                 "function")


def check_file(path: Path) -> list[str]:
    """The findings of one file, as ``path:line:col: CODE message``."""
    source = path.read_text(encoding="utf-8")
    try:
        compile(source, str(path), "exec", dont_inherit=True)
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno or 1}:{exc.offset or 1}: E999 "
                f"SyntaxError: {exc.msg}"]
    tree = ast.parse(source, str(path))
    findings = _undefined(path, source, tree)
    findings += [f"{path}:{line}:{col + 1}: {code} {message}"
                 for (line, col), code, message in sorted(
                     ((node.lineno, node.col_offset), code, message)
                     for node, code, message in _f63(tree))]
    if _exempt_file(path):
        return findings
    lines = source.splitlines()
    reads = _reads(tree)
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
          f"files (E9, F401, F63, F821, F822); not checked without ruff: "
          f"{UNCHECKED}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
