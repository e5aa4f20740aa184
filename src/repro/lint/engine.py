"""Lint driver: file discovery, suppressions, rule dispatch, CLI.

A *rule* is a module exposing ``CODE`` (e.g. ``"LEAK01"``), ``SUMMARY``
(one line), ``EXPLAIN`` (the ``--explain`` text) and at least one of

* ``check_file(src: SourceFile) -> list[Violation]`` — per-file pass;
* ``finalize(files: list[SourceFile]) -> list[Violation]`` — cross-file
  pass, run once after every file was visited (import graphs, tag
  namespaces, the executed registry check).

Suppressions: ``# repro-lint: skip=CODE[,CODE] -- justification`` on the
*reported line* silences those codes there.  The ``--`` justification is
mandatory — a suppression without one is itself a violation (**SUP01**),
which is how CI fails on new unjustified suppressions.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

__all__ = ["Violation", "SourceFile", "lint_paths", "run_cli"]

#: ``# repro-lint: skip=LEAK01,DET01 -- reason`` (reason group optional,
#: its absence is the SUP01 violation)
_SKIP_RE = re.compile(
    r"#\s*repro-lint:\s*skip=([A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
    r"(\s*--\s*\S.*)?")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule code anchored to a file and line."""

    code: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass
class SourceFile:
    """One parsed file plus everything rules need to know about it."""

    path: Path               #: as discovered (used in reports)
    text: str
    tree: ast.Module
    #: dotted module name from the ``repro`` package root (``None`` for
    #: files outside a ``repro`` package dir — tests, benchmarks, ...)
    module: Optional[str]
    #: line -> set of rule codes suppressed on that line
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: (line, codes) of suppressions lacking a ``--`` justification
    unjustified: list[tuple[int, str]] = field(default_factory=list)


def module_name(path: Path) -> Optional[str]:
    """Dotted module name of a file under a ``repro`` package root.

    Works on the real tree *and* on fixture trees (anything shaped like
    ``.../repro/<pkg>/<mod>.py``); returns ``None`` when no ``repro``
    directory is on the path.
    """
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")  # last occurrence
    dotted = parts[idx:]
    leaf = dotted[-1]
    if leaf == "__init__.py":
        dotted = dotted[:-1]
    elif leaf.endswith(".py"):
        dotted[-1] = leaf[:-3]
    else:
        return None
    return ".".join(dotted)


def _scan_suppressions(src: SourceFile) -> None:
    for lineno, line in enumerate(src.text.splitlines(), start=1):
        m = _SKIP_RE.search(line)
        if m is None:
            continue
        codes = {c.strip() for c in m.group(1).split(",")}
        src.suppressions.setdefault(lineno, set()).update(codes)
        if m.group(2) is None:
            src.unjustified.append((lineno, m.group(1)))


def load_file(path: Path) -> SourceFile:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    src = SourceFile(path=path, text=text, tree=tree,
                     module=module_name(path))
    _scan_suppressions(src)
    return src


def discover(paths: list[str]) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(f for f in p.rglob("*.py")
                       if "__pycache__" not in f.parts
                       and not any(part.startswith(".")
                                   for part in f.parts))
        elif p.suffix == ".py":
            out.append(p)
    return sorted(set(out))


def _rules():
    # Imported lazily so ``--explain`` works even if one rule module is
    # being edited; order fixes report order for equal (path, line).
    from . import (determinism, layering, leak, obs_pairing,
                   registry_check, tagspace)

    return [leak, obs_pairing, determinism, layering, tagspace,
            registry_check]


def rule_codes() -> dict[str, object]:
    codes = {mod.CODE: mod for mod in _rules()}
    codes["SUP01"] = sys.modules[__name__]
    return codes


# engine-owned rule: unjustified suppressions
CODE = "SUP01"
SUMMARY = "suppression comment lacks a '-- justification' trailer"
EXPLAIN = """\
Every `# repro-lint: skip=CODE` suppression must say *why* the finding
is safe to ignore:

    sock.join(group)  # repro-lint: skip=LEAK01 -- left by the caller

A suppression without the ` -- reason` trailer is reported as SUP01 (and
SUP01 itself cannot be suppressed), so the CI lint-deep job fails on any
new suppression added without a justification.
"""


def lint_paths(paths: list[str]) -> tuple[list[Violation], int]:
    """Lint files/dirs; returns (violations, files scanned).

    Suppressed findings are dropped; SUP01 findings for unjustified
    suppressions are appended and cannot themselves be suppressed.
    """
    files = []
    violations: list[Violation] = []
    for path in discover(paths):
        try:
            files.append(load_file(path))
        except (SyntaxError, UnicodeDecodeError) as exc:
            violations.append(Violation(
                "PARSE", str(path), getattr(exc, "lineno", 1) or 1,
                f"could not parse: {exc.msg if hasattr(exc, 'msg') else exc}"))
    by_path = {str(f.path): f for f in files}
    raw: list[Violation] = []
    for rule in _rules():
        check = getattr(rule, "check_file", None)
        if check is not None:
            for f in files:
                raw.extend(check(f))
        finalize = getattr(rule, "finalize", None)
        if finalize is not None:
            raw.extend(finalize(files))
    for v in raw:
        src = by_path.get(v.path)
        if src is not None and v.code in src.suppressions.get(v.line,
                                                              ()):
            continue
        violations.append(v)
    for f in files:
        for line, codes in f.unjustified:
            violations.append(Violation(
                "SUP01", str(f.path), line,
                f"suppression of {codes} lacks a '-- justification' "
                f"trailer"))
    violations.sort(key=lambda v: (v.path, v.line, v.code))
    return violations, len(files)


def run_cli(argv: list[str]) -> int:
    """``python -m repro.lint [--explain CODE] [paths...]``."""
    if "--explain" in argv:
        idx = argv.index("--explain")
        if idx + 1 >= len(argv):
            print("usage: python -m repro.lint --explain CODE",
                  file=sys.stderr)
            return 2
        code = argv[idx + 1]
        mod = rule_codes().get(code)
        if mod is None:
            print(f"unknown rule code {code!r}; known: "
                  f"{', '.join(sorted(rule_codes()))}", file=sys.stderr)
            return 2
        print(f"{code}: {mod.SUMMARY}\n")
        print(mod.EXPLAIN)
        return 0
    paths = [a for a in argv if not a.startswith("-")]
    if not paths:
        print("usage: python -m repro.lint [--explain CODE] paths...",
              file=sys.stderr)
        return 2
    violations, nfiles = lint_paths(paths)
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violation(s) in {nfiles} file(s)",
              file=sys.stderr)
        return 1
    print(f"repro.lint: {nfiles} files clean")
    return 0
