"""``scripts/lint_fallback.py`` (``make lint`` without ruff): an unused
module-level import is F401, a re-export is not, a name nothing binds
is F821 (F822 in ``__all__``), a misused check is F631 / F632 / F633,
a file that does not compile is E999 — and the live tree is clean
under it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "lint_fallback.py"


def lint(*paths, cwd=ROOT):
    run = subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                         capture_output=True, text=True, cwd=cwd)
    return run.returncode, run.stdout.splitlines()


def test_unused_import_is_flagged(tmp_path):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Optional, List\n"
        "import json  # noqa: F401 - imported for its side effect\n"
        "\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return x\n")
    code, out = lint(tmp_path)
    assert code == 1
    assert [line.split(": ", 1)[1] for line in out[:-1]] == [
        "F401 `os` imported but unused",
        "F401 `typing.List` imported but unused"]
    assert out[-1].endswith("not checked without ruff: "
                            "E1/E2/E4/E7/W/F7/F823")


def test_undefined_name_is_flagged(tmp_path):
    """A dropped import leaves its names unbound: in code and in an
    annotation the future import keeps out of the symbol table; a
    local, an enclosing function's, a ``global``-bound, a class-level
    and a builtin name are bound."""
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "__all__ = ['Record', 'missing']\n"
        "\n"
        "@dataclass(slots=True)\n"
        "class Record:\n"
        "    size: int = field(default=0)\n"
        "    limit = 3\n"
        "    double = limit * 2\n"
        "\n"
        "def outer(n: Sized) -> int:\n"
        "    global counter\n"
        "    counter = 1\n"
        "    def inner():\n"
        "        return n + counter + len([])\n"
        "    return inner() + [k for k in range(n)][0]\n")
    code, out = lint(tmp_path)
    assert code == 1
    assert [line.split(": ", 1)[1] for line in out[:-1]] == [
        "F822 Undefined name `missing` in `__all__`",
        "F821 Undefined name `dataclass`",
        "F821 Undefined name `field`",
        "F821 Undefined name `Sized`"]
    assert out[1].startswith(f"{tmp_path / 'm.py'}:4:2: ")


def test_misused_checks_are_flagged(tmp_path):
    """F631 asserts a non-empty tuple, F632 compares a str, bytes or
    number literal by identity, F633 is Python 2's ``print >>``; the
    empty tuple and ``is`` against None / True are fine."""
    (tmp_path / "m.py").write_text(
        "import sys\n"
        "x = len(sys.argv)\n"
        "assert (x, 'x must be set')\n"
        "assert ()\n"
        "ok = x is None or x is not True\n"
        "if x is 1 or x is not b'raw':\n"
        "    pass\n"
        "same = 'a' is x\n"
        "print >> sys.stderr, x\n")
    code, out = lint(tmp_path)
    assert code == 1
    assert [line.split(": ", 1)[1] for line in out[:-1]] == [
        "F631 Assert test is a non-empty tuple, which is always `True`",
        "F632 Use `==` to compare constant literals",
        "F632 Use `==` to compare constant literals",
        "F632 Use `==` to compare constant literals",
        "F633 Use of `>>` is invalid with `print` function"]
    assert [line.split(":")[1] for line in out[:-1]] == [
        "3", "6", "6", "8", "9"]


def test_reexport_is_not_flagged(tmp_path):
    (tmp_path / "api.py").write_text(
        "from os.path import join\n__all__ = ['join']\n")
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .impl import thing\n")
    assert lint(tmp_path)[0] == 0


def test_syntax_error_is_flagged(tmp_path):
    (tmp_path / "bad.py").write_text("def broken(:\n    pass\n")
    code, out = lint(tmp_path)
    assert code == 1
    assert out[0].startswith(f"{tmp_path / 'bad.py'}:1:")
    assert " E999 SyntaxError: " in out[0]


def test_the_tree_is_clean():
    assert lint("src", "tests", "benchmarks", "examples")[0] == 0
