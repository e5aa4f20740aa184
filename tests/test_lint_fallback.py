"""``scripts/lint_fallback.py`` (``make lint`` without ruff): an unused
module-level import is F401, a re-export is not, a file that does not
compile is E999 — and the live tree is clean under it."""

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
                            "E1/E2/E4/E7/W/F63/F7/F82")


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
