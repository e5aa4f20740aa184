"""``scripts/loc_code.py`` (the code-only line of ``make loc``) on a
two-revision git repository: blanks, comments and docstrings are not
code, a one-line ``def`` with a docstring still is, and a deleted
comment leaves the count where it was."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "loc_code.py"

BASE = '''\
"""Module docstring,
two lines."""

import os  # a trailing comment does not hide the code


# a comment-only line
def f(x):
    """Docstring."""
    s = """a multi-line
    string value"""
    return s


def g(): """one-liner"""
'''

# the comment goes, the docstring is reworded, one statement is added
HEAD = '''\
"""Another module docstring."""

import os  # a trailing comment does not hide the code


def f(x):
    """Docstring,
    reworded over two lines."""
    s = """a multi-line
    string value"""
    y = x
    return s


def g(): """one-liner"""
'''


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=repo, check=True, capture_output=True)


def test_code_only_count_at_base_and_in_the_worktree(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    git(tmp_path, "init", "-q")
    (pkg / "m.py").write_text(BASE)
    (pkg / "notes.txt").write_text("not python\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "base")
    (pkg / "m.py").write_text(HEAD)
    (pkg / "new.py").write_text("x = 1\n\n\n# end\n")   # untracked

    out = subprocess.run([sys.executable, str(SCRIPT), "HEAD", "src"],
                         cwd=tmp_path, check=True, capture_output=True,
                         text=True).stdout
    # base: import, def f, s (2 lines), return, def g -> 6
    # now:  the same 6, ``y = x`` and new.py's ``x = 1`` -> 8
    assert out.split() == ["src", "code:", "6", "->", "8", "(+2)"]


def test_a_base_that_is_no_revision_is_one_line_and_exit_2(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "m.py").write_text("x = 1\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "base")
    for args, line in ((["typo"], "loc_code.py: unknown revision 'typo'"),
                       (["--help"], "usage: loc_code.py BASE [DIR ...]")):
        run = subprocess.run([sys.executable, str(SCRIPT), *args],
                             cwd=tmp_path, capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (2, "",
                                                             line + "\n")
