#!/usr/bin/env python3
"""Which ``src/repro`` functions does no CI command ever call?

``python3 scripts/traffic_map.py`` (~3.5 min; CI's ``unreached`` job
runs its ``--check``) runs every CI command but the test suites — the
six gate sweeps in write mode, then in ``--check`` mode against the
documents that write just produced, smoke's two ``cli trace`` cases,
``benchmarks/perf/run.py --smoke``, the ``make fuzz`` command, the
``repro.lint`` analyzer and ``registry-doc`` / ``bench-doc --check`` —
and every ``examples/*.py``, one worker each (a forked pool worker
never runs ``atexit``; ``REPRO_SWEEP_WORKERS=1``), under a ``sys.setprofile`` hook in every
interpreter they start (a ``sitecustomize`` on ``PYTHONPATH``).  It
lists each ``def`` under ``src/repro`` none of them entered: reached by
tests only, or by nothing (docs/BENCHMARKS.md).  Two counts close the
output: on the CI traffic, and on the old traffic (the write-mode
sweeps, perf smoke, the fuzzer and the examples) the map read before
it had a ratchet.

The ``--check`` sweep reads the map's own documents, not
``benchmarks/results/``: the profile hook slows a sweep several-fold,
so against the committed baselines the host-time band of ``diff_docs``
could fail a run with nothing changed; profiled against profiled it
holds, and the same functions are entered.  ``make bench-gate`` stays
the one comparison with the committed baselines.

The CI list is committed as ``docs/unreached.txt``, one
``path:line: name  reason`` line per function (``name`` dotted through
its classes and enclosing functions; ``reason`` one word of
:data:`REASONS`):

    python3 scripts/traffic_map.py --check   # make unreached
    python3 scripts/traffic_map.py --write   # regenerate, reasons kept

``--check`` exits non-zero on a newly unreached function, a stale line
(the function is reached or gone) or an unknown reason; a line's number
is where to look, not part of its identity.  ``--write`` keeps every
surviving line's reason and gives a new one ``?``, which ``--check``
rejects until a word replaces it.  Stdlib only.
"""

import argparse
import ast
import glob
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LISTING = os.path.join(ROOT, "docs", "unreached.txt")
HOOK = '''\
import atexit, os, sys
seen = set()
def prof(frame, event, arg):
    code = frame.f_code
    if event == "call" and "/src/repro/" in code.co_filename:
        seen.add((code.co_filename, code.co_firstlineno))
sys.setprofile(prof)
out = os.path.join(os.environ["TRAFFIC_MAP_DIR"], f"{os.getpid()}.txt")
atexit.register(lambda: open(out, "w").write(repr(seen)))
'''
CLI = ["-m", "repro.bench.cli"]
#: what the map ran before it had a ratchet (its counts stay comparable)
OLD_TRAFFIC = [
    CLI + ["sweep", "--workers", "1", "--results-dir", "{tmp}/sweep"],
    ["benchmarks/perf/run.py", "--smoke"],
    ["-m", "repro.chaos.fuzz", "--budget", "200", "--seed", "1",
     "--workers", "1", "--artifacts", "{tmp}/chaos"],
] + [[path] for path in sorted(glob.glob(f"{ROOT}/examples/*.py"))]
#: the rest of the CI commands (Makefile: smoke, bench-gate, lint-deep,
#: docs-check)
CI_TRAFFIC = [
    # against OLD_TRAFFIC's documents; workers: REPRO_SWEEP_WORKERS
    CLI + ["sweep", "--check", "--results-dir", "{tmp}/sweep"],
    CLI + ["trace", "deep-fabric", "trunk-hier[fabric=tree:2x2x2,op=bcast]",
           "--output", "{tmp}/trace"],
    CLI + ["trace", "segmented-bcast",
           "frames[impl=seg-fixed,loss=induced,size=12000]",
           "--output", "{tmp}/trace-flat"],
    ["-m", "repro.lint", "src", "tests", "benchmarks", "examples"],
    CLI + ["registry-doc", "--check"],
    CLI + ["bench-doc", "--check"],
]
#: why a function may stay unreached — the one word each line ends with
REASONS = {
    "test-probe": "an accessor or hook only tests read",
    "api": "public API no CI command calls",
    "debug": "a repr, dump or diagnostic read by hand",
    "protocol": "a protocol branch CI traffic never takes (loss, "
                "timeout, a rare shape)",
    "safety": "a guard that raises on misuse",
    "by-hand": "code of a command run by hand, not in CI",
}
LINE = re.compile(r"(\S+):(\d+): (\S+)  (\S+)")


def defined_functions():
    """``{(file, first line): dotted name}`` of every ``def`` under
    ``src/repro`` (first line as ``co_firstlineno`` has it: the first
    decorator's)."""
    out = {}
    for path in glob.glob(f"{SRC}/repro/**/*.py", recursive=True):
        with open(path) as fh:
            stack = [(ast.parse(fh.read()), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        first = min(n.lineno
                                    for n in [child, *child.decorator_list])
                        out[path, first] = name
                    name += "."
                stack.append((child, name))
    return out


def trace(commands, tmp):
    """The ``(file, first line)`` set every command entered."""
    called = set()
    for args in commands:
        dumps = tempfile.mkdtemp(dir=tmp)
        env = dict(os.environ, TRAFFIC_MAP_DIR=dumps, REPRO_SANITIZE="1",
                   REPRO_SWEEP_WORKERS="1",
                   PYTHONPATH=os.pathsep.join([tmp, SRC]))
        cmd = [sys.executable] + [arg.format(tmp=tmp) for arg in args]
        print("+", *cmd, file=sys.stderr)
        subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        for dump in glob.glob(os.path.join(dumps, "*.txt")):
            with open(dump) as fh:
                called |= ast.literal_eval(fh.read())
    return called


def read_listing(text):
    """``[(path, name, reason)]`` of a ``docs/unreached.txt``."""
    entries = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        m = LINE.fullmatch(line)
        if m is None:
            raise ValueError(f"docs/unreached.txt:{n}: not "
                             f"'path:line: name  reason': {line!r}")
        path, _line, name, reason = m.groups()
        entries.append((path, name, reason))
    return entries


def ratchet(entries, unreached):
    """What ``--check`` fails on, given the listing's entries and the
    ``(path, name)`` pairs this run left unreached: an empty list
    passes."""
    listed = Counter((path, name) for path, name, _reason in entries)
    now = Counter(unreached)
    return ([f"newly unreached: {p}: {n}"
             for p, n in sorted((now - listed).elements())]
            + [f"stale (reached or gone): {p}: {n}"
               for p, n in sorted((listed - now).elements())]
            + [f"unknown reason {r!r}: {p}: {n}"
               for p, n, r in entries if r not in REASONS])


def render_listing(rows, reasons):
    """``docs/unreached.txt`` for ``rows`` ``[(path, line, name)]``,
    each line's reason looked up by ``(path, name)`` (``?`` if new)."""
    head = ["# src/repro functions no CI command enters (tier-1 aside):",
            "# `make unreached` (scripts/traffic_map.py --check) fails on a",
            "# newly unreached function or a stale line; `--write`",
            "# regenerates the file, keeping each surviving line's reason.",
            "# One line per function: path:line: name  reason.  Reasons:"]
    head += [f"#   {word:<10}  {text}" for word, text in REASONS.items()]
    return "\n".join(head + [
        f"{path}:{line}: {name}  {reasons.get((path, name), '?')}"
        for path, line, name in rows]) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="hold the run to docs/unreached.txt")
    mode.add_argument("--write", action="store_true",
                      help="rewrite docs/unreached.txt, reasons kept")
    opts = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "sitecustomize.py"), "w") as fh:
            fh.write(HOOK)
        old = trace(OLD_TRAFFIC, tmp)
        ci = old | trace(CI_TRAFFIC, tmp)
    functions = defined_functions()
    rows = [(os.path.relpath(path, ROOT), line, functions[path, line])
            for path, line in sorted(set(functions) - ci)]
    entries = []
    if os.path.exists(LISTING):
        with open(LISTING) as fh:
            entries = read_listing(fh.read())
    if opts.write:
        with open(LISTING, "w") as fh:
            fh.write(render_listing(
                rows, {(p, n): r for p, n, r in entries}))
    elif not opts.check:
        for path, line, name in rows:
            print(f"{path}:{line}: {name}")
    print(f"{len(rows)} of {len(functions)} functions never called by a "
          f"CI command; {len(set(functions) - old)} by the old traffic "
          f"(sweeps, benchmarks/perf --smoke, the fuzzer, the examples)")
    if opts.check:
        problems = ratchet(entries, [(p, n) for p, _line, n in rows])
        for problem in problems:
            print(problem)
        sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
