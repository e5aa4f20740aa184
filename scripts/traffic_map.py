#!/usr/bin/env python3
"""Which ``src/repro`` functions does no gated traffic ever call?

``python3 scripts/traffic_map.py`` (~2 min, by hand) runs the six gate
sweeps, ``benchmarks/perf/run.py --smoke``, the ``make fuzz`` command
and every ``examples/*.py`` — one worker each: a forked pool worker
never runs ``atexit`` — under a ``sys.setprofile`` hook in every
interpreter they start (a ``sitecustomize`` on ``PYTHONPATH``), and
lists each ``def`` under ``src/repro`` none of them entered: reached by
tests only, or by nothing (docs/BENCHMARKS.md).  Stdlib only.
"""

import ast
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
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
TRAFFIC = [
    ["-m", "repro.bench.cli", "sweep", "--workers", "1",
     "--results-dir", "{tmp}/sweep"],
    ["benchmarks/perf/run.py", "--smoke"],
    ["-m", "repro.chaos.fuzz", "--budget", "200", "--seed", "1",
     "--workers", "1", "--artifacts", "{tmp}/chaos"],
] + [[path] for path in sorted(glob.glob(f"{ROOT}/examples/*.py"))]


def defined_functions():
    """``{(file, first line): name}`` of every ``def`` under ``src/repro``
    (first line as ``co_firstlineno`` has it: the first decorator's)."""
    out = {}
    for path in glob.glob(f"{SRC}/repro/**/*.py", recursive=True):
        with open(path) as fh:
            nodes = ast.walk(ast.parse(fh.read()))
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(n.lineno for n in [node, *node.decorator_list])
                out[path, first] = node.name
    return out


def main():
    called = set()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "sitecustomize.py"), "w") as fh:
            fh.write(HOOK)
        env = dict(os.environ, TRAFFIC_MAP_DIR=tmp, REPRO_SANITIZE="1",
                   PYTHONPATH=os.pathsep.join([tmp, SRC]))
        for args in TRAFFIC:
            cmd = [sys.executable] + [arg.format(tmp=tmp) for arg in args]
            print("+", *cmd, file=sys.stderr)
            subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        for dump in glob.glob(os.path.join(tmp, "*.txt")):
            with open(dump) as fh:
                called |= ast.literal_eval(fh.read())
    functions = defined_functions()
    idle = sorted(set(functions) - called)
    for path, line in idle:
        print(f"{os.path.relpath(path, SRC)}:{line}: {functions[path, line]}")
    print(f"{len(idle)} of {len(functions)} functions never called by the "
          f"sweeps, benchmarks/perf --smoke, the fuzzer or the examples")


if __name__ == "__main__":
    main()
