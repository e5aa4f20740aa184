#!/usr/bin/env python3
"""A/B the performance benchmark: the working tree against ``BASE``.

    python3 scripts/perf_compare.py BASE [--workload NAME] [--seeds 1 2 3]

(``make perf-compare BASE=<rev> [WORKLOAD=...] [SEEDS="1 2 3"]``.)
Checks ``BASE`` out into a temporary local ``git clone`` (hard-linked,
well under a second here; unlike ``git worktree add`` it writes nothing
into this repository's ``.git`` and works where worktrees are
unavailable), runs each tree's own ``benchmarks/perf/run.py --out``
once per seed — alternating which side goes first, so host drift lands
on both — and finishes with
``benchmarks/perf/compare.py`` over the two run lists; its exit status
(1 if any metric is worse than its bound) is this script's.  With two
or more seeds it then prints what a *claimed gain* is judged by
(docs/BENCHMARKS.md): per metric, the pairs head won, both medians and
the base's own quartile distance.  The clone is always removed.

Refuses (exit 2) when ``benchmarks/perf/`` or ``BENCHMARK.json`` differ
between the two trees: a comparison only means something when both
sides were measured by the same benchmark (docs/BENCHMARKS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: what must be identical on both sides
PINNED = ("benchmarks/perf", "BENCHMARK.json")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout


def benchmark_changes(base: str) -> list[str]:
    """Pinned paths that differ between ``base`` and the working tree
    (tracked edits and untracked additions alike)."""
    return (git("diff", "--name-only", base, "--", *PINNED).split()
            + git("ls-files", "--others", "--exclude-standard", "--",
                  *PINNED).split())


def print_pairs(base_out: str, head_out: str) -> None:
    """Seed-paired wins of head over base, per workload and end-to-end
    metric (ties count for neither side)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    runs = []
    for path in (base_out, head_out):
        with open(path) as fh:
            runs.append(sorted(json.load(fh),
                               key=lambda r: r["provenance"]["seed"]))
    print(f"{'workload':<20} {'metric':<20} {'head wins':>9} "
          f"{'base median':>12} {'head median':>12} {'base IQR':>10}")
    for workload in runs[0][0]["workloads"]:
        for metric in spec["end_to_end"]:
            a, b = ([r["workloads"][workload]["end_to_end"][metric["name"]]
                     for r in side] for side in runs)
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * y < sign * x for x, y in zip(a, b))
            q1, _q2, q3 = statistics.quantiles(a, n=4)
            print(f"{workload:<20} {metric['name']:<20} "
                  f"{wins:>6}/{len(a):<2} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {q3 - q1:>10.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="revision to compare against")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1],
                        help="one base/head pair of runs per seed")
    args = parser.parse_args(argv)

    try:
        # a sha: the clone has this repository's objects, not its
        # relative names (HEAD~1, a local branch)
        base_sha = git("rev-parse", "--verify",
                       args.base + "^{commit}").strip()
        changed = benchmark_changes(args.base)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.strip(), file=sys.stderr)     # unknown revision
        return 2
    if changed:
        print(f"refusing: the benchmark itself differs from {args.base} "
              f"({', '.join(changed)}); both sides must be measured by "
              f"the same benchmarks/perf and BENCHMARK.json",
              file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix="perf-compare-")
    trees = {"base": os.path.join(tmp, "tree"), "head": ROOT}
    outs = {side: os.path.join(tmp, f"{side}.json") for side in trees}
    extra = ["--workload", args.workload] if args.workload else []
    try:
        git("clone", "--quiet", "--no-checkout", ROOT, trees["base"])
        subprocess.run(["git", "checkout", "--quiet", "--detach", base_sha],
                       cwd=trees["base"], check=True)
        for i, seed in enumerate(args.seeds):
            for side in (("base", "head"), ("head", "base"))[i % 2]:
                print(f"== seed {seed}: {side}", flush=True)
                subprocess.run(
                    [sys.executable, "benchmarks/perf/run.py", "--seed",
                     str(seed), "--out", outs[side], *extra],
                    cwd=trees[side], check=True, stdout=subprocess.DEVNULL)
        status = subprocess.run(
            [sys.executable, "benchmarks/perf/compare.py", outs["base"],
             outs["head"]], cwd=ROOT).returncode
        if len(args.seeds) > 1:
            print_pairs(outs["base"], outs["head"])
        return status
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
