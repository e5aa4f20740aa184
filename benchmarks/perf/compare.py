"""Compare two sets of runs: ``compare.py A.json B.json``.

Each file is what ``run.py --out FILE`` appends to: a JSON list of run
documents (run it several times, ideally alternating the two sides, to
give each side a spread).  One row per workload x end-to-end metric:
both medians, the change in the *worse* direction, the regression bound
from ``BENCHMARK.json`` and a verdict:

``ok``          within the bound
``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the bound
``unresolved``  a side's own run-to-run spread (quartile distance over
                median) exceeds the bound, and the runs of the two
                sides overlap — more runs are needed, not a wider bound

When both sides ran the same seeds, the metrics that repeat exactly
(simulated cost and call counts) are held to a bound of zero: they must
match bit for bit, seed by seed.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

import metrics


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return abs(q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, bound: float, lower_is_better: bool) -> tuple:
    """``(verdict, worse_by)`` for run values ``a`` (base) and ``b``."""
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound > 0:
        # too noisy for the medians to speak: only a clean separation
        # of every run of one side from every run of the other counts
        if sign * min(b) > sign * max(a) and worse_by > bound:
            return "worse", worse_by
        if sign * max(b) < sign * min(a):
            return "better", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "ok", worse_by


def compare(runs_a: list, runs_b: list, spec: dict) -> list:
    """Rows ``(workload, metric, med_a, med_b, worse_by, bound,
    verdict)`` for every workload and end-to-end metric both sides have.
    """
    def seeds(runs):
        return sorted(r["provenance"]["seed"] for r in runs)

    def values(runs, workload, metric):
        return [r["workloads"][workload]["end_to_end"][metric]
                for r in sorted(runs,
                                key=lambda r: r["provenance"]["seed"])
                if "end_to_end" in r["workloads"].get(workload, {})]

    same_seeds = seeds(runs_a) == seeds(runs_b)
    rows = []
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = values(runs_a, w["name"], m["name"])
            b = values(runs_b, w["name"], m["name"])
            if not a or not b:
                continue
            lower = m["better"] == "lower"
            exact = same_seeds and m["name"] in metrics.EXACT
            bound = 0.0 if exact else m["bound"]
            word, worse_by = verdict(a, b, bound, lower)
            if exact and word == "ok" and a != b:
                word = "worse"      # same medians, but not bit for bit
            rows.append((w["name"], m["name"], statistics.median(a),
                         statistics.median(b), worse_by, bound, word))
    return rows


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fa, open(argv[2]) as fb:
        runs_a, runs_b = json.load(fa), json.load(fb)
    rows = compare(runs_a, runs_b, metrics.load_spec())
    print(f"{'workload':<20} {'metric':<20} {'A':>14} {'B':>14} "
          f"{'worse by':>9} {'bound':>7}  verdict")
    for name, metric, a, b, worse_by, bound, word in rows:
        print(f"{name:<20} {metric:<20} {a:>14.6g} {b:>14.6g} "
              f"{worse_by:>+9.2%} {bound:>7.1%}  {word}")
    print(f"{len(runs_a)} run(s) in A, {len(runs_b)} in B")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
