"""The benchmark's one command.

``python3 benchmarks/perf/run.py`` runs every workload untraced for the
end-to-end metrics, then one short traced set of passes per workload
for the layer ledger, checks every collective's output and prints every
metric by name with unit, direction and regression bound.  The driver
form ``--workload NAME --seed N --seconds S --trace 0|1`` runs one
workload in one mode; either way the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed``, ``metrics``.

Run hygiene: every pass is a fresh subprocess (``child.py``), passes run
strictly one at a time, passes of different workloads interleave
round-robin so a slow spell of the host lands on all of them, and the
children never see a ``REPRO_``-prefixed environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import metrics
from workloads import WORKLOADS, blank_pass, smoke

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: host-time ceiling of one pass subprocess; a pass that outlives it is
#: killed and all its ops count as failed
PASS_TIMEOUT_S = 60.0


def child_env() -> dict:
    """The parent's environment minus every ``REPRO_`` switch, so no
    stray debugging knob (tracing, sanitizing, backend choice) can
    change what a pass measures."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    # one hash seed for every pass: str-keyed dict and set layouts (and
    # with them a few percent of host time) otherwise differ per process
    env["PYTHONHASHSEED"] = "0"
    return env


def launch_subprocess(spec: dict) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=child_env(), capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"timed_out": True}
    if proc.returncode != 0:
        raise RuntimeError(
            f"pass {spec} crashed (exit {proc.returncode}):\n"
            f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class WorkloadRun:
    """The passes of one workload in one run, and their results."""

    def __init__(self, workload, seed: int, is_smoke: bool, launch):
        self.w = workload
        self.seed = seed
        self.smoke = is_smoke
        self.launch = launch
        self.untraced: list = []
        self.spent_s = 0.0
        self.traced: dict = {}
        self.timed_out = False

    def _pass(self, pass_index, cycles, recorder=None, **flags) -> dict:
        spec = {"workload": self.w.name, "seed": self.seed,
                "pass_index": pass_index, "cycles": cycles,
                "recorder": self.w.recorder if recorder is None
                else recorder,
                "smoke": self.smoke, **flags}
        t0 = time.perf_counter()
        result = self.launch(spec)
        self.spent_s += time.perf_counter() - t0
        if result.get("timed_out"):
            # nothing came back: every op of the pass counts as failed
            self.timed_out = True
            ops = cycles * self.w.ops_per_cycle * len(self.w.legs)
            result = blank_pass(ops, failed=ops)
            result["errors"].append("host timeout")
        return result

    def wants_untraced(self, seconds: float) -> bool:
        done = len(self.untraced)
        if done < self.w.exact_passes:
            return True
        if self.timed_out:
            return False
        return self.spent_s + self.spent_s / done <= seconds

    def run_untraced(self):
        self.untraced.append(
            self._pass(len(self.untraced), self.w.cycles))

    def run_profiled(self):
        self.traced["profiled"] = self._pass(
            0, self.w.traced_cycles, profile=True)

    def run_ledger(self):
        cycles = self.w.traced_cycles
        self.traced["setup"] = self._pass(0, 0)
        self.traced["native"] = self._pass(0, cycles, gc_timer=True)
        self.traced["flipped"] = self._pass(
            0, cycles, recorder=not self.w.recorder)

    # -- results ---------------------------------------------------------
    def passes(self) -> list:
        return self.untraced + list(self.traced.values())

    def attempted(self) -> int:
        return sum(p["ops"] for p in self.passes())

    def failed(self) -> int:
        return sum(p["failed"] for p in self.passes())

    def errors(self) -> list:
        return [e for p in self.passes() for e in p["errors"]]

    def end_to_end(self) -> dict:
        return metrics.end_to_end(self.w, self.untraced,
                                  self.traced["profiled"])

    def per_layer(self) -> dict:
        t = self.traced
        return metrics.per_layer(self.w, t["setup"], t["native"],
                                 t["flipped"], t["profiled"])

    def host_info(self) -> dict:
        walls = [x for p in self.untraced for x in p["op_wall_s"]]
        spins = [x for p in self.untraced for x in p["op_spin_s"]]
        wall = sum(p["probe_wall_s"] for p in self.untraced)
        cpu = sum(p["cpu_s"] for p in self.untraced)
        return {"passes": len(self.untraced), "host_samples": len(walls),
                "measured_wall_s": wall, "measured_cpu_s": cpu,
                "raw_ms_per_op": (1e3 * statistics.fmean(walls)
                                  if walls else 0.0),
                "spin_ms_median": (1e3 * statistics.median(spins)
                                   if spins else 0.0),
                "noisy_host": bool(cpu) and wall / cpu > 1.05}


def measure(names, seed: int, seconds: float, trace, is_smoke=False,
            launch=None) -> dict:
    """Run the named workloads; ``trace`` is 0 (end-to-end only), 1
    (layer ledger only) or None (both).  ``launch`` runs one pass spec
    (default: :func:`launch_subprocess`; the smoke test runs passes
    in-process).  Returns ``{name: WorkloadRun}``.
    """
    launch = launch or launch_subprocess
    runs = {}
    for name in names:
        workload = smoke(WORKLOADS[name]) if is_smoke else WORKLOADS[name]
        runs[name] = WorkloadRun(workload, seed, is_smoke, launch)
    if trace != 1:
        while any(r.wants_untraced(seconds) for r in runs.values()):
            for r in runs.values():
                if r.wants_untraced(seconds):
                    r.run_untraced()
    for r in runs.values():
        r.run_profiled()
        if trace != 0:
            r.run_ledger()
    return runs


def cross_check(runs: dict) -> list:
    """Oracle checks that span passes; returns the failures as text."""
    problems = []
    plain, traced = runs.get("fabric-bcast"), runs.get("fabric-bcast-traced")
    if plain and traced and plain.untraced and traced.untraced:
        # the recorder's hooks may schedule nothing and send nothing:
        # same seed, same program, so op for op the same simulation
        a, b = plain.end_to_end(), traced.end_to_end()
        for key in metrics.EXACT:
            if key != "py_calls_per_op" and a[key] != b[key]:
                problems.append(
                    f"fabric-bcast-traced {key}={b[key]!r} differs from "
                    f"fabric-bcast {a[key]!r}: tracing changed the "
                    f"simulation")
    for name, r in runs.items():
        if "setup" in r.traced:
            ledger = r.per_layer()
            shares = sum(ledger[f"{layer}.self_share"]
                         for layer in metrics.LAYERS)
            if abs(shares - 1.0) > 1e-6:
                problems.append(f"{name}: self_share sums to {shares}")
    return problems


def provenance(seed: int, seconds: float, runs: dict) -> dict:
    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES":
                                 str(ROOT.parent)}).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""
    commit = git("rev-parse", "HEAD") or None
    return {"commit": commit,
            "dirty": bool(git("status", "--porcelain")) if commit else None,
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "seconds": seconds,
            "hosts": {name: r.host_info() for name, r in runs.items()},
            "noisy_host": any(r.host_info()["noisy_host"]
                              for r in runs.values())}


def document(runs, seed, seconds, trace, problems) -> dict:
    doc = {"schema": "repro.perf/v1",
           "provenance": provenance(seed, seconds, runs),
           "problems": problems, "workloads": {}}
    for name, r in runs.items():
        entry = {"attempted": r.attempted(), "failed": r.failed(),
                 "errors": r.errors()}
        if trace != 1:
            entry["end_to_end"] = r.end_to_end()
        if trace != 0:
            entry["per_layer"] = r.per_layer()
        doc["workloads"][name] = entry
    return doc


def print_table(doc: dict, spec: dict) -> None:
    for name, entry in doc["workloads"].items():
        print(f"== {name}: {entry['attempted']} ops attempted, "
              f"{entry['failed']} failed")
        for err in entry["errors"]:
            print(f"   error: {err}")
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind] if kind in entry else ():
                bound = f", bound {m['bound']:.1%}" if "bound" in m else ""
                print(f"   {m['name']:<36}{entry[kind][m['name']]:>16.6g} "
                      f"{m['unit']:<8} {m['better']} is better{bound}")
    for problem in doc["problems"]:
        print(f"!! {problem}")
    prov = doc["provenance"]
    print(f"-- commit {prov['commit']} dirty={prov['dirty']} "
          f"python {prov['python']} nproc {prov['nproc']} "
          f"seed {prov['seed']} noisy_host={prov['noisy_host']}")


def result_line(doc: dict, spec: dict) -> dict:
    """The driver's contract: one JSON object, metrics by name (prefixed
    ``workload:`` when the run covered more than one workload)."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    out = {}
    many = len(doc["workloads"]) > 1
    for name, entry in doc["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            for key, value in entry.get(kind, {}).items():
                out[f"{name}:{key}" if many else key] = {
                    "value": value, "unit": units[key]}
    attempted = sum(e["attempted"] for e in doc["workloads"].values())
    failed = sum(e["failed"] for e in doc["workloads"].values())
    return {"correct": failed == 0 and not doc["problems"],
            "attempted": attempted, "failed": failed, "metrics": out}


def append_run(path: pathlib.Path, doc: dict) -> None:
    """A result file is a JSON list of runs; ``--out`` appends to it so
    ``compare.py`` can take medians over a set of runs."""
    runs = json.loads(path.read_text()) if path.exists() else []
    runs.append(doc)
    path.write_text(json.dumps(runs, indent=1) + "\n")


def main(argv=None) -> int:
    spec = metrics.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, interleaved)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="host-time budget of each workload's untraced "
                         "passes")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics only; 1: layer ledger "
                         "only (default: both)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny fabrics, one pass (the tier-1 test scale)")
    ap.add_argument("--out", type=pathlib.Path,
                    help="append the full result document to this file")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: the benchmark runs "
              f"the program from source", file=sys.stderr)
        return 2

    chosen = [args.workload] if args.workload else names
    runs = measure(chosen, args.seed, args.seconds, args.trace,
                   is_smoke=args.smoke)
    doc = document(runs, args.seed, args.seconds, args.trace,
                   cross_check(runs))
    declared = {"end_to_end": [m["name"] for m in spec["end_to_end"]],
                "per_layer": [m["name"] for m in spec["per_layer"]]}
    for name, entry in doc["workloads"].items():
        for kind, wanted in declared.items():
            if kind in entry and sorted(entry[kind]) != sorted(wanted):
                raise SystemExit(
                    f"{name}: {kind} metrics differ from BENCHMARK.json: "
                    f"{sorted(set(entry[kind]) ^ set(wanted))}")
    print_table(doc, spec)
    if args.out:
        append_run(args.out, doc)
    print(json.dumps(result_line(doc, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
