"""Seeded property fuzzer: random topology x scenario x op x payload.

``python -m repro.chaos.fuzz --budget N --seed S`` generates ``N``
cases, each fully determined by ``(S, index)``: the case parameters
come from a CRC-derived per-case RNG (so case *i* is the same no matter
the budget, the worker count, or which other cases ran), and the
simulation itself is seeded from the case.  Every case asserts the
universal postcondition:

* **completes** → every rank's return value matches a pure-python
  oracle byte for byte, the cluster quiesces (no leaked descriptors,
  consistent membership ledgers) and tears down to nothing; or
* **fails crisply** → a typed error (:class:`~repro.core.rounds
  .McastLost`, :class:`~repro.simnet.kernel.DeadlockError`,
  :class:`~repro.simnet.fabric.PartitionError`) on a scenario that is
  allowed to fail, a flight-recorder hang dump is captured, and after
  healing the injected faults the forced teardown still leaks nothing.

Anything else — a hang at the deadline, an untyped exception, an
oracle mismatch, a leak — is a violation: the fuzzer prints the
``(seed, case-key)`` and a one-line repro command, optionally writes
the dump to ``--artifacts``, and exits non-zero.  Records carry CRCs
of the stats snapshot and the failure artifact, so replay determinism
is checkable bit for bit (``tests/test_chaos.py`` does exactly that,
across reruns and worker counts).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import multiprocessing
import os
import random
import sys
import zlib
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..core.rounds import McastLost
from ..mpi.ops import SUM
from ..obs.hang import build_hang_dump
from ..obs.trace import FlightRecorder
from ..runtime.program import run_spmd
from ..runtime.sanitize import (LeakError, check_quiesced, forced_teardown,
                                full_teardown)
from ..simnet.calibration import FAST_ETHERNET_SWITCH
from ..simnet.fabric import PartitionError, parse_topology
from ..simnet.kernel import DeadlockError
from .scenarios import get, names

__all__ = ["Case", "make_case", "build_program", "run_case", "run_fuzz",
           "repro_command", "verdict_lines", "DEADLINE_US", "PROFILES"]

#: sim-time budget per case; reaching it with live ranks is a hang
DEADLINE_US = 30_000_000.0

#: the only exceptions that count as "failing crisply"
TYPED_ERRORS = (McastLost, DeadlockError, PartitionError)

OPS = ("bcast", "barrier", "reduce", "allreduce", "gather", "scatter",
       "allgather")

#: payload sizes (bytes); gather-family ops are capped below
SIZES = (16, 200, 1460, 4096, 9000, 20000)

TREES = ("tree:2x2", "tree:2x3", "tree:3x2", "tree:2x2x2", "tree:[3,2,2]")

PROFILES = {
    "mcast": {"bcast": "mcast-seg-nack", "barrier": "mcast",
              "reduce": "mcast-seg-combine", "allreduce": "mcast-seg-nack",
              "gather": "mcast-seg-root-follow",
              "scatter": "mcast-seg-root", "allgather": "mcast-seg-paced"},
    "auto": {"bcast": "auto", "barrier": "mcast", "reduce": "auto",
             "allreduce": "auto", "gather": "auto", "scatter": "auto",
             "allgather": "auto"},
    "hier": {op: "hier-mcast" for op in OPS},
    # None -> registry defaults: the pure point-to-point baseline
    "p2p": None,
}


@dataclass(frozen=True)
class Case:
    """One fuzz case, fully determined by ``(base seed, index)``."""

    index: int
    scenario: str
    topology: str
    n: int
    op: str
    profile: str
    size: int
    root: int
    sim_seed: int

    @property
    def key(self) -> str:
        return (f"{self.scenario}/{self.op}/{self.profile}/"
                f"{self.topology}/n{self.n}/sz{self.size}/r{self.root}/"
                f"i{self.index}")


def _case_rng(base_seed: int, index: int) -> random.Random:
    tag = f"repro-chaos:{base_seed}:{index}".encode()
    return random.Random(zlib.crc32(tag) + (base_seed << 32))


def make_case(base_seed: int, index: int,
              scenario: Optional[str] = None) -> Case:
    """Case ``index`` of the run seeded ``base_seed`` — independent of
    the budget and of every other case, which is what makes a single
    printed ``(seed, index)`` replayable in isolation."""
    rng = _case_rng(base_seed, index)
    scenario_names = names()
    # round-robin over scenarios so any budget >= len(SCENARIOS)
    # exercises all of them; the rest of the case is drawn randomly
    name = scenario if scenario is not None \
        else scenario_names[index % len(scenario_names)]
    spec = get(name)
    topo = rng.choice(TREES) if spec.needs_fabric \
        else rng.choice(("switch",) + TREES)
    n = parse_topology(topo).n if topo != "switch" else rng.randrange(4, 9)
    op = rng.choice(OPS)
    if topo == "switch":
        profile = rng.choice(("mcast", "mcast", "auto", "p2p"))
    else:
        profile = rng.choice(("mcast", "mcast", "hier", "auto", "p2p"))
    size = rng.choice(SIZES)
    if op in ("gather", "scatter", "allgather"):
        size = min(size, 6000)
    return Case(index=index, scenario=name, topology=topo, n=n, op=op,
                profile=profile, size=size, root=rng.randrange(n),
                sim_seed=rng.randrange(2 ** 31))


# ------------------------------------------------------------- oracle
def payload(case: Case, rank: int) -> bytes:
    """Rank ``rank``'s deterministic contribution bytes."""
    prng = random.Random((case.sim_seed * 1_000_003) ^ (rank + 1))
    return prng.randbytes(case.size)


def _digest(value) -> str:
    data = value if isinstance(value, bytes) else str(value).encode()
    return hashlib.sha1(data).hexdigest()[:16]


def _op_program(case: Case) -> Tuple:
    """The rank program running one collective, plus the expected
    per-rank return values (the pure-python oracle)."""
    n, root = case.n, case.root

    if case.op == "bcast":
        blob = payload(case, root)

        def op_main(env):
            data = blob if env.rank == root else None
            out = yield from env.comm.bcast(data, root=root)
            return _digest(out)

        expect = [_digest(blob)] * n

    elif case.op == "barrier":

        def op_main(env):
            yield from env.comm.barrier()
            yield from env.comm.barrier()
            return "ok"

        expect = ["ok"] * n

    elif case.op == "reduce":
        vals = [((case.sim_seed >> 3) + 7 * r) % 99_991 for r in range(n)]
        total = _digest(sum(vals))

        def op_main(env):
            out = yield from env.comm.reduce(vals[env.rank], SUM,
                                             root=root)
            return _digest(out) if env.rank == root else "non-root"

        expect = [total if r == root else "non-root" for r in range(n)]

    elif case.op == "allreduce":
        vals = [((case.sim_seed >> 3) + 7 * r) % 99_991 for r in range(n)]
        total = _digest(sum(vals))

        def op_main(env):
            out = yield from env.comm.allreduce(vals[env.rank], SUM)
            return _digest(out)

        expect = [total] * n

    elif case.op == "gather":
        gathered = _digest(b"".join(payload(case, r) for r in range(n)))

        def op_main(env):
            out = yield from env.comm.gather(payload(case, env.rank),
                                             root=root)
            if env.rank == root:
                return _digest(b"".join(out))
            return "non-root"

        expect = [gathered if r == root else "non-root" for r in range(n)]

    elif case.op == "scatter":
        parts = [payload(case, r) for r in range(n)]

        def op_main(env):
            objs = parts if env.rank == root else None
            out = yield from env.comm.scatter(objs, root=root)
            return _digest(out)

        expect = [_digest(parts[r]) for r in range(n)]

    elif case.op == "allgather":
        gathered = _digest(b"".join(payload(case, r) for r in range(n)))

        def op_main(env):
            out = yield from env.comm.allgather(payload(case, env.rank))
            return _digest(b"".join(out))

        expect = [gathered] * n

    else:
        raise ValueError(f"no oracle for op {case.op!r}")

    return op_main, expect


def build_program(case: Case) -> Tuple:
    """``(main, expected_returns)`` for the case; churn scenarios wrap
    the op in a dup / sub-communicator bcast / free cycle."""
    op_main, expect = _op_program(case)
    if not get(case.scenario).churn:
        return op_main, expect

    def main(env):
        first = yield from op_main(env)
        sub = yield from env.comm.dup()
        token = yield from sub.bcast("churn" if sub.rank == 0 else None,
                                     root=0)
        sub.free()
        second = yield from op_main(env)
        return _digest(f"{first}|{token}|{second}")

    return main, [_digest(f"{e}|churn|{e}") for e in expect]


# ------------------------------------------------------------ running
def _params_for(case: Case):
    # may-fail scenarios get a tight repair budget so a partitioned
    # follower aborts after a few rounds instead of orbiting the
    # deadline; benign scenarios get headroom to actually recover
    spec = get(case.scenario)
    return replace(FAST_ETHERNET_SWITCH,
                   max_repair_rounds=3 if spec.may_fail else 8)


def repro_command(base_seed: int, case: Case) -> str:
    return (f"PYTHONPATH=src python -m repro.chaos.fuzz "
            f"--seed {base_seed} --case {case.index}")


def _crc(obj) -> int:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return zlib.crc32(blob)


def run_case(case: Case, base_seed: int = 0,
             artifacts_dir: Optional[str] = None) -> dict:
    """Run one case end to end and return its deterministic record.

    The record never contains host-machine state (no wall times, no
    raw frame ids): reruns of the same ``(seed, index)`` — in any
    process, under any worker count — produce an equal record.
    """
    spec = get(case.scenario)
    inj_rng = random.Random(case.sim_seed ^ 0x5EEDC4A0)
    recorder = FlightRecorder()
    heals: list = []

    def on_cluster(cluster):
        recorder.attach(cluster)
        if spec.inject is not None:
            heals.extend(spec.inject(cluster, inj_rng))

    skew = spec.make_skew(random.Random(case.sim_seed ^ 0x0B5C), case.n) \
        if spec.make_skew else None
    main, expect = build_program(case)

    violations: List[str] = []
    error = None
    artifact = None
    outcome = "completed"
    result = None
    try:
        result = run_spmd(case.n, main, topology=case.topology,
                          params=_params_for(case), seed=case.sim_seed,
                          skew=skew, collectives=PROFILES[case.profile],
                          max_sim_us=DEADLINE_US, on_cluster=on_cluster,
                          strict_deadlock=True)
        cluster, world = result.cluster, result.world
    except TYPED_ERRORS as exc:
        error = exc
        outcome = "failed-crisp"
        cluster = getattr(exc, "repro_cluster", None)
        world = getattr(exc, "repro_world", None)
    except Exception as exc:  # the postcondition under test: no other
        error = exc           # exception type may ever escape a run
        outcome = "untyped-error"
        cluster = getattr(exc, "repro_cluster", None)
        world = getattr(exc, "repro_world", None)
        violations.append(
            f"untyped error escaped: {type(exc).__name__}: {exc}")

    if cluster is None or world is None:
        violations.append("failure carries no repro_cluster/repro_world")
        return _record(case, outcome, error, None, None, violations)

    stats_snapshot = cluster.stats.snapshot()

    if error is None:
        live = sorted(name for name, daemon, _w in
                      cluster.sim.process_snapshot() if not daemon)
        if live:
            outcome = "hang"
            violations.append(
                f"deadline hang at t={result.sim_time_us:.0f}us: "
                f"live processes {live}")
            artifact = recorder.hang_report \
                or build_hang_dump(cluster, "deadline")
        elif result.returns != expect:
            violations.append(
                f"oracle mismatch: returns={result.returns!r} "
                f"expected={expect!r}")
    else:
        # run_spmd parked the dump of a rank-program error under the
        # error's name; its deadlock dump is headed "deadlock" whichever
        # typed error it became, so that one is rebuilt under the name
        artifact = build_hang_dump(cluster, type(error).__name__) \
            if isinstance(error, (DeadlockError, PartitionError)) \
            else recorder.hang_report
        if isinstance(error, TYPED_ERRORS) and not spec.may_fail:
            violations.append(
                f"scenario {spec.name!r} must complete but failed: "
                f"{type(error).__name__}: {error}")

    # heal every injected fault *before* teardown: IGMP leaves must be
    # able to propagate for the ledger assertions to mean anything
    for heal in heals:
        heal()
    try:
        if error is None and outcome == "completed":
            check_quiesced(cluster)
            full_teardown(cluster, world)
        else:
            forced_teardown(cluster, world)
    except LeakError as exc:
        violations.append(f"leaked state ({outcome}): {exc}")
    finally:
        recorder.detach()

    if violations and outcome == "completed":
        outcome = "violation"
    record = _record(case, outcome, error, stats_snapshot, artifact,
                     violations)
    if artifact is not None and artifacts_dir:
        os.makedirs(artifacts_dir, exist_ok=True)
        path = os.path.join(artifacts_dir, f"case-i{case.index}.txt")
        with open(path, "w") as fh:
            fh.write(f"# {case.key}\n# {repro_command(base_seed, case)}\n"
                     f"# error: {record['error']}\n\n{artifact}")
    return record


def _record(case: Case, outcome: str, error, stats_snapshot, artifact,
            violations: List[str]) -> dict:
    return {
        "index": case.index,
        "key": case.key,
        "outcome": outcome,
        "error": f"{type(error).__name__}: {error}" if error is not None
                 else None,
        "stats_crc": _crc(stats_snapshot) if stats_snapshot is not None
                     else None,
        "artifact_crc": _crc(artifact) if artifact is not None else None,
        "violations": list(violations),
    }


def verdict_lines(records: List[dict]) -> List[str]:
    """Per case, in case order: index, key, outcome, error type (``-``
    for none) — what ``make fuzz`` holds to docs/chaos-verdicts.txt."""
    return [f"{rec['index']} {rec['key']} {rec['outcome']} "
            f"{rec['error'].split(':', 1)[0] if rec['error'] else '-'}"
            for rec in sorted(records, key=lambda rec: rec["index"])]


def _run_indexed(index: int, base_seed: int = 0,
                 scenario: Optional[str] = None,
                 artifacts_dir: Optional[str] = None) -> dict:
    return run_case(make_case(base_seed, index, scenario=scenario),
                    base_seed=base_seed, artifacts_dir=artifacts_dir)


def run_fuzz(seed: int, budget: int, workers: int = 1,
             scenario: Optional[str] = None,
             artifacts_dir: Optional[str] = None,
             progress=None) -> Tuple[List[dict], bool]:
    """Run ``budget`` cases; returns ``(records, ok)``.

    Records come back in case order whatever ``workers`` is, and each
    record is worker-count independent — the determinism contract the
    replay tests pin down.
    """
    runner = functools.partial(_run_indexed, base_seed=seed,
                               scenario=scenario,
                               artifacts_dir=artifacts_dir)
    indices = list(range(budget))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            records = []
            for rec in pool.imap(runner, indices, chunksize=1):
                records.append(rec)
                if progress:
                    progress(rec)
    else:
        records = []
        for index in indices:
            rec = runner(index)
            records.append(rec)
            if progress:
                progress(rec)
    ok = not any(rec["violations"] for rec in records)
    return records, ok


# ---------------------------------------------------------------- CLI
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.fuzz",
        description="seeded chaos property fuzzer for the MPI stack")
    parser.add_argument("--budget", type=int, default=50,
                        help="number of cases to run (default 50)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed; (seed, index) replays a case")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (records stay identical)")
    parser.add_argument("--scenario", choices=names(),
                        help="restrict every case to one scenario")
    parser.add_argument("--case", type=int, default=None, metavar="INDEX",
                        help="replay exactly one case index")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write failure hang dumps under DIR")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and exit")
    args = parser.parse_args(argv)

    if args.list:
        from .scenarios import SCENARIOS
        for name in names():
            spec = SCENARIOS[name]
            tag = "may-fail" if spec.may_fail else "must-complete"
            print(f"{name:<18} [{tag}] {spec.summary}")
        return 0

    if args.case is not None:
        case = make_case(args.seed, args.case, scenario=args.scenario)
        print(f"replaying {case.key}")
        rec = run_case(case, base_seed=args.seed,
                       artifacts_dir=args.artifacts)
        print(json.dumps(rec, indent=2, sort_keys=True))
        return 0 if not rec["violations"] else 1

    tally: dict = {}

    def progress(rec: dict) -> None:
        tally[rec["outcome"]] = tally.get(rec["outcome"], 0) + 1
        done = sum(tally.values())
        if rec["violations"]:
            print(f"FAIL {rec['key']}")
            for v in rec["violations"]:
                print(f"  {v}")
        elif done % 25 == 0:
            print(f"  ... {done}/{args.budget} "
                  f"({', '.join(f'{k}={v}' for k, v in sorted(tally.items()))})")

    print(f"chaos fuzz: budget={args.budget} seed={args.seed} "
          f"scenarios={len(names()) if not args.scenario else 1} "
          f"workers={args.workers}")
    records, ok = run_fuzz(args.seed, args.budget, workers=args.workers,
                           scenario=args.scenario,
                           artifacts_dir=args.artifacts,
                           progress=progress)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(tally.items()))
    print(f"done: {len(records)} cases ({counts})")
    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        with open(os.path.join(args.artifacts, "verdicts.txt"), "w") as fh:
            fh.writelines(line + "\n" for line in verdict_lines(records))
    if not ok:
        print("POSTCONDITION VIOLATIONS:")
        for rec in records:
            if rec["violations"]:
                case = make_case(args.seed, rec["index"],
                                 scenario=args.scenario)
                print(f"  {rec['key']}")
                print(f"    replay: {repro_command(args.seed, case)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
