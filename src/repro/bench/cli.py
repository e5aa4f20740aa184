"""Command-line entry point of the bench package: the sweep runner,
the docs generators and the per-case profiling / tracing tools::

    python -m repro.bench.cli registry-doc          # docs/collectives.md
    python -m repro.bench.cli registry-doc --check  # exit 1 if stale
    python -m repro.bench.cli sweep paper-figures   # BENCH_*.json + md
    python -m repro.bench.cli sweep --check         # the bench-gate diff
    python -m repro.bench.cli bench-doc        # docs/benchmarks-index.md
    python -m repro.bench.cli profile deep-fabric \
        "trunk-hier[fabric=tree:2x2x2,op=gather]"   # cProfile one case
    python -m repro.bench.cli profile sim-throughput \
        "workload[fabric=tree:8x8]" --records       # records by callable
    python -m repro.bench.cli trace deep-fabric \
        "trunk-hier[fabric=tree:2x2x2,op=gather]"   # flight-record one

``sweep`` with no area names runs every registered area — the paper's
own figures (``paper-figures``) included; see ``docs/BENCHMARKS.md``
for the document schema and the gate's rules.  Only gate-scale
documents are baselines: a ``--scale full`` run checks the area's
postconditions and writes nothing unless ``--results-dir`` names
somewhere other than ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

__all__ = ["main"]


def _doc_cmd(command: str, output: str, check: bool) -> int:
    """(Re)generate one derived document, or with ``check`` diff it."""
    if command == "registry-doc":
        from .registry_doc import collective_registry_doc as render
        from .registry_doc import default_doc_path as default_path
    else:
        from .bench_doc import benchmarks_index_doc as render
        from .bench_doc import default_index_path as default_path

    path = pathlib.Path(output) if output else default_path()
    fresh = render()
    if check:
        current = path.read_text() if path.exists() else ""
        if current != fresh:
            print(f"{path} is stale — regenerate with "
                  f"'python -m repro.bench.cli {command}'",
                  file=sys.stderr)
            return 1
        print(f"{path} is up to date")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(fresh)
    print(f"wrote {path}")
    return 0


def _sweep_cmd(areas, scale: str, base_seed: int, workers,
               results_dir, check: bool) -> int:
    from . import sweep

    known = sweep.load_areas()
    targets = areas or sorted(known)
    unknown = [a for a in targets if a not in known]
    if unknown:
        print(f"unknown area(s) {unknown}; known: {sorted(known)}",
              file=sys.stderr)
        return 2
    results = (pathlib.Path(results_dir) if results_dir
               else sweep.results_dir())
    baselines = results.resolve() == sweep.results_dir().resolve()
    failed = False
    for area in targets:
        doc = sweep.run_area(area, scale=scale, base_seed=base_seed,
                             workers=workers)
        json_path = sweep.baseline_path(area, results)
        md_path = results / f"{area}.md"
        if check:
            if not json_path.exists():
                print(f"{area}: no committed baseline {json_path} — "
                      f"run 'make bench-baselines'", file=sys.stderr)
                failed = True
                continue
            import json as _json
            baseline = _json.loads(json_path.read_text())
            report = sweep.diff_docs(baseline, doc)
            for note in report.improvements:
                print(f"{area}: improvement: {note}")
            for err in report.errors:
                print(f"{area}: {err}", file=sys.stderr)
            stale_md = (not md_path.exists()
                        or md_path.read_text()
                        != sweep.sweep_markdown(baseline))
            if stale_md:
                print(f"{area}: {md_path} does not match the committed "
                      f"baseline — regenerate with 'make "
                      f"bench-baselines'", file=sys.stderr)
            if report.errors or stale_md:
                failed = True
            else:
                print(f"{area}: ok — {report.matched} series within "
                      f"tolerance")
        elif scale != "gate" and baselines:
            # benchmarks/results/ holds the gate baselines and nothing
            # else: a big sweep has run its postconditions (run_area
            # raises on a violated one) and is summarised, not kept
            print(f"{area}: ok — {len(doc['series'])} cases at scale "
                  f"{scale!r}, all postconditions hold (not written: "
                  f"pass --results-dir to keep the document)")
        else:
            results.mkdir(parents=True, exist_ok=True)
            json_path.write_text(sweep.dumps_canonical(doc))
            md_path.write_text(sweep.sweep_markdown(doc))
            print(f"wrote {json_path}")
            print(f"wrote {md_path}")
    return 1 if failed else 0


def _find_case(command: str, args_list, scale: str, base_seed: int):
    """Resolve profile/trace's ``<area> [<case key>]`` arguments to
    ``(area, case, run)`` — ``run()`` executes the one case, seeded as
    the sweep seeds it (``profile`` without a key: the whole area) —
    or say why not and exit 2."""
    from . import sweep

    area, case = (list(args_list) + [None, None])[:2]
    known = sweep.load_areas()
    if area not in known:
        print(f"{command} needs an area name and a case key (profile: "
              f"no key = the whole area); areas: {sorted(known)}",
              file=sys.stderr)
        raise SystemExit(2)
    if case is None and command == "profile":
        return area, None, lambda: sweep.run_area(
            area, scale=scale, base_seed=base_seed, workers=1, check=True)
    cases = {sweep.case_key(f.name, axes): (f, axes)
             for f in known[area].families(scale)
             for axes in sweep.expand(f.axes)}
    if case not in cases:
        print(f"no case {case!r} in area {area!r} at scale {scale!r}; "
              f"cases: {sorted(cases)}", file=sys.stderr)
        raise SystemExit(2)
    family, axes = cases[case]
    seed = sweep.case_seed(area, base_seed, case)
    return area, case, lambda: family.runner(scale=scale, seed=seed, **axes)


def _count_records(run) -> None:
    """``profile --records``: run the case with every kernel record
    tallied by the callable it schedules and print the table.  The three
    ``Simulator`` push methods are wrapped for the duration of the run
    only, from here — the simulator has no counting hook; a fan-out
    push counts only when it opened a record, named after its first
    member."""
    from collections import Counter

    from ..simnet.kernel import Simulator

    tally, sims = Counter(), set()
    pushes = (Simulator.schedule_call, Simulator.schedule_at,
              Simulator.schedule_fanout)

    def counting(push):
        def wrapper(sim, when, fn, *args):
            seq = sim._seq
            push(sim, when, fn, *args)
            if sim._seq == seq:
                return              # joined the open fan-out record
            # Event / Timeout / Process inherit one _dispatch: name a
            # bound method by its object's own class
            owner = getattr(fn, "__self__", None)
            tally[fn.__qualname__ if owner is None else
                  f"{type(owner).__name__}.{fn.__name__}"] += 1
            sims.add(sim)
        return wrapper

    (Simulator.schedule_call, Simulator.schedule_at,
     Simulator.schedule_fanout) = map(counting, pushes)
    try:
        run()
    finally:
        (Simulator.schedule_call, Simulator.schedule_at,
         Simulator.schedule_fanout) = pushes
    for name, n in tally.most_common():
        print(f"{n:>10,}  {name}")
    print(f"{sum(tally.values()):>10,}  records pushed; sim.processed = "
          f"{sum(sim.processed for sim in sims):,} over {len(sims)} "
          f"simulator(s)")


#: ``profile --sort`` keys: the column of a :func:`_profile_rows` row
#: each orders by, largest first
PROFILE_SORTS = {"calls": 0, "ncalls": 0, "tottime": 1, "time": 1,
                 "cumulative": 2, "cumtime": 2}


def _profile_rows(profiler, sort: str = "cumulative",
                  limit: int = 25) -> list[tuple]:
    """``(ncalls, tottime, cumtime, function)`` per code object a
    ``cProfile.Profile`` saw, the ``limit`` largest by ``sort``.

    Tallied from ``profiler.getstats()``, not ``pstats``: pstats keys
    its table by (file, line, name), and every dataclass-generated
    ``__init__`` is ``<string>:2(__init__)``, so all but one of them
    would vanish in the collision."""
    import os

    rows = []
    for entry in profiler.getstats():
        code = entry.code
        name = code if isinstance(code, str) else (
            f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}"
            f"({code.co_name})")
        rows.append((entry.callcount, entry.inlinetime, entry.totaltime,
                     name))
    col = PROFILE_SORTS[sort]
    rows.sort(key=lambda row: row[col], reverse=True)
    return rows[:limit]


def _profile_cmd(args_list, scale: str, base_seed: int, sort: str,
                 limit: int, records: bool) -> int:
    """cProfile one sweep case (or a whole area) and print the stats —
    or, with ``records``, its kernel records by callable."""
    import cProfile

    area, case, run = _find_case("profile", args_list, scale, base_seed)
    target = (f"area {area!r} [{scale}]" if case is None
              else f"case {case!r} of {area!r} [{scale}]")
    if records:
        print(f"kernel records of {target}, by scheduled callable:")
        _count_records(run)
        return 0
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    print(f"profile of {target}, sorted by {sort}:")
    print(f"{'ncalls':>10} {'tottime':>9} {'cumtime':>9}  function")
    for ncalls, tottime, cumtime, name in _profile_rows(profiler, sort,
                                                        limit):
        print(f"{ncalls:>10,} {tottime:>9.3f} {cumtime:>9.3f}  {name}")
    return 0


def _trace_cmd(args_list, scale: str, base_seed: int, output) -> int:
    """Run one sweep case under the flight recorder and export it
    (Perfetto ``trace.json`` + per-rank ``report.txt``), checking the
    per-collective frame attribution against the NetStats deltas."""
    import os

    from .. import obs

    _area, case, run = _find_case("trace", args_list, scale, base_seed)
    # Arm the recorder for every run_spmd inside the case.
    saved = os.environ.get(obs.TRACE_ENV)
    os.environ[obs.TRACE_ENV] = "1"
    obs.drain_recorders()               # drop stale recorders, if any
    try:
        run()
    finally:
        if saved is None:
            os.environ.pop(obs.TRACE_ENV, None)
        else:
            os.environ[obs.TRACE_ENV] = saved
        recorders = obs.drain_recorders()
    if not recorders:
        print(f"case {case!r} ran no traced SPMD program",
              file=sys.stderr)
        return 1
    exact = True
    for run, rec in enumerate(recorders):
        totals = dict(rec.frame_totals())
        delta = {k: v for k, v in
                 rec.stats_delta()["frames_by_kind"].items() if v}
        ok = totals == delta
        exact = exact and ok
        print(f"run {run}: {len(rec.calls)} collective calls, "
              f"{len(rec.events)} events; frame attribution "
              f"{'exact' if ok else 'MISMATCH'}")
        if rec.hang_report:
            print(rec.hang_report, file=sys.stderr)
    out = pathlib.Path(output) if output else (
        pathlib.Path("trace_out") / case)
    paths = obs.write_trace(out, recorders)
    print(f"wrote {paths['trace']}")
    print(f"wrote {paths['report']}")
    return 0 if exact else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark sweeps, generated docs and per-case "
                    "profiling/tracing for the 'MPI Collective "
                    "Operations over IP Multicast' (IPPS 2000) "
                    "reproduction.")
    parser.add_argument("command",
                        choices=["registry-doc", "sweep", "bench-doc",
                                 "profile", "trace"],
                        help="registry-doc: (re)generate the "
                             "docs/collectives.md reference; sweep: run "
                             "declarative benchmark sweeps into "
                             "BENCH_<area>.json; bench-doc: (re)generate "
                             "docs/benchmarks-index.md from the "
                             "committed baselines; profile: cProfile one "
                             "sweep case (or a whole area) and print the "
                             "hot spots; trace: run one sweep case under "
                             "the flight recorder and export trace.json "
                             "+ report.txt (see docs/OBSERVABILITY.md)")
    parser.add_argument("areas", nargs="*",
                        help="sweep: area names (default: all "
                             "registered areas); profile/trace: an area "
                             "name plus a case key like "
                             "'trunk-flat[fabric=tree:2x2x2,op=bcast]'")
    parser.add_argument("--check", action="store_true",
                        help="registry-doc/bench-doc: fail if the doc "
                             "is stale instead of rewriting it; sweep: "
                             "diff the fresh run against the committed "
                             "BENCH_*.json baselines (the bench gate) "
                             "instead of writing")
    parser.add_argument("--output", default=None,
                        help="registry-doc/bench-doc: target path "
                             "(default docs/collectives.md / "
                             "docs/benchmarks-index.md); trace: output "
                             "directory (default trace_out/<case-key>)")
    parser.add_argument("--scale", choices=["gate", "full"],
                        default="gate",
                        help="sweep: gate = the tiny committed-baseline "
                             "sweep; full = the big one")
    parser.add_argument("--base-seed", type=int, default=1,
                        help="sweep: base seed the per-case seeds are "
                             "derived from (baselines use 1)")
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep: worker processes (default: cpu "
                             "count capped at 8; 1 = inline)")
    parser.add_argument("--results-dir", default=None,
                        help="sweep: where BENCH_*.json + <area>.md "
                             "live (default benchmarks/results/)")
    parser.add_argument("--sort", default="cumulative",
                        choices=sorted(PROFILE_SORTS),
                        help="profile: the column to sort by, largest "
                             "first (default cumulative)")
    parser.add_argument("--limit", type=int, default=25,
                        help="profile: rows of stats to print")
    parser.add_argument("--records", action="store_true",
                        help="profile: instead of cProfile, count the "
                             "kernel records the run pushes, by the "
                             "callable each one schedules")
    args = parser.parse_args(argv)

    if args.command in ("registry-doc", "bench-doc"):
        return _doc_cmd(args.command, args.output, args.check)
    if args.command == "sweep":
        return _sweep_cmd(args.areas, args.scale, args.base_seed,
                          args.workers, args.results_dir, args.check)
    if args.command == "profile":
        return _profile_cmd(args.areas, args.scale, args.base_seed,
                            args.sort, args.limit, args.records)
    return _trace_cmd(args.areas, args.scale, args.base_seed, args.output)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
