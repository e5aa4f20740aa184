"""Exporters: Chrome/Perfetto ``trace.json`` and a per-rank text report.

Both exports are byte-deterministic for a given seeded run: events come
out of the recorder in dispatch order, JSON is serialized canonically
(sorted keys, fixed indent), and the one process-global identifier a
frame carries — ``frame_id``, minted from a module-level counter that
keeps counting across simulations — is rebased to first-seen order
before serialization.  Re-running the same case twice in one process
therefore produces identical bytes even though the raw frame ids differ.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, List

__all__ = ["perfetto_doc", "perfetto_json", "text_report",
           "format_event", "write_trace"]

#: tid layout inside each rank's track group
TID_SPANS = 0    #: collective / phase / round spans
TID_WIRE = 1     #: frame instants

#: pid stride between runs when exporting several recorders at once
RUN_STRIDE = 4096


def _pid(run: int, rank: int) -> int:
    # rank -1 (unattributed/network) maps to the run's slot 0
    return run * RUN_STRIDE + rank + 1


def _norm_args(args, fid_map) -> dict:
    out = {}
    for key, value in args:
        if key == "frame":
            value = fid_map.setdefault(value, len(fid_map) + 1)
        out[key] = value
    return out


def perfetto_doc(recorders: Iterable) -> dict:
    """The Chrome trace-event document for one or more recorders."""
    events: List[dict] = []
    fid_map: dict = {}
    recorders = list(recorders)
    for run, rec in enumerate(recorders):
        names = {-1: f"run{run}:net"}
        for addr in sorted(rec._rank_of):
            names[rec._rank_of[addr]] = f"run{run}:rank{rec._rank_of[addr]}"
        for rank in sorted(names):
            events.append({"ph": "M", "name": "process_name",
                           "pid": _pid(run, rank), "tid": 0,
                           "args": {"name": names[rank]}})
        for ev in rec.events:
            if ev[0] == "span":
                _tag, rank, cat, name, t0, t1, args = ev
                events.append({"ph": "X", "pid": _pid(run, rank),
                               "tid": TID_SPANS, "cat": cat, "name": name,
                               "ts": t0, "dur": t1 - t0,
                               "args": _norm_args(args, fid_map)})
            else:
                _tag, rank, cat, name, ts, args = ev
                events.append({"ph": "i", "s": "t",
                               "pid": _pid(run, rank), "tid": TID_WIRE,
                               "cat": cat, "name": name, "ts": ts,
                               "args": _norm_args(args, fid_map)})
    return {"displayTimeUnit": "ms", "traceEvents": events}


def perfetto_json(recorders: Iterable) -> str:
    """Canonical bytes of :func:`perfetto_doc` (the determinism surface
    the trace tests compare byte for byte)."""
    return json.dumps(perfetto_doc(recorders), indent=2,
                      sort_keys=True) + "\n"


def format_event(ev, fid_map: dict = None) -> str:
    """One event as a stable single line (text report + hang dump).

    ``fid_map`` rebases the process-global ``frame`` ids to first-seen
    order, exactly like the Perfetto export — pass one (shared across
    the lines of a dump) to make the text byte-deterministic across
    reruns in one process.
    """
    if ev[0] == "span":
        _tag, rank, cat, name, t0, t1, args = ev
        head = f"{t0:12.1f}us +{t1 - t0:9.1f}us"
    else:
        _tag, rank, cat, name, ts, args = ev
        head = f"{ts:12.1f}us {'':>11}"
    who = f"rank{rank}" if rank >= 0 else "net"
    if fid_map is not None:
        args = tuple(_norm_args(args, fid_map).items())
    argstr = " ".join(f"{k}={v}" for k, v in args)
    return f"{head}  {who:>7} {cat:<10} {name:<24} {argstr}".rstrip()


def text_report(recorders: Iterable) -> str:
    """Per-rank report: collective calls with their metric records,
    the outside-traffic bucket, and the frames==NetStats cross-check."""
    lines: List[str] = []
    for run, rec in enumerate(list(recorders)):
        lines.append(f"== run {run} ==")
        by_rank: dict = {}
        for call in rec.calls:
            by_rank.setdefault(call.rank, []).append(call)
        for rank in sorted(by_rank):
            lines.append(f"-- rank{rank} --")
            for call in sorted(by_rank[rank], key=lambda c: c.t0):
                d = call.as_dict()
                frames = " ".join(f"{k}={v}" for k, v in
                                  sorted(d["frames_by_kind"].items()))
                lines.append(
                    f"  {d['t0_us']:12.1f}us {d['op']}:{d['impl']} "
                    f"({d['elapsed_us']:.1f}us) frames[{frames}] "
                    f"rounds={d['rounds']} repair={d['repair_rounds']} "
                    f"nacks={d['nack_reports']}/{d['nacks_sent']} "
                    f"drains={d['drain_timeouts']} "
                    f"posted_hw={d['posted_high_water']}")
                for label in sorted(d["phase_us"]):
                    lines.append(f"    phase {label}: "
                                 f"{d['phase_us'][label]:.1f}us")
        outside = " ".join(f"{k}={v}" for k, v in
                           sorted(rec.outside_frames.items()))
        lines.append(f"-- outside collectives -- [{outside}]")
        delta = rec.stats_delta()["frames_by_kind"] \
            if rec.cluster is not None else {}
        totals = rec.frame_totals()
        status = "exact" if {k: v for k, v in delta.items() if v} \
            == dict(totals) else "MISMATCH"
        lines.append(f"-- frame attribution vs NetStats: {status} --")
        lines.append(f"   attributed: {dict(sorted(totals.items()))}")
        lines.append("   netstats:   "
                     f"{ {k: v for k, v in sorted(delta.items()) if v} }")
    return "\n".join(lines) + "\n"


def write_trace(out_dir, recorders: Iterable) -> dict:
    """Write ``trace.json`` + ``report.txt`` under ``out_dir``; returns
    the paths written."""
    recorders = list(recorders)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.json"
    report_path = out / "report.txt"
    trace_path.write_text(perfetto_json(recorders))
    report_path.write_text(text_report(recorders))
    return {"trace": trace_path, "report": report_path}
