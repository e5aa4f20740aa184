"""Flight recorder (:mod:`repro.obs`): byte-identical traces across
reruns and worker counts, exact per-collective frame attribution
against NetStats, per-call metrics on the communicator, and hang
diagnostics on the deadline/deadlock paths."""

import json
import multiprocessing
import os
import pathlib
import re
import zlib
from dataclasses import replace

import pytest

from repro import obs
from repro.bench.sweep import (AreaSpec, Family, dumps_canonical,
                               register_area, run_area)
from repro.core.rounds import McastLost
from repro.runtime import run_spmd
from repro.simnet import DeadlockError
from repro.simnet.calibration import FAST_ETHERNET_SWITCH, quiet
from repro.simnet.trace import RecorderHooks

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
REPO = pathlib.Path(__file__).resolve().parents[1]

QUIET = quiet(FAST_ETHERNET_SWITCH)
#: seeded per-receiver loss — repairs happen, deterministically
LOSSY = replace(QUIET, loss=0.05, label="lossy-test")
DEEP = "tree:2x2x2"
HIER = {"bcast": "hier-mcast", "gather": "hier-mcast",
        "barrier": "hier-mcast"}


def _program(env):
    obj = bytes(6000) if env.rank == 0 else None
    obj = yield from env.comm.bcast(obj, root=0)
    vals = yield from env.comm.gather(env.rank, root=0)
    yield from env.comm.barrier()
    return (len(obj), vals if env.rank == 0 else None)


def _traced_run(seed=3, params=LOSSY, **kwargs):
    saved = os.environ.get(obs.TRACE_ENV)
    os.environ[obs.TRACE_ENV] = "1"
    obs.drain_recorders()
    try:
        result = run_spmd(8, _program, topology=DEEP, seed=seed,
                          params=params, collectives=HIER, **kwargs)
    finally:
        if saved is None:
            os.environ.pop(obs.TRACE_ENV, None)
        else:
            os.environ[obs.TRACE_ENV] = saved
    recs = obs.drain_recorders()
    assert len(recs) == 1
    return result, recs[0]


def _first_raw_frame_id(rec):
    for ev in rec.events:
        for key, value in ev[-1]:
            if key == "frame":
                return value
    return None


# ------------------------------------------------------- determinism
def test_trace_bytes_identical_across_reruns():
    """Two traced reruns of the same seeded lossy case export the same
    bytes even though the process-global frame counter advanced between
    them (the exporter rebases frame ids to first-seen order)."""
    _, rec_a = _traced_run(seed=3)
    _, rec_b = _traced_run(seed=3)
    assert _first_raw_frame_id(rec_a) != _first_raw_frame_id(rec_b)
    assert obs.perfetto_json([rec_a]) == obs.perfetto_json([rec_b])
    assert obs.text_report([rec_a]) == obs.text_report([rec_b])


def obs_digest_runner(scale, seed, op):
    """Synthetic sweep runner: digest of the exported trace bytes (an
    exact integer metric, so any cross-worker nondeterminism fails the
    doc comparison below byte-for-byte)."""
    saved = os.environ.get(obs.TRACE_ENV)
    os.environ[obs.TRACE_ENV] = "1"
    obs.drain_recorders()
    try:
        run_spmd(8, _program, topology=DEEP, seed=seed, params=LOSSY,
                 collectives=HIER)
    finally:
        if saved is None:
            os.environ.pop(obs.TRACE_ENV, None)
        else:
            os.environ[obs.TRACE_ENV] = saved
    recs = obs.drain_recorders()
    payload = obs.perfetto_json(recs) + obs.text_report(recs)
    return {"trace_digest": zlib.crc32(payload.encode()),
            "events": sum(len(r.events) for r in recs)}


register_area(AreaSpec(
    name="obs-trace-test",
    title="synthetic area: traced-run digests for worker determinism",
    families=lambda scale: [
        Family("digest", {"op": ("a", "b")}, obs_digest_runner)],
))


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method required")
def test_trace_identical_across_worker_counts():
    inline = run_area("obs-trace-test", workers=1)
    forked = run_area("obs-trace-test", workers=2)
    assert dumps_canonical(inline) == dumps_canonical(forked)


# ------------------------------------------- metrics and attribution
def test_frame_attribution_matches_netstats_exactly():
    """The acceptance criterion: per-collective frame counts summed
    with the outside bucket equal the NetStats deltas exactly — on the
    clean and the lossy deep-fabric case."""
    for params in (QUIET, LOSSY):
        _, rec = _traced_run(seed=7, params=params)
        totals = dict(rec.frame_totals())
        delta = {k: v for k, v in
                 rec.stats_delta()["frames_by_kind"].items() if v}
        assert totals == delta
        assert "exact" in obs.text_report([rec])
    assert any(c.repair_rounds > 0 for c in rec.calls), \
        "lossy run produced no repair rounds"


def test_metrics_log_on_communicator():
    def main(env):
        obj = yield from env.comm.bcast(
            bytes(5000) if env.rank == 0 else None, root=0)
        assert len(obj) == 5000
        yield from env.comm.barrier()
        return [dict(r) for r in env.comm.metrics_log]

    saved = os.environ.get(obs.TRACE_ENV)
    os.environ[obs.TRACE_ENV] = "1"
    obs.drain_recorders()
    try:
        result = run_spmd(4, main, topology="switch", params=LOSSY,
                          seed=11, collectives={"bcast": "mcast-seg-nack",
                                                "barrier": "mcast"})
    finally:
        if saved is None:
            os.environ.pop(obs.TRACE_ENV, None)
        else:
            os.environ[obs.TRACE_ENV] = saved
    obs.drain_recorders()
    for rank, log in enumerate(result.returns):
        # _setup's barrier dispatches too, so: at least bcast + barrier
        assert len(log) >= 2
        ops = [(r["op"], r["impl"]) for r in log]
        assert ("bcast", "mcast-seg-nack") in ops
        bcast = next(r for r in log if r["op"] == "bcast")
        assert bcast["rank"] == rank
        assert bcast["elapsed_us"] > 0
        if rank == 0:
            assert bcast["frames_by_kind"].get("mcast-seg", 0) > 0


def test_metrics_log_empty_with_tracing_off():
    def main(env):
        yield from env.comm.barrier()
        return len(env.comm.metrics_log)

    assert os.environ.get(obs.TRACE_ENV) in (None, "", "0")
    result = run_spmd(2, main, topology="switch", params=QUIET, seed=1)
    assert result.returns == [0, 0]


# ----------------------------------------------------------- exports
def test_perfetto_doc_shape_and_frame_id_rebase():
    _, rec = _traced_run(seed=3, params=QUIET)
    doc = obs.perfetto_doc([rec])
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    insts = [e for e in events if e["ph"] == "i"]
    names = [e for e in events if e["ph"] == "M"]
    assert spans and insts and names
    assert {e["args"]["name"] for e in names} >= \
        {"run0:net"} | {f"run0:rank{r}" for r in range(8)}
    assert all(e["dur"] >= 0 for e in spans)
    assert any(e["cat"] == "collective" for e in spans)
    assert any(e["cat"] == "phase" for e in spans)
    assert any(e["cat"] == "round" for e in spans)
    fids = [e["args"]["frame"] for e in insts if "frame" in e["args"]]
    assert fids and min(fids) == 1 and max(fids) == len(set(fids))
    json.loads(obs.perfetto_json([rec]))    # valid JSON bytes


def test_write_trace_files(tmp_path):
    _, rec = _traced_run(seed=3, params=QUIET)
    paths = obs.write_trace(tmp_path / "out", [rec])
    assert paths["trace"].exists() and paths["report"].exists()
    doc = json.loads(paths["trace"].read_text())
    assert doc["traceEvents"]
    assert "frame attribution vs NetStats: exact" in \
        paths["report"].read_text()


# -------------------------------------------------- hang diagnostics
def test_deadline_hang_dump_names_open_round_and_missing():
    """A receiver that drops every multicast data copy leaves its
    follow round open forever; cutting the run at the deadline must
    dump that round with the full missing-segment set."""
    stubborn = replace(QUIET, max_repair_rounds=10**6)

    def main(env):
        if env.rank == 1:
            env.host.frame_fate = \
                lambda dgram: "drop" if dgram.kind == "mcast-seg" else None
        obj = yield from env.comm.bcast(
            bytes(6000) if env.rank == 0 else None, root=0)
        return len(obj)

    saved = os.environ.get(obs.TRACE_ENV)
    os.environ[obs.TRACE_ENV] = "1"
    obs.drain_recorders()
    try:
        run_spmd(2, main, topology="switch", params=stubborn, seed=5,
                 collectives={"bcast": "mcast-seg-nack"},
                 max_sim_us=150_000.0)
    finally:
        if saved is None:
            os.environ.pop(obs.TRACE_ENV, None)
        else:
            os.environ[obs.TRACE_ENV] = saved
    rec = obs.drain_recorders()[0]
    opened = rec.open_rounds()
    follow = [(rank, label, missing) for rank, _a, label, missing
              in opened if label.startswith("follow:")]
    assert follow, opened
    rank, label, missing = follow[0]
    assert rank == 1 and missing == [0, 1, 2, 3, 4]
    report = rec.hang_report
    assert report is not None and "deadline" in report
    assert f"rank1 {label}: missing={missing}" in report
    assert "-- live processes --" in report
    assert "-- posted receive descriptors --" in report
    assert "rank1" in report and "of" in report      # event tail shown


def test_hang_dump_counts_the_unfilled_descriptors_of_a_wedged_ring():
    """A follower wedged mid-round is parked on its data socket's
    descriptor ring: the dump names the wait and counts the ring's
    descriptors still unfilled (one of three was filled)."""
    from repro.core.rounds import Reassembler, Segment, _consume_round, \
        _taker

    recorder = obs.FlightRecorder()
    ports = []

    def main(env):
        channel = env.comm.mcast
        seq = channel.next_seq()
        if env.rank == 0:
            yield env.sim.timeout(500.0)
            yield from channel.send_batch(
                [Segment(0, 3, 100, b"x" * 100)], seq)
            return None
        ports.append(channel.data_port)
        ring = channel.data_sock.post_ring(
            3, _taker(0, seq, Reassembler(3), last_index=2))
        yield from _consume_round(env.comm, ring, drain_us=1e9)

    run_spmd(2, main, params=QUIET, on_cluster=recorder.attach,
             max_sim_us=5_000.0)
    report = recorder.hang_report
    assert report is not None and "deadline" in report
    assert f"host1 port {ports[0]}: 2 posted" in report
    assert "rank1: DescriptorRing" in report


def test_deadlock_hang_dump():
    def main(env):
        if env.rank == 0:
            yield from env.comm._recv_coll(1, 77)    # never sent
        return env.rank

    saved = os.environ.get(obs.TRACE_ENV)
    os.environ[obs.TRACE_ENV] = "1"
    obs.drain_recorders()
    try:
        with pytest.raises(DeadlockError):
            run_spmd(2, main, topology="switch", params=QUIET, seed=1)
    finally:
        if saved is None:
            os.environ.pop(obs.TRACE_ENV, None)
        else:
            os.environ[obs.TRACE_ENV] = saved
    rec = obs.drain_recorders()[0]
    assert rec.hang_report is not None
    assert "deadlock" in rec.hang_report
    assert "rank0" in rec.hang_report


def test_rank_program_error_parks_hang_dump():
    """A typed error raised by a rank program (not a deadlock, not a
    deadline) used to leave ``hang_report`` empty, so every driver but
    the fuzzer lost the wreckage.  A follower whose host eats every
    data frame aborts with McastLost; the dump parked on the way out
    names the error, the rounds still open and the last events."""
    recorder = obs.FlightRecorder()

    def on_cluster(cluster):
        recorder.attach(cluster)
        cluster.hosts[3].frame_fate = lambda dgram: \
            "drop" if dgram.kind == "mcast-seg" else None

    def main(env):
        out = yield from env.comm.bcast(
            b"x" * 8000 if env.rank == 0 else None, root=0)
        return len(out)

    with pytest.raises(McastLost) as info:
        run_spmd(4, main, params=replace(QUIET, max_repair_rounds=2),
                 collectives={"bcast": "mcast-seg-nack"},
                 on_cluster=on_cluster)
    dump = recorder.hang_report
    assert dump is not None
    assert dump.startswith("== flight-recorder hang dump (McastLost) at")
    assert "rank3 follow:seq" in dump and "missing=[" in dump
    assert f"-- last 40 of {len(recorder.events)} events --" in dump
    assert "decision" in dump and "plan=abort" in dump
    # the same text a driver would have had to rebuild by hand
    assert dump == obs.build_hang_dump(info.value.repro_cluster,
                                       "McastLost")


# ------------------------------------------------------- the trace CLI
def test_trace_cli_writes_exact_attribution(tmp_path, capsys):
    from repro.bench.cli import main

    out = tmp_path / "trace"
    assert main(["trace", "deep-fabric",
                 "trunk-hier[fabric=tree:2x2x2,op=bcast]",
                 "--output", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    runs = [line for line in printed if line.startswith("run ")]
    assert len(runs) == 2 and all(
        line.endswith("frame attribution exact") for line in runs)
    assert printed[-2:] == [f"wrote {out / 'trace.json'}",
                            f"wrote {out / 'report.txt'}"]
    doc = json.loads((out / "trace.json").read_text())
    nevents = sum(int(line.split()[5]) for line in runs)
    assert sum(ev["ph"] != "M" for ev in doc["traceEvents"]) == nevents
    report = (out / "report.txt").read_text()
    assert report.count("frame attribution vs NetStats: exact") == 2
    assert "MISMATCH" not in report
    assert os.environ.get(obs.TRACE_ENV) in (None, "", "0")
    assert obs.drain_recorders() == []


def test_tracing_off_leaves_no_recorder():
    assert os.environ.get(obs.TRACE_ENV) in (None, "", "0")
    result = run_spmd(8, _program, topology=DEEP, seed=1, params=QUIET,
                      collectives=HIER)
    assert result.cluster.stats.recorder is None
    assert obs.drain_recorders() == []


# ------------------------------------------------- the hook-point map
def test_hook_table_lists_exactly_the_recorder_hooks():
    """docs/OBSERVABILITY.md's hook-point table names every public
    method of ``RecorderHooks`` and nothing else, and every function
    its producer column names in parentheses is a ``def`` in the file
    it is listed under."""
    doc = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    section = doc.split("## Hook-point map", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines()
            if line.startswith("| `")]
    listed = [hook for cells in rows
              for hook in re.findall(r"`(\w+)`", cells[0])]
    hooks = {name for name, attr in vars(RecorderHooks).items()
             if callable(attr) and not name.startswith("_")}
    assert sorted(listed) == sorted(hooks)
    for cells in rows:
        for path, names in re.findall(r"`([\w/]+\.py)`(?: \(([^)]*)\))?",
                                      cells[1]):
            source = (REPO / "src" / "repro" / path).read_text()
            for name in re.findall(r"`([\w.]+)`", names):
                assert f"def {name.split('.')[-1]}(" in source, (path, name)
