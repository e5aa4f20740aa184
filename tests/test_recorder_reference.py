"""The packed flight recorder against its frozen tuple-appending
reference (``tests/_reference_recorder.py``), plus the two properties
the packing exists for: a frame hop retains no Python object, and
``events`` still reads as the sequence of event tuples it always was.

The differential runs ONE simulation per case with a tee recorder that
forwards every hook — tokens paired — to both, so the two see the very
same frames (raw ``frame_id`` included) at the very same clock.
"""

import gc
from dataclasses import replace

import pytest
from _reference_recorder import FlightRecorder as ReferenceRecorder

from repro import obs
from repro.chaos import timed_fault
from repro.mpi.ops import SUM
from repro.runtime import run_spmd
from repro.simnet import PartitionError, quiet
from repro.simnet.calibration import (FAST_ETHERNET_HUB,
                                      FAST_ETHERNET_SWITCH)
from repro.simnet.frame import MCAST_BASE, Frame
from repro.simnet.trace import RecorderHooks

QUIET = quiet(FAST_ETHERNET_SWITCH)
LOSSY = replace(QUIET, loss=0.05, label="lossy-test")


# ------------------------------------------------------------- the tee
class Tee(RecorderHooks):
    """Every hook goes to both recorders; a ``*_begin`` token is the
    pair of their tokens, handed back one each by the ``*_end``."""

    def __init__(self, cluster):
        self.pair = (obs.FlightRecorder(), ReferenceRecorder())
        for rec in self.pair:
            cluster.stats.recorder = None
            rec.attach(cluster)
        cluster.stats.recorder = self
        self.hang_report = None


def _forward(name):
    def hook(self, now, *args, **kwargs):
        if name.endswith("_end"):
            tokens, args = args[0], args[1:]
            live, ref = (getattr(rec, name)(now, token, *args, **kwargs)
                         for rec, token in zip(self.pair, tokens))
        else:
            live, ref = (getattr(rec, name)(now, *args, **kwargs)
                         for rec in self.pair)
        if name.endswith("_begin"):
            return (live, ref)
        assert live == ref          # collective_end's metrics record
        return live
    return hook


for _name in vars(RecorderHooks):
    if not _name.startswith("_"):
        setattr(Tee, _name, _forward(_name))


def _calls(rec):
    return [call.as_dict() | {"addr": call.addr} for call in rec.calls]


def _assert_same(tee, cluster):
    live, ref = tee.pair
    assert isinstance(ref.events, list) and ref.events
    assert list(live.events) == ref.events
    assert len(live.events) == len(ref.events)
    assert _calls(live) == _calls(ref)
    assert live.outside_frames == ref.outside_frames
    assert live.outside_trunk == ref.outside_trunk
    assert live.frame_totals() == ref.frame_totals()
    assert live.open_rounds() == ref.open_rounds()
    assert obs.perfetto_json([live]) == obs.perfetto_json([ref])
    assert obs.text_report([live]) == obs.text_report([ref])
    dumps = []
    for rec in tee.pair:
        cluster.stats.recorder = rec
        dumps.append(obs.build_hang_dump(cluster, "differential"))
    cluster.stats.recorder = tee
    assert dumps[0] == dumps[1]
    assert "-- last 40 of" in dumps[0]


def _mixed(env):
    obj = yield from env.comm.bcast(
        bytes(9000) if env.rank == 0 else None, root=0)
    vals = yield from env.comm.gather(env.rank, root=0)
    yield from env.comm.barrier()
    total = yield from env.comm.allreduce(env.rank, SUM)
    return (len(obj), vals, total)


FLAT = {"bcast": "mcast-seg-nack", "barrier": "mcast"}
HIER = {"bcast": "hier-mcast", "gather": "hier-mcast",
        "barrier": "hier-mcast", "allreduce": "hier-mcast"}

CASES = {
    "hub": dict(n=5, topology="hub", params=quiet(FAST_ETHERNET_HUB),
                collectives={"bcast": "mcast-binary"}),
    "switch": dict(n=6, topology="switch", params=QUIET,
                   collectives=FLAT),
    "flat-lossy": dict(n=8, topology="tree:2x4", params=LOSSY,
                       collectives=FLAT),
    "hier-lossy": dict(n=8, topology="tree:2x2x2", params=LOSSY,
                       collectives=HIER),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_packed_recorder_equals_reference(case):
    spec = dict(CASES[case])
    tees = []
    result = run_spmd(spec.pop("n"), _mixed, seed=11,
                      on_cluster=lambda c: tees.append(Tee(c)), **spec)
    _assert_same(tees[0], result.cluster)
    live = tees[0].pair[0]
    cats = {ev[2] for ev in live.events}
    assert {"frame", "collective"} <= cats
    if "lossy" in case:
        assert any(c.repair_rounds for c in live.calls), \
            "lossy run produced no repair rounds"


def test_packed_recorder_equals_reference_under_trunk_cut():
    """Chaos spans, a typed failure and open rounds: the dump run_spmd
    parks (built through the tee, so from neither recorder's events)
    is rebuilt from each recorder and must agree."""
    tees = []

    def on_cluster(cluster):
        tees.append(Tee(cluster))
        timed_fault(cluster, "cut", 3000.0,
                    lambda: cluster.fabric.partition_trunk((1,)))

    def main(env):
        out = yield from env.comm.bcast(
            b"y" * 30_000 if env.rank == 0 else None, root=0)
        return len(out)

    with pytest.raises(PartitionError) as info:
        run_spmd(4, main, topology="tree:2x2", params=QUIET, seed=2,
                 collectives={"bcast": "mcast-seg-nack"},
                 on_cluster=on_cluster)
    live = tees[0].pair[0]
    assert any(ev[2] == "chaos" for ev in live.events)
    assert live.open_rounds()
    _assert_same(tees[0], info.value.repro_cluster)


# ----------------------------------------------------- retention guard
N_SYNTHETIC = 50_000


def _pump(rec, n):
    """``n`` frame hooks, all four kinds, over recycled frames — what
    the devices do to a recorder, minus the devices."""
    frames = [Frame(src, MCAST_BASE + 3, 1400, None, kind=kind)
              for src, kind in ((0, "mcast-seg"), (1, "scout"),
                                (2, "p2p"), (7, "seg-report"))]
    for i in range(0, n, 4):
        frame = frames[(i // 4) % 4]
        frame.frame_id = i
        now = i * 1.25
        rec.frame_sent(now, frame, f"h{frame.src}.up")
        rec.frame_switched(now, frame, "leaf0", 3)
        rec.frame_forwarded(now, frame, "leaf0.p1", i % 8 == 0)
        rec.frame_delivered(now, frame, 2)


def test_frame_events_retain_no_objects():
    """The property that buys the gain: recording a frame hop leaves no
    Python object behind for the collector to walk, and costs at most
    64 bytes.  A per-event tuple creeping back fails this at once (the
    reference retains ~6 tracked objects per event)."""
    rec = obs.FlightRecorder()
    token = rec.collective_begin(0.0, 0, 0, "bcast", "mcast-seg-nack")
    _pump(rec, 400)                 # intern every kind / via / counter
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        _pump(rec, N_SYNTHETIC)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    rec.collective_end(N_SYNTHETIC * 2.0, token)
    assert len(rec.events) == 400 + N_SYNTHETIC + 1
    assert grown < 50, f"{grown} objects retained by {N_SYNTHETIC} events"
    assert len(rec._rows) / len(rec.events) <= 64
    # ... and they were recorded, not dropped
    assert rec.calls[0].frames_by_kind["mcast-seg"] \
        == (400 + N_SYNTHETIC) // 16
    assert rec.events[-2][3] == "recv:seg-report"


# ------------------------------------------------------ view semantics
def test_events_view_is_a_read_only_sequence():
    rec, ref = obs.FlightRecorder(), ReferenceRecorder()
    assert not rec.events and len(rec.events) == 0
    for r in (rec, ref):
        _pump(r, 100)
        r.chaos_fault_end(130.0, r.chaos_fault_begin(120.0, "cut"))
        _pump(r, 20)
    events = rec.events
    assert events and len(events) == 122 == len(ref.events)
    assert list(events) == ref.events
    assert events[0] == ref.events[0] and events[-1] == ref.events[-1]
    assert events[101] == ("span", -1, "chaos", "fault:cut", 120.0, 130.0,
                           ())
    assert events[-40:] == list(events)[-40:] == ref.events[-40:]
    assert events[5:60:7] == ref.events[5:60:7]
    assert events[500:] == []
    assert list(reversed(events)) == ref.events[::-1]
    assert ref.events[3] in events
    for bad in (122, -123):
        with pytest.raises(IndexError):
            events[bad]
    with pytest.raises(AttributeError):
        rec.events = []
    with pytest.raises(TypeError):
        events[0] = None
    # a view taken earlier sees what was recorded since
    _pump(rec, 4)
    assert len(events) == 126


def test_rank_is_resolved_at_record_time():
    """An event recorded before its host's first ``collective_begin``
    reads ``rank == -1`` for good; a sub-communicator giving the host
    another rank later re-labels only what follows."""
    rec = obs.FlightRecorder()
    frame = Frame(9, MCAST_BASE, 64, None, kind="igmp")
    rec.frame_sent(1.0, frame, "h9.up")
    rec.collective_end(3.0, rec.collective_begin(2.0, 9, 4, "bcast", "x"))
    rec.frame_sent(4.0, frame, "h9.up")
    rec.collective_end(6.0, rec.collective_begin(5.0, 9, 1, "bcast", "x"))
    rec.frame_delivered(7.0, frame, 9)
    assert [ev[1] for ev in rec.events] == [-1, 4, 4, 1, 1]
    assert rec.outside_frames == {"igmp": 2}
