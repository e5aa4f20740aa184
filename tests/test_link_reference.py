"""The record-economy :class:`HalfLink` against the historical one.

``tests/_reference_link.py`` is the link as it stood before PR 14: one
``done`` event and one end-of-serialization wake-up per frame.  The live
link schedules neither unless somebody observes it, so the two must
agree on everything a device, a test or ``NetStats`` can see — arrival
timestamps and order, completion timestamps, every counter — under any
send schedule, while the live link dispatches fewer kernel records.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import topology
from repro.simnet.calibration import (FAST_ETHERNET_HUB,
                                      FAST_ETHERNET_SWITCH, quiet)
from repro.simnet.frame import Frame, mcast_mac
from repro.simnet.kernel import Simulator
from repro.simnet.link import HalfLink
from repro.simnet.stats import NetStats

from _reference_link import HalfLink as ReferenceHalfLink

PARAMS = quiet(FAST_ETHERNET_SWITCH)
COUNTERS = ("frames_sent", "frames_forwarded", "frames_trunk",
            "drops_chaos", "dups_chaos", "delays_chaos")
FATES = (None, "deliver", "drop", "dup", ("delay", 7.5), ("delay", 300.0))


def wire_us(size: int) -> float:
    return Frame(src=0, dst=1, size=size, payload=None).wire_time_us(
        PARAMS.rate_mbps)


def drive(link_cls, schedule, *, count_as_send, is_trunk, fates, cuts):
    """Run one send schedule through ``link_cls``; return what the world
    saw.  ``schedule`` is ``[(at_us, size, want_completion)]`` (frame *i*
    is tagged ``i``), ``fates[i]`` is frame *i*'s fault verdict and
    ``cuts`` are ``(at_us, up)`` cable toggles."""
    sim = Simulator()
    stats = NetStats()
    arrivals, completions = [], []
    link = link_cls(sim, PARAMS, stats,
                    deliver=lambda f: arrivals.append((sim.now, f.payload)),
                    name="dut", count_as_send=count_as_send,
                    is_trunk=is_trunk)
    if any(f is not None for f in fates):
        link.fault = lambda frame, _link: fates[frame.payload]

    def send(i, size, want):
        frame = Frame(src=0, dst=1, size=size, payload=i)

        def done(_ok=True):
            completions.append((sim.now, i))

        if link_cls is HalfLink:
            link.send(frame, done if want else None)
        else:
            ev = link.send(frame)
            if want:
                ev.add_callback(lambda _ev: done())

    for i, (at, size, want) in enumerate(schedule):
        sim.schedule_call(at, send, i, size, want)
    for at, up in cuts:
        sim.schedule_call(at, setattr, link, "up", up)
    end = sim.run()
    assert link.queue_depth == 0
    return {"arrivals": arrivals, "completions": completions, "end": end,
            "counters": {c: getattr(stats, c) for c in COUNTERS},
            "records": sim.processed}


@st.composite
def schedules(draw):
    """Send instants built to hit the transmitter's edges: a send on an
    idle wire, a burst at one instant, a send landing *exactly* when the
    wire falls idle, one exactly on an earlier frame boundary with
    frames still queued, one mid-frame, one after a gap."""
    n = draw(st.integers(1, 12))
    sends, at, free_at, bounds = [], 0.0, 0.0, []
    for _ in range(n):
        size = draw(st.sampled_from((0, 46, 100, 962, 1462)))
        step = draw(st.sampled_from(
            ("burst", "at-free", "boundary", "mid", "gap")))
        if step == "at-free":
            at = max(at, free_at)
        elif step == "boundary":
            at = draw(st.sampled_from([b for b in bounds if b >= at] or [at]))
        elif step == "mid":
            at = max(at, free_at - draw(st.sampled_from((0.5, 3.0, 40.0))))
        elif step == "gap":
            at = max(at, free_at) + draw(st.sampled_from((0.25, 10.0, 500.0)))
        free_at = max(at, free_at) + wire_us(size)
        bounds.append(free_at)
        sends.append((at, size, draw(st.booleans())))
    fates = ([None] * n if draw(st.booleans()) else
             [draw(st.sampled_from(FATES)) for _ in range(n)])
    cuts = draw(st.lists(
        st.tuples(st.sampled_from((0.0, 45.0, 81.0, 250.0, 900.0)),
                  st.booleans()), max_size=3))
    return sends, fates, sorted(cuts)


@settings(max_examples=150, deadline=None)
@given(schedules(), st.booleans(), st.booleans())
def test_live_link_matches_reference(case, count_as_send, is_trunk):
    sends, fates, cuts = case
    kw = dict(count_as_send=count_as_send, is_trunk=is_trunk, fates=fates,
              cuts=cuts)
    ref = drive(ReferenceHalfLink, sends, **kw)
    live = drive(HalfLink, sends, **kw)
    records = live.pop("records"), ref.pop("records")
    assert live == ref          # exact floats, exact order
    assert records[0] <= records[1]


SETTLE = PARAMS.switch_latency_us


class _Starts:
    """Recorder stub: notes, per frame tag, whether the link had a fault
    hook when the frame started serializing."""

    def __init__(self, link):
        self.link = link
        self.hooked = {}

    def frame_sent(self, _now, frame, _via):
        self.hooked[frame.payload] = self.link.fault is not None

    def frame_forwarded(self, now, frame, via, _trunk):
        self.frame_sent(now, frame, via)


def drive_settled(link_cls, schedule, *, count_as_send, is_trunk, fates,
                  hook_at):
    """Run one send schedule into a far end with a fixed delay of
    ``SETTLE``: the live link wired with it (``settle_us``) against the
    reference link followed by the far end's own record.  The far end
    logs ``(time, last bit, frame tag)``.  A fault hook is installed at
    ``hook_at`` (never, if ``None``); it is offered the frames that start
    serializing while it is installed — the live link's rule, since a
    frame in flight is already booked into its folded record."""
    sim = Simulator()
    stats = NetStats()
    far, completions = [], []

    def far_end(frame, at=None):
        if at is None:          # at the last bit: pay the delay first
            sim.schedule_call(SETTLE, far_end, frame, sim.now)
        else:
            far.append((sim.now, at, frame.payload))

    kw = dict(name="dut", count_as_send=count_as_send, is_trunk=is_trunk)
    if link_cls is HalfLink:
        link = HalfLink(sim, PARAMS, stats, deliver=far_end,
                        settle_us=SETTLE, **kw)
    else:
        link = link_cls(sim, PARAMS, stats, deliver=far_end, **kw)
    stats.recorder = starts = _Starts(link)

    def hook(frame, _link):
        return fates[frame.payload] if starts.hooked[frame.payload] else None

    def send(i, size, want):
        frame = Frame(src=0, dst=1, size=size, payload=i)
        if link_cls is HalfLink:
            link.send(frame, (lambda _ok: completions.append((sim.now, i)))
                      if want else None)
        else:
            ev = link.send(frame)
            if want:
                ev.add_callback(lambda _ev: completions.append((sim.now, i)))

    for i, (at, size, want) in enumerate(schedule):
        sim.schedule_call(at, send, i, size, want)
    if hook_at is not None:
        sim.schedule_call(hook_at, setattr, link, "fault", hook)
    end = sim.run()
    return {"far": far, "completions": completions, "end": end,
            "counters": {c: getattr(stats, c) for c in COUNTERS},
            "records": sim.processed}


@settings(max_examples=200, deadline=None)
@given(schedules(), st.sampled_from((None, 0.0, 45.0, 81.0, 250.0, 900.0)),
       st.booleans(), st.booleans())
def test_folded_hop_matches_reference_plus_settle_record(case, hook_at,
                                                         count_as_send,
                                                         is_trunk):
    """The far end's fixed delay folded into the arrival record is the
    same hop as the historical link followed by a separate settle
    record: the far end sees the same frames at the same instants, in
    the same order, with the same last-bit timestamps, and every
    counter agrees — whether or not a fault hook (installed partway
    through) sends some frames down the two-record path.  Cable cuts are
    left out: the folded record reads ``up`` ``SETTLE`` after the last
    bit (docs/CHAOS.md)."""
    sends, fates, _cuts = case
    kw = dict(count_as_send=count_as_send, is_trunk=is_trunk, fates=fates,
              hook_at=hook_at)
    ref = drive_settled(ReferenceHalfLink, sends, **kw)
    live = drive_settled(HalfLink, sends, **kw)
    records = live.pop("records"), ref.pop("records")
    assert live == ref          # exact floats, exact order
    assert records[0] < records[1]


def test_idle_send_costs_one_record_reference_three():
    """The rule itself: nobody observes the end of serialization of a
    lone frame, so only its arrival is scheduled."""
    sends = [(0.0, 962, False)]
    kw = dict(count_as_send=False, is_trunk=False, fates=[None], cuts=[])
    # +1: the schedule_call that issues the send
    assert drive(HalfLink, sends, **kw)["records"] == 1 + 1
    assert drive(ReferenceHalfLink, sends, **kw)["records"] == 1 + 3


def test_burst_pumps_once_per_queued_frame():
    """N frames at one instant: N arrivals + N-1 wake-ups (each starts
    the next queued frame), against 3N on the reference."""
    n = 5
    sends = [(0.0, 962, False)] * n
    kw = dict(count_as_send=True, is_trunk=False, fates=[None] * n, cuts=[])
    live = drive(HalfLink, sends, **kw)
    assert live["records"] == n + (2 * n - 1)
    assert [t for t, _ in live["arrivals"]] == pytest.approx(
        [80.0 * (i + 1) + PARAMS.prop_delay_us for i in range(n)])


def test_send_at_exactly_free_at_starts_at_once_and_keeps_fifo():
    """A send landing on the instant the wire falls idle takes it without
    a wake-up; one queued behind it in the same instant still follows."""
    t = wire_us(962)
    sends = [(0.0, 962, True), (t, 100, False), (t, 46, True)]
    kw = dict(count_as_send=True, is_trunk=False, fates=[None] * 3, cuts=[])
    live = drive(HalfLink, sends, **kw)
    assert live == {**drive(ReferenceHalfLink, sends, **kw),
                    "records": live["records"]}
    assert [i for _, i in live["arrivals"]] == [0, 1, 2]
    assert live["completions"] == [(t, 0), (t + wire_us(100) + wire_us(46), 2)]


# ------------------------------------------ copies sharing one record
class _CountingSimulator(Simulator):
    """The kernel as it is, counting the fan-out pushes that joined an
    open record instead of opening their own."""

    def __init__(self):
        super().__init__()
        self.joined = 0

    def schedule_fanout(self, due, fn, *args):
        seq = self._seq
        super().schedule_fanout(due, fn, *args)
        self.joined += self._seq == seq


class _UnsharedSimulator(_CountingSimulator):
    """Every fan-out copy in a heap record of its own."""

    schedule_fanout = Simulator.schedule_at


PORT, GROUPS = 7000, tuple(map(mcast_mac, (1, 2, 3)))   # 3rd: no member


@st.composite
def traffic(draw):
    """Datagrams from random hosts to a group or one host, at instants
    built to tie (a burst at one instant, sends on a few fixed marks),
    plus one mid-run leave and a fault hook on one downlink."""
    marks = st.sampled_from((0.0, 0.0, 40.0, 400.0, 1234.5))
    sends = draw(st.lists(st.tuples(
        marks, st.integers(0, 7), st.sampled_from(GROUPS + (0, 1, 2, 3)),
        st.sampled_from((1, 300, 1400, 3000))), min_size=1, max_size=10))
    members = draw(st.lists(st.sets(st.integers(0, 7)), min_size=2,
                            max_size=2))
    leave = draw(st.tuples(marks, st.integers(0, 7)))
    fates = draw(st.lists(st.sampled_from(FATES), min_size=1, max_size=8))
    hook = draw(st.tuples(marks, st.integers(0, 7)))
    return sends, members, leave, fates, hook


def drive_cluster(sim_cls, fabric, params, case):
    """Run ``case`` on a fresh cluster built over ``sim_cls``; return
    every socket arrival and receive completion ``(time, host, tag)``,
    the ``NetStats`` counters, every host's jitter stream state, the
    records dispatched and the pushes that joined a record."""
    sends, members, (leave_at, leaver), fates, (hook_at, victim) = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(topology, "Simulator", sim_cls)
        cluster = topology.build_cluster(8, fabric, params=params, seed=3)
    sim, seen = cluster.sim, []
    socks = [host.socket(PORT) for host in cluster.hosts]
    for addr, sock in enumerate(socks):
        for group, joined in zip(GROUPS, members):
            if addr in joined:
                sock.join(group)
        cluster.hosts[addr].frame_fate = (lambda d, addr=addr: seen.append(
            (sim.now, addr, "in", d.payload)))

    def receiver(addr):
        while True:
            dgram = yield from socks[addr].recv()
            seen.append((sim.now, addr, "recv", dgram.payload))

    def sender(i, at, src, dst, size):
        yield sim.timeout(1000.0 + at)      # past the IGMP reports
        yield from socks[src].sendto(i, size, dst, PORT)

    for addr in range(8):
        sim.process(receiver(addr), daemon=True)
    for i, (at, src, dst, size) in enumerate(sends):
        sim.process(sender(i, at, src, dst, size))
    sim.schedule_call(1000.0 + leave_at, socks[leaver].leave, GROUPS[0])
    if cluster.host_links:
        fate = itertools.cycle(fates)
        sim.schedule_call(1000.0 + hook_at, setattr,
                          cluster.host_links[victim][1], "fault",
                          lambda _frame, _link: next(fate))
    sim.run()
    return {"seen": seen, "stats": cluster.stats.snapshot(),
            "rng": [host.rng.getstate() for host in cluster.hosts],
            "end": sim.now}, sim.processed, sim.joined


@settings(max_examples=60, deadline=None)
@given(traffic(), st.sampled_from(("tree:2x4", "hub")), st.booleans())
def test_shared_fanout_record_matches_one_record_per_copy(case, fabric,
                                                          jitter):
    """Copies that land at one instant in one kernel record are the
    same run as one record per copy: every arrival and receive
    completion at the same instant (exact floats) in the same order,
    every ``NetStats`` counter and every host's jitter stream equal —
    over switched fabrics and the hub, jitter on and off, with a link
    fault hook installed partway through — and the records saved are
    exactly the pushes that joined."""
    base = FAST_ETHERNET_HUB if fabric == "hub" else FAST_ETHERNET_SWITCH
    params = base if jitter else quiet(base)
    want, records_unshared, none_joined = drive_cluster(
        _UnsharedSimulator, fabric, params, case)
    got, records, joined = drive_cluster(
        _CountingSimulator, fabric, params, case)
    assert got == want
    assert none_joined == 0 and records_unshared - records == joined


def test_shared_fanout_record_joins_a_multicast():
    """Non-vacuity: a multicast to every host shares records."""
    case = ([(0.0, 0, GROUPS[0], 3000)], [set(range(8)), set()],
            (0.0, 0), [None], (0.0, 0))
    for fabric in ("tree:2x4", "hub"):
        want, records_unshared, _ = drive_cluster(
            _UnsharedSimulator, fabric, quiet(FAST_ETHERNET_SWITCH), case)
        got, records, joined = drive_cluster(
            _CountingSimulator, fabric, quiet(FAST_ETHERNET_SWITCH), case)
        assert got == want and joined > 0
        assert records_unshared - records == joined
