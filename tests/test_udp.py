"""UDP socket semantics: buffering, posted-only mode, drops, timeouts.

These tests pin down the paper's §2 unreliability model: a multicast
datagram reaching a host with no posted receive (posted-only mode) or no
buffer space (buffered mode) is silently dropped and *counted*.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import McastChannel
from repro.simnet import build_cluster, quiet
from repro.simnet.calibration import FAST_ETHERNET_HUB, FAST_ETHERNET_SWITCH
from repro.simnet.ip import Datagram
from repro.simnet.ipstack import PortInUse
from repro.simnet.udp import SocketClosed, UdpSocket

from _reference_udp import UdpSocket as ReferenceUdpSocket


def make2(topology="hub", **kw):
    params = quiet(FAST_ETHERNET_HUB if topology == "hub"
                   else FAST_ETHERNET_SWITCH)
    cl = build_cluster(2, topology, params=params, **kw)
    return cl, cl.sim, cl.hosts[0], cl.hosts[1]


def test_buffered_socket_queues_early_datagram():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100)
    tx = h0.socket(101)
    got = []

    def sender():
        yield from tx.sendto("early", 32, dst=1, dst_port=100)

    def receiver():
        yield sim.timeout(5000)         # recv posted long after arrival
        d = yield from rx.recv()
        got.append(d.payload)

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert got == ["early"]
    assert cl.stats.drops_not_posted == 0


def test_posted_only_socket_drops_unposted():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    tx = h0.socket(101)
    got = []

    def sender():
        yield from tx.sendto("lost", 32, dst=1, dst_port=100)
        yield sim.timeout(1000)
        yield from tx.sendto("caught", 32, dst=1, dst_port=100)

    def receiver():
        yield sim.timeout(500)          # too late for the first datagram
        d = yield from rx.recv()
        got.append(d.payload)

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert got == ["caught"]
    assert cl.stats.drops_not_posted == 1
    assert rx.rx_dropped == 1


def test_posted_before_arrival_catches_datagram():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    tx = h0.socket(101)
    got = []

    def receiver():
        d = yield from rx.recv()        # posted at t=0
        got.append(d.payload)

    def sender():
        yield sim.timeout(200)
        yield from tx.sendto("ok", 32, dst=1, dst_port=100)

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert got == ["ok"]
    assert cl.stats.drops_not_posted == 0


def test_buffer_overrun_drops_and_counts():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, buffer_bytes=100)
    tx = h0.socket(101)

    def sender():
        for i in range(4):
            yield from tx.sendto(i, 40, dst=1, dst_port=100)

    sim.process(sender())
    sim.run()
    # 100-byte buffer holds two 40-byte datagrams; the rest drop.
    assert rx.queue_depth == 2
    assert cl.stats.drops_buffer_full == 2


def test_recv_timeout_returns_none():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100)
    out = []

    def receiver():
        d = yield from rx.recv(timeout=250.0)
        out.append(d)

    sim.process(receiver())
    sim.run()
    assert out == [None]
    assert sim.now == pytest.approx(250.0)


def test_recv_timeout_cancels_posted_receive():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    tx = h0.socket(101)
    out = []

    def receiver():
        d = yield from rx.recv(timeout=100.0)
        out.append(d)

    def sender():
        yield sim.timeout(500)
        yield from tx.sendto("late", 16, dst=1, dst_port=100)

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert out == [None]
    # the cancelled post no longer catches: the late datagram is dropped
    assert cl.stats.drops_not_posted == 1


def test_port_conflict_rejected():
    cl, sim, h0, h1 = make2()
    h0.socket(100)
    with pytest.raises(PortInUse):
        h0.socket(100)


def test_ephemeral_ports_unique():
    cl, sim, h0, h1 = make2()
    s1 = h0.socket()
    s2 = h0.socket()
    assert s1.port != s2.port


def test_close_unbinds_and_leaves_groups():
    from repro.simnet.frame import mcast_mac

    cl, sim, h0, h1 = make2()
    grp = mcast_mac(1000)
    s = h1.socket(100)
    s.join(grp)
    sim.run()
    assert h1.ipstack.member_of(grp)
    s.close()
    assert not h1.ipstack.member_of(grp)
    # port is free again
    h1.socket(100)


def test_multicast_needs_socket_join_not_just_nic():
    """Two sockets on one port cannot exist; but a socket bound to the
    right port that did NOT join the group must not receive."""
    cl, sim, h0, h1 = make2()
    from repro.simnet.frame import mcast_mac

    grp = mcast_mac(1001)
    rx = h1.socket(100)                 # bound, not joined
    # Make the NIC accept the frame anyway (another socket joined).
    other = h1.socket(101)
    other.join(grp)
    tx = h0.socket(102)

    def sender():
        yield sim.timeout(50)
        yield from tx.sendto("grp-data", 32, dst=grp, dst_port=100)

    sim.process(sender())
    sim.run()
    assert rx.queue_depth == 0
    assert cl.stats.drops_no_listener >= 1


def test_mcast_loop_delivers_local_copy():
    from repro.simnet.frame import mcast_mac

    cl, sim, h0, h1 = make2()
    grp = mcast_mac(1002)
    sock = h0.socket(100)
    sock.join(grp)
    got = []

    def run():
        yield from sock.sendto("self", 16, dst=grp, dst_port=100)
        d = yield from sock.recv()
        got.append(d.payload)

    sim.process(run())
    sim.run()
    assert got == ["self"]


def test_mcast_loop_off_suppresses_local_copy():
    from repro.simnet.frame import mcast_mac

    cl, sim, h0, h1 = make2()
    grp = mcast_mac(1003)
    sock = h0.socket(100, mcast_loop=False)
    sock.join(grp)
    got = []

    def run():
        yield from sock.sendto("self", 16, dst=grp, dst_port=100)
        d = yield from sock.recv(timeout=2000)
        got.append(d)

    sim.process(run())
    sim.run()
    assert got == [None]


def test_closed_socket_rejects_operations():
    cl, sim, h0, h1 = make2()
    s = h0.socket(100)
    s.close()
    with pytest.raises(SocketClosed):
        s.post_ring(1, bool)        # repro-lint: skip=LEAK01 -- raises


def test_fragmented_datagram_reassembles():
    """A 5000-byte datagram crosses as 4 frames and arrives whole."""
    cl, sim, h0, h1 = make2(topology="switch")
    rx = h1.socket(100)
    tx = h0.socket(101)
    got = []

    def receiver():
        d = yield from rx.recv()
        got.append((d.payload, d.size))

    def sender():
        yield from tx.sendto("big", 5000, dst=1, dst_port=100)

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert got == [("big", 5000)]
    assert cl.stats.frames_sent == 4  # paper's floor(M/T)+1 with M=5000


def test_close_fails_pending_posted_recv():
    """Regression: closing a socket used to leave posted receives
    pending forever, surfacing as an end-of-sim DeadlockError instead of
    a clear error at the blocked receiver."""
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100)
    caught = []

    def receiver():
        try:
            yield from rx.recv()
        except SocketClosed as exc:
            caught.append(exc)

    def closer():
        yield sim.timeout(100)
        rx.close()

    sim.process(receiver())
    sim.process(closer())
    sim.run()                        # DeadlockError here before the fix
    assert len(caught) == 1


def test_draining_a_ring_whose_socket_closed_raises_socket_closed():
    """A posted ring whose socket closes before its owner drains it (as
    ``stream_rounds`` posts before its arming gather and drains after
    it): ``drain`` hands the failed ring back untouched, arming no
    timer, and the owner's ``yield`` raises the stored SocketClosed."""
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    caught, rings = [], []

    def owner():
        ring = rx.post_ring(2, lambda d: False)
        rings.append(ring)
        try:
            yield sim.timeout(10.0)
            yield ring.drain(1000.0)
        except SocketClosed:
            caught.append(sim.now)
        finally:
            ring.close()

    sim.process(owner())
    sim.schedule_call(5.0, rx.close)
    sim.run()
    assert caught == [10.0] and sim.now == 10.0
    assert rings[0].timer is None and rx.posted_depth == 0


def test_close_fails_every_pending_descriptor():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    ring = rx.post_ring(3, lambda d: False)
    try:
        rx.close()
        sim.run()
        assert ring.triggered and not ring.ok
        assert isinstance(ring._value, SocketClosed)
        assert rx.posted_depth == 0
    finally:
        ring.close()


def test_ring_close_withdraws_the_unfilled_descriptors():
    """A drained ring takes a datagram into its first descriptor;
    closing it withdraws the two still empty, so the next datagram is a
    counted drop."""
    cl, sim, h0, h1 = make2(topology="switch")
    rx = h1.socket(100, posted_only=True)
    tx = h0.socket(101)
    got = []

    def sender(payload):
        yield from tx.sendto(payload, 32, dst=1, dst_port=100)

    ring = rx.post_ring(3, lambda d: got.append(d.payload))
    try:
        ring.drain(None)
        sim.process(sender("one"))
        sim.run()
        assert got == ["one"] and rx.posted_depth == 2
        assert not ring.triggered
    finally:
        ring.close()
    assert rx.posted_depth == 0
    sim.process(sender("two"))
    sim.run()
    # nothing was posted any more: the datagram is a counted drop
    assert got == ["one"] and cl.stats.drops_not_posted == 1


def test_posted_depth_and_high_water_track_the_descriptor_ring():
    """posted_depth reports live descriptors; posted_high_water records
    the largest ring ever held — what a budget-limited receiver's
    sliding window in the segmented collectives must stay under."""
    cl, sim, h0, h1 = make2(topology="switch")
    rx = h1.socket(100, posted_only=True)
    tx = h0.socket(101)
    assert rx.posted_depth == 0 and rx.posted_high_water == 0

    ring = rx.post_ring(3, lambda d: False)
    try:
        assert rx.posted_depth == 3 and rx.posted_high_water == 3

        def sender():
            yield from tx.sendto("fill", 32, dst=1, dst_port=100)

        sim.process(sender())
        sim.run()
        assert rx.posted_depth == 2         # one descriptor consumed
        assert rx.posted_high_water == 3    # high water is sticky
    finally:
        ring.close()
    assert rx.posted_depth == 0
    assert rx.posted_high_water == 3


# ------------------------------------------------- receive completion
# A datagram that fills the descriptor a process is parked on, CPU idle,
# is charged in the record that completes the receive: one kernel record
# and one resume instead of two.  Every other case runs the two-step
# path — a zero-delay fill record, then the charge.  ``recv`` is a ring
# of one, so these are the ring's paths too.  The oracle is the socket's
# former receive path, kept in tests/_reference_udp.py: a descriptor
# event per receive, charged by ``cpu.use`` when the process resumes,
# with that one shortcut in ``_accept`` (TwoStepSocket turns it off).
class TwoStepSocket(ReferenceUdpSocket):
    def _accept(self, dgram):
        self._parked = None
        super()._accept(dgram)


def dgram_to(sock, payload, kind="data", size=64):
    return Datagram(src=0, src_port=9, dst=sock.host.addr,
                    dst_port=sock.port, payload=payload, size=size,
                    kind=kind)


def parked_receiver(sim, sock, out, daemon=False):
    """A process parked in ``sock.recv()``, appending ``(payload,
    completion time)`` to ``out``."""
    def receiver():
        d = yield from sock.recv()
        out.append((d and d.payload, sim.now))

    return sim.process(receiver(), daemon=daemon)


def test_parked_idle_receive_costs_one_record():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    out = []
    parked_receiver(sim, rx, out)
    sim.run(until=5.0)                  # parked; nothing pending
    assert sim.peek() == float("inf")
    sim.schedule_call(5.0, rx._deliver, dgram_to(rx, "x", "mcast-seg"))
    before = sim.processed
    sim.run(until=5.0)                  # the arrival: fill + charge
    assert h1.cpu.held and out == [] and sim.processed - before == 1
    cost = rx.recv_cost_us + rx.params.mcast_recv_extra_us
    assert sim.peek() == 5.0 + cost
    sim.run(until=5.0 + cost)           # ONE record later: the return
    assert out == [("x", 5.0 + cost)]
    assert not h1.cpu.held and cl.stats.datagrams_delivered == 1
    # the charge record, then the finished process's own completion
    assert sim.processed - before == 3


def test_charge_holds_the_cpu_for_exactly_the_receive_cost():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100)
    out, grants = [], []
    parked_receiver(sim, rx, out)

    def competitor():
        yield sim.timeout(20.0)         # mid-charge: queues behind it
        yield from h1.cpu.use(5.0)
        grants.append(sim.now)

    sim.process(competitor())
    sim.schedule_call(10.0, rx._deliver, dgram_to(rx, "x"))
    sim.run(until=15.0)
    assert h1.cpu.held and out == []    # charged at the fill
    sim.run()
    assert out == [("x", 10.0 + rx.recv_cost_us)]
    assert grants == [10.0 + rx.recv_cost_us + 5.0]
    assert not h1.cpu.held


def test_descriptor_filled_before_the_wait_takes_two_steps():
    """A datagram queued before the receive fills the ring of one in a
    zero-delay record when it is posted; its charge follows."""
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100)
    sim.schedule_call(10.0, rx._deliver, dgram_to(rx, "early"))
    sim.run()
    assert rx.queue_depth == 1 and not h1.cpu.held  # nobody to charge
    out = []
    sim.schedule_call(10.0, parked_receiver, sim, rx, out)
    before = sim.processed
    sim.run()
    assert out == [("early", 20.0 + rx.recv_cost_us)]
    assert not h1.cpu.held and rx.queue_depth == 0
    # the call, the process's boot, the fill, the charge, its return
    assert sim.processed - before == 5


def test_cpu_held_at_fill_queues_behind_the_holder():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    out = []
    parked_receiver(sim, rx, out)
    sim.process(h1.cpu.use(100.0))      # holds the CPU over [0, 100)
    sim.schedule_call(50.0, rx._deliver, dgram_to(rx, "x"))
    sim.run()
    assert out == [("x", 100.0 + rx.recv_cost_us)]
    assert not h1.cpu.held


@pytest.mark.parametrize("waiter", ["process", "callback"])
def test_foreign_waiter_is_never_charged(waiter):
    """Only a ring being drained is charged — the ring knows it is; it
    does not guess from who waits on it."""
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    ring = rx.post_ring(1, lambda d: True)
    seen = []
    try:
        if waiter == "process":         # parked on the undrained ring
            def proc():
                seen.append((yield ring))
            sim.process(proc(), daemon=True)
        else:
            ring.add_callback(lambda e: seen.append(e.value))
        sim.schedule_call(10.0, rx._deliver, dgram_to(rx, "x"))
        sim.schedule_call(10.0, lambda: seen.append(h1.cpu.held))
        sim.run()
        assert seen == [False] and not h1.cpu.held
        assert ring.filled == 1 and rx.posted_depth == 0
        assert cl.stats.datagrams_delivered == 0    # nobody finished it
    finally:
        ring.close()


def test_exception_into_the_parked_waiter_mid_charge_releases_the_cpu():
    """GeneratorExit at the waiter's ``yield`` (``gen.close()``, what
    CPython does to an abandoned simulation's ranks) closes the ring,
    which gives back the CPU its charge holds."""
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    out = []
    proc = parked_receiver(sim, rx, out, daemon=True)
    sim.schedule_call(10.0, rx._deliver, dgram_to(rx, "x"))
    sim.schedule_call(20.0, proc.gen.close)
    sim.run(until=20.0)
    assert sim.now == 20.0 and not h1.cpu.held and out == []
    sim.run()                           # the orphaned completion: a no-op
    assert out == [] and cl.stats.datagrams_delivered == 0
    # the socket is not wedged: the next parked receive is charged again
    parked_receiver(sim, rx, out)
    sim.schedule_call(100.0, rx._deliver, dgram_to(rx, "y"))
    sim.run()
    assert out == [("y", sim.now)] and not h1.cpu.held


def test_a_recv_abandoned_mid_charge_retires_its_ring_of_one():
    """The next ``recv`` on the socket, started while the abandoned
    charge is still in flight, parks on a ring of its own: the orphaned
    completion does not reach it."""
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    out = []
    proc = parked_receiver(sim, rx, out, daemon=True)
    sim.schedule_call(10.0, rx._deliver, dgram_to(rx, "x"))
    sim.schedule_call(20.0, proc.gen.close)
    sim.schedule_call(20.0, parked_receiver, sim, rx, out)
    sim.schedule_call(100.0, rx._deliver, dgram_to(rx, "y"))
    assert rx.recv_cost_us > 10.0       # the charge ends after 20 us
    sim.run()
    assert out == [("y", 100.0 + rx.recv_cost_us)] and not h1.cpu.held
    assert cl.stats.datagrams_delivered == 1


def test_deadlines_do_not_expire_a_descriptor_mid_charge():
    """A descriptor counts as filled from its fill, so neither
    recv(timeout=) nor a round's drain timer can time out a datagram
    whose receive cost is being paid."""
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100)
    cost = rx.recv_cost_us
    out = []

    def by_recv():
        d = yield from rx.recv(timeout=10.0 + cost / 2)
        out.append((d and d.payload, sim.now))
        ring = rx.post_ring(2, lambda d: d.payload == "b")
        try:                            # a round's drain timer
            end = yield ring.drain(10.0 + cost / 2)
        finally:
            ring.close()
        out.append((end, sim.now))

    sim.process(by_recv())
    sim.schedule_call(10.0, rx._deliver, dgram_to(rx, "a"))
    sim.schedule_call(10.0 + cost + 10.0, rx._deliver, dgram_to(rx, "b"))
    sim.run()
    assert out == [("a", 10.0 + cost), (True, 20.0 + 2 * cost)]
    assert not h1.cpu.held and cl.stats.datagrams_delivered == 2


def test_close_with_a_charge_in_flight_still_delivers():
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    out = []
    parked_receiver(sim, rx, out)
    sim.schedule_call(10.0, rx._deliver, dgram_to(rx, "x"))
    sim.schedule_call(20.0, rx.close)
    sim.run()
    assert out == [("x", 10.0 + rx.recv_cost_us)]
    assert not h1.cpu.held and cl.stats.datagrams_delivered == 1


def test_close_mid_charge_fails_the_ring_at_its_next_empty_descriptor():
    """A ring of two: the charge in flight at the close still delivers,
    then the ring fails where its next descriptor would have filled."""
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    got, caught = [], []

    def owner():
        ring = rx.post_ring(2, lambda d: got.append((d.payload, sim.now)))
        try:
            yield ring.drain(None)
        except SocketClosed:
            caught.append(sim.now)
        finally:
            ring.close()

    sim.process(owner())
    sim.schedule_call(10.0, rx._deliver, dgram_to(rx, "x"))
    sim.schedule_call(20.0, rx.close)
    sim.run()
    assert got == [("x", 10.0 + rx.recv_cost_us)]
    assert caught == [10.0 + rx.recv_cost_us]
    assert not h1.cpu.held and cl.stats.datagrams_delivered == 1


def test_datagrams_delivered_counts_every_completed_receive():
    """Regression: only recv() used to count, so every datagram finished
    on a channel's data socket (all multicast data, then also headers
    and barrier releases) was missing from NetStats.datagrams_delivered;
    today that socket drains a descriptor ring."""
    cl, sim, h0, h1 = make2(topology="switch")
    chans = [McastChannel(SimpleNamespace(
        rank=h.addr, size=2, ctx=0, host=h, sim=sim, addr_of=int))
        for h in (h0, h1)]
    tx, rx = chans
    k_mcast, k_unicast = 3, 2
    got = []

    def sender():
        for i in range(k_mcast):
            yield from tx.send_data(i, 100, seq=1)
        for i in range(k_unicast):
            yield from tx.send_ctrl(1, 1, "up")

    def receiver():
        ring = rx.data_sock.post_ring(k_mcast + 1,
                                      lambda d: got.append(d.payload))
        try:                            # the last one expires: None
            got.append((yield ring.drain(5000.0)))
        finally:
            ring.close()
        for _ in range(k_unicast):
            got.append((yield from rx.scout_sock.recv()).payload)
        got.append((yield from rx.scout_sock.recv(timeout=100.0)))

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert got == [(0, 1, 0), (0, 1, 1), (0, 1, 2), None,
                   (0, 1, "up", None), (0, 1, "up", None), None]
    assert cl.stats.datagrams_delivered == k_mcast + k_unicast
    assert cl.stats.datagrams_sent == k_mcast + k_unicast


class CountingSocket(UdpSocket):
    """The live socket, counting the fills charged in their arrival
    record."""
    charges = 0

    def _accept(self, dgram):
        ring = self._ring
        idle = ring is not None and not ring._busy
        super()._accept(dgram)
        if idle and ring._busy:
            type(self).charges += 1


KINDS = ("data", "scout", "mcast-data", "mcast-seg", "mcast-seg-hdr")

#: arrivals sit on the integer grid and are scheduled first, so at its
#: instant an arrival runs before any other record; every other actor
#: starts at a half-integer instant.  That is the one assumption of the
#: equivalence: nothing else of the *same host* acquires its CPU or
#: draws its jitter at the very instant of a fill, between the fill and
#: the waiter's resume in tie order — one NIC serializes a host's
#: arrivals and a parked rank does nothing else, so no run_spmd program
#: produces such a tie (the byte-identical sweep documents are the
#: evidence at that scope).
_ARRIVALS = st.lists(
    st.tuples(st.integers(0, 1500), st.integers(0, 1),
              st.sampled_from(KINDS)), max_size=14)
#: a wait: (instant, socket, descriptors, patience — None: no deadline,
#: re-post after each ``scout`` datagram taken — rounds only)
_WAITS = st.lists(
    st.tuples(st.integers(0, 1500), st.integers(0, 1), st.integers(1, 3),
              st.one_of(st.none(), st.integers(1, 400)), st.booleans()),
    max_size=8)
_BURSTS = st.lists(
    st.tuples(st.integers(0, 1500), st.integers(1, 120)), max_size=6)


def _loop_round(sim, sock, n, patience, take):
    """A round as the reference socket drains it: one ``finish_recv``
    per descriptor posted by ``post_recv`` under one drain timer (none
    if ``patience`` is None), until ``take(d, post)`` reports done; its
    ``post()`` posts one more descriptor — the ring's oracle."""
    posted = [sock.post_recv() for _ in range(n)]
    timer = sim.timer(sock.expire_recv)

    def post():
        posted.append(sock.post_recv())     # the loop below reaches it

    try:
        for ev in posted:
            if patience is not None and not ev.triggered:
                timer.arm(patience, ev)
            d = yield from sock.finish_recv(ev)
            if d is None:
                return None
            if take(d, post):
                return True
        return False
    finally:
        timer.cancel()
        for ev in posted:
            sock.cancel_recv(ev)


def _ring_round(sim, sock, n, patience, take):
    """The same round drained inside the live socket: one park."""
    ring = sock.post_ring(n, lambda d: take(d, ring.post))
    try:
        return (yield ring.drain(patience))
    finally:
        ring.close()


def _drive(sock_cls, sigma, arrivals, waits, bursts):
    """One host, a posted-only and a small buffered socket of
    ``sock_cls``; returns everything observable about the run.  Each
    wait is one round — a ring on the live socket, the descriptor loop
    on the reference — ended by the ``mcast-seg-hdr`` datagram, and a
    round of two descriptors is followed by a plain ``recv``."""
    params = replace(quiet(FAST_ETHERNET_SWITCH), jitter_sigma=sigma)
    cl = build_cluster(2, "switch", params=params, seed=7)
    sim, host = cl.sim, cl.hosts[1]
    socks = [sock_cls(host, 100, posted_only=True),
             sock_cls(host, 101, buffer_bytes=150)]
    drain = (_loop_round if issubclass(sock_cls, ReferenceUdpSocket)
             else _ring_round)
    log = []
    for i, (t, which, kind) in enumerate(arrivals):
        sim.schedule_call(float(t), socks[which]._deliver,
                          dgram_to(socks[which], i, kind))

    def receiver(sock, steps):
        # the one process that receives on ``sock`` (as in src/: the
        # rank on a channel's sockets, the progress daemon on p2p's)
        for t, _, n, patience, repost in steps:
            if t + 0.5 > sim.now:       # posted late, or already behind
                yield sim.timeout(t + 0.5 - sim.now)
            if patience is not None:
                patience = float(patience)
            end = yield from drain(sim, sock, n, patience, taker(repost))
            log.append(("end", sock.port, end, sim.now))
            if n == 2:                  # and a plain blocking recv
                d = yield from sock.recv(timeout=patience)
                log.append(("recv", sock.port, d and d.payload, sim.now))

    def taker(repost):
        def take(d, post):
            log.append(("recv", d.dst_port, d.payload, sim.now))
            if repost and d.kind == "scout":
                post()
            return d.kind == "mcast-seg-hdr"
        return take

    def burst(b, length):
        turn = host.cpu.acquire()
        if turn is not None:
            yield turn
        log.append(("cpu", b, sim.now))
        yield sim.timeout(float(length))
        host.cpu.release()

    for which, sock in enumerate(socks):
        # a daemon: a wait with no deadline may outlive the arrivals
        sim.process(receiver(sock, sorted(
            (w for w in waits if w[1] == which),
            key=lambda w: w[0])), daemon=True)
    for b, (t, length) in enumerate(bursts):
        sim.schedule_call(t + 0.5, sim.process, burst(b, length))
    sim.run()
    assert not host.cpu.held
    stats = cl.stats
    return (log, sim.now, host.rng.getstate(), stats.datagrams_delivered,
            stats.drops_not_posted, stats.drops_buffer_full,
            [s.rx_dropped for s in socks],
            [s.queue_depth for s in socks]), sim.processed


@settings(max_examples=250, deadline=None)
@given(arrivals=_ARRIVALS, waits=_WAITS, bursts=_BURSTS,
       sigma=st.sampled_from([0.0, 0.06]))
def test_charged_fill_equals_the_two_step_path(arrivals, waits, bursts,
                                               sigma):
    """The slow path is the oracle: completion times (``==`` on floats),
    CPU grant order, the host's jitter stream and every drop counter are
    those of a reference socket that never charges — and each charged
    fill saves exactly the one kernel record it folds away."""
    CountingSocket.charges = 0
    fast, fast_records = _drive(CountingSocket, sigma, arrivals, waits,
                                bursts)
    slow, slow_records = _drive(TwoStepSocket, sigma, arrivals, waits,
                                bursts)
    assert fast == slow
    assert slow_records - fast_records == CountingSocket.charges


def test_the_property_reaches_the_fast_path():
    """The strategy above is not vacuous: a pre-posted ring under a
    back-to-back burst charges its first descriptor and falls back on
    the ones filled while that charge holds the CPU."""
    CountingSocket.charges = 0
    arrivals = [(100, 0, "mcast-seg"), (101, 0, "mcast-seg"),
                (400, 0, "mcast-seg-hdr")]
    waits = [(0, 0, 3, 400, False)]     # one step: three descriptors
    fast, fast_records = _drive(CountingSocket, 0.06, arrivals, waits, [])
    slow, slow_records = _drive(TwoStepSocket, 0.06, arrivals, waits, [])
    assert fast == slow
    assert [e[2] for e in fast[0] if e[0] == "recv"] == [0, 1, 2]
    assert CountingSocket.charges == 2 == slow_records - fast_records


# ------------------------------------------------ the descriptor ring
@settings(max_examples=250, deadline=None)
@given(arrivals=_ARRIVALS, waits=_WAITS, bursts=_BURSTS,
       sigma=st.sampled_from([0.0, 0.06]))
def test_drained_ring_equals_the_descriptor_loop(arrivals, waits, bursts,
                                                 sigma):
    """The ring is the loop it replaced, below the process: every take
    and round end at the same instant (``==`` on floats), the same CPU
    grant order, jitter stream, drop and delivered counters — and the
    same kernel records, one for one.  On the buffered socket a ring
    takes the datagrams queued before it, as ``post_recv`` popped them,
    and ``recv`` is a ring of one."""
    ring, ring_records = _drive(UdpSocket, sigma, arrivals, waits, bursts)
    loop, loop_records = _drive(ReferenceUdpSocket, sigma, arrivals, waits,
                                bursts)
    assert ring == loop and ring_records == loop_records


def test_the_ring_property_reaches_every_fill_path(monkeypatch):
    """Not vacuous: one round sees a fill charged in its arrival record
    (parked, CPU idle), one queued behind the charge before it, one
    behind a CPU burst, the drain timer on the empty fourth descriptor
    — and a datagram after that is dropped unposted."""
    from repro.simnet.udp import DescriptorRing

    paths = []
    fill = DescriptorRing._fill

    def spy(ring, dgram):
        cpu_held = ring.sock.host.cpu.held
        paths.append("behind charge" if ring._busy
                     else "cpu held" if cpu_held
                     else "parked idle" if ring.filled == ring.taken
                     else "other")
        fill(ring, dgram)

    monkeypatch.setattr(DescriptorRing, "_fill", spy)
    arrivals = [(100, 0, "mcast-seg"), (101, 0, "mcast-seg"),
                (300, 0, "mcast-seg"), (2000, 0, "mcast-seg")]
    waits = [(0, 0, 4, 400, False)]     # one round: four descriptors
    bursts = [(290, 60)]            # the CPU is held over [290.5, 350.5)
    ring, ring_records = _drive(UdpSocket, 0.06, arrivals, waits, bursts)
    loop, loop_records = _drive(ReferenceUdpSocket, 0.06, arrivals, waits,
                                bursts)
    assert ring == loop and ring_records == loop_records
    assert paths == ["parked idle", "behind charge", "cpu held"]
    log = ring[0]
    assert [e[2] for e in log if e[0] == "recv"] == [0, 1, 2]
    assert [e[:3] for e in log if e[0] == "end"] == [("end", 100, None)]
    assert ring[4] == 1                 # drops_not_posted: the 4th


def test_the_ring_property_reaches_the_queue():
    """Not vacuous: on the buffered socket a ring of two takes the two
    datagrams queued before it (a third found the buffer full), and the
    ``recv`` after it one that arrives while it waits."""
    arrivals = [(10, 1, "data"), (20, 1, "data"), (30, 1, "data"),
                (150, 1, "data")]
    waits = [(100, 1, 2, 400, False)]
    ring, ring_records = _drive(UdpSocket, 0.06, arrivals, waits, [])
    loop, loop_records = _drive(ReferenceUdpSocket, 0.06, arrivals, waits,
                                [])
    assert ring == loop and ring_records == loop_records
    log = ring[0]
    assert [e[2] for e in log if e[0] == "recv"] == [0, 1, 3]
    assert [e[:3] for e in log if e[0] == "end"] == [("end", 101, False)]
    assert ring[5] == 1                 # drops_buffer_full: the 3rd


@pytest.mark.parametrize("repost", [True, False])
def test_the_ring_property_reaches_no_deadline_and_repost(repost):
    """Not vacuous: a deadline-less ring of one leaves no timer record
    pending, and re-posting after the ``scout`` it takes catches the
    header that the same ring without ``post()`` drops unposted."""
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    ring = rx.post_ring(1, lambda d: False)
    try:
        ring.drain(None)
        sim.run()                       # parked: nothing is pending
        assert sim.peek() == float("inf") and ring.timer is None
    finally:
        ring.close()

    arrivals = [(100, 0, "scout"), (300, 0, "mcast-seg-hdr")]
    waits = [(0, 0, 1, None, repost)]
    ring, ring_records = _drive(UdpSocket, 0.06, arrivals, waits, [])
    loop, loop_records = _drive(ReferenceUdpSocket, 0.06, arrivals, waits,
                                [])
    assert ring == loop and ring_records == loop_records
    log = ring[0]
    assert [e[2] for e in log if e[0] == "recv"] == ([0, 1] if repost
                                                     else [0])
    assert [e[:3] for e in log if e[0] == "end"] == [("end", 100, repost)]
    assert ring[4] == (0 if repost else 1)  # drops_not_posted


def _receives(sock_cls):
    """One socket, one ``recv`` after another: a deadline that expires,
    no deadline, a deadline a datagram beats, a deadline at that very
    instant (``deadline - now`` left, as ``wait_ctrl`` computes it) that
    expires while the beaten timer's record is still pending, and no
    deadline that ``close`` fails; returns what is observable and the
    live socket's ring of one after each call."""
    params = replace(quiet(FAST_ETHERNET_SWITCH), jitter_sigma=0.06)
    cl = build_cluster(2, "switch", params=params, seed=7)
    sim, host = cl.sim, cl.hosts[1]
    sock = sock_cls(host, 100)
    log, rings = [], []

    def receiver():
        deadline = None
        for timeout in (50.0, None, 400.0, "left", None):
            if timeout == 400.0:
                deadline = sim.now + timeout
            elif timeout == "left":
                timeout = deadline - sim.now
                assert sim.now + timeout == deadline
            try:
                d = yield from sock.recv(timeout=timeout)
            except SocketClosed:
                d = "closed"
            log.append((d and getattr(d, "payload", d), sim.now))
            rings.append(getattr(sock, "_ring_of_one", None))
        log.append(deadline)

    sim.process(receiver())
    sim.schedule_call(200.0, sock._deliver, dgram_to(sock, "a"))
    sim.schedule_call(300.0, sock._deliver, dgram_to(sock, "b"))
    sim.schedule_call(1000.0, sock.close)
    sim.run()
    assert not host.cpu.held
    return (log, sim.now, sim.processed, host.rng.getstate(),
            cl.stats.datagrams_delivered), rings


def test_recv_re_arms_its_ring_of_one():
    """``recv`` re-arms the socket's one ring, and the timer it keeps,
    call after call: completion instants (``==``), kernel records and
    the jitter stream are those of the descriptor-event socket, which
    allocates a descriptor and a timer per call.  The untimed receive
    after a timed one arms no deadline; a deadline re-armed onto the
    instant of the last call's orphaned timer record gets a record of
    its own, as a fresh timer would."""
    live, rings = _receives(UdpSocket)
    reference, _ = _receives(ReferenceUdpSocket)
    assert live == reference
    log = live[0]
    assert [entry[0] for entry in log[:-1]] == [None, "a", "b", None,
                                                "closed"]
    assert log[3][1] == log[-1] and log[4][1] == 1000.0
    assert rings[0] is not None and all(r is rings[0] for r in rings)


@pytest.mark.parametrize("evict_at", [50.0, 100.0])
def test_closing_the_ring_gives_its_cpu_turn_back(evict_at):
    """A fill behind a CPU burst queues the ring's turn; closing the
    ring withdraws it while queued (50 us) and releases the CPU once
    granted (100 us, the holder's release) — the next ``use`` runs."""
    cl, sim, h0, h1 = make2()
    rx = h1.socket(100, posted_only=True)
    caught, done = [], []

    def owner():
        ring = rx.post_ring(2, lambda d: False)
        try:
            yield ring.drain(1000.0)
        except GeneratorExit:
            caught.append((sim.now, ring._busy))
            raise
        finally:
            ring.close()

    def third():
        yield sim.timeout(200.0)
        yield from h1.cpu.use(1.0)
        done.append(sim.now)

    proc = sim.process(owner(), daemon=True)    # abandoned, never ends
    # finalised in a zero-delay record: at 100 us after the grant
    sim.schedule_at(evict_at, sim.schedule_call, 0.0, proc.gen.close)
    sim.process(h1.cpu.use(100.0))      # the burst, over [0, 100)
    sim.schedule_call(10.0, rx._deliver, dgram_to(rx, "x"))
    sim.process(third())
    sim.run()                           # DeadlockError if the turn leaked
    assert caught == [(evict_at, True)] and done == [201.0]
    assert not h1.cpu.held and h1.cpu.queue_depth == 0
    assert rx.posted_depth == 0 and cl.stats.datagrams_delivered == 0
