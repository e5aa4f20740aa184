"""NIC filter and transmit-queue tests."""

import pytest

from repro.simnet.calibration import FAST_ETHERNET_HUB, quiet
from repro.simnet.frame import BROADCAST, Frame, mcast_mac
from repro.simnet.kernel import Simulator
from repro.simnet.medium import SharedMedium
from repro.simnet.nic import Nic
from repro.simnet.stats import NetStats

import random

PARAMS = quiet(FAST_ETHERNET_HUB)


def make_pair():
    sim = Simulator()
    stats = NetStats()
    medium = SharedMedium(sim, PARAMS, rng=random.Random(0), stats=stats)
    a = Nic(sim, PARAMS, mac=0, stats=stats)
    b = Nic(sim, PARAMS, mac=1, stats=stats)
    a.attach_medium(medium)
    b.attach_medium(medium)
    return sim, a, b, stats


def test_unicast_filter_accepts_own_mac_only():
    sim, a, b, _ = make_pair()
    got = []
    b.set_receiver(lambda f: got.append(f.payload))
    a.send(Frame(src=0, dst=1, size=50, payload="mine"))
    a.send(Frame(src=0, dst=42, size=50, payload="not-mine"))
    sim.run()
    assert got == ["mine"]
    assert b.filtered_frames == 1


def test_broadcast_always_accepted():
    sim, a, b, _ = make_pair()
    got = []
    b.set_receiver(lambda f: got.append(f.payload))
    a.send(Frame(src=0, dst=BROADCAST, size=50, payload="bc"))
    sim.run()
    assert got == ["bc"]


def test_multicast_requires_filter_join():
    sim, a, b, _ = make_pair()
    grp = mcast_mac(3)
    got = []
    b.set_receiver(lambda f: got.append(f.payload))
    a.send(Frame(src=0, dst=grp, size=50, payload="lost"))
    sim.run()
    assert got == []          # not joined: silently dropped at the NIC
    b.join_filter(grp)
    a.send(Frame(src=0, dst=grp, size=50, payload="heard"))
    sim.run()
    assert got == ["heard"]


def test_multicast_filter_refcounting():
    sim, a, b, _ = make_pair()
    grp = mcast_mac(4)
    b.join_filter(grp)
    b.join_filter(grp)
    b.leave_filter(grp)
    assert b.in_filter(grp)       # one reference remains
    b.leave_filter(grp)
    assert not b.in_filter(grp)


def test_tx_queue_preserves_order():
    sim, a, b, _ = make_pair()
    got = []
    b.set_receiver(lambda f: got.append(f.payload))
    for i in range(5):
        a.send(Frame(src=0, dst=1, size=100, payload=i))
    sim.run()
    assert got == [0, 1, 2, 3, 4]
    assert a.tx_frames == 5


def test_send_event_fires_in_order():
    """Per-frame completions (the historical per-send event, now the
    port's ``on_done`` callback) arrive in FIFO order, one per frame."""
    sim, a, b, _ = make_pair()
    completions = []
    port = a._port

    def spy(frame, on_done):
        def done(result):
            completions.append((frame.payload, result))
            on_done(result)
        port(frame, done)

    a._port = spy
    for i in range(3):
        assert a.send(Frame(src=0, dst=1, size=100, payload=i)) is None
    sim.run()
    assert completions == [(0, True), (1, True), (2, True)]
    assert a.tx_frames == 3 and a.tx_errors == 0


def test_unattached_nic_rejects_send():
    sim = Simulator()
    nic = Nic(sim, PARAMS, mac=9)
    with pytest.raises(RuntimeError, match="not attached"):
        nic.send(Frame(src=9, dst=0, size=10, payload=None))


def test_rx_counters():
    sim, a, b, stats = make_pair()
    b.set_receiver(lambda f: None)
    a.send(Frame(src=0, dst=1, size=50, payload=None))
    sim.run()
    assert b.rx_frames == 1
    assert stats.frames_delivered == 1
