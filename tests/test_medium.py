"""CSMA/CD shared-medium (hub) behaviour tests."""

import random

import pytest

from repro.simnet.calibration import FAST_ETHERNET_HUB, quiet
from repro.simnet.frame import Frame
from repro.simnet.kernel import Simulator
from repro.simnet.medium import ExcessiveCollisions, SharedMedium
from repro.simnet.stats import NetStats


class FakeNic:
    """Records deliveries; accepts everything."""

    def __init__(self, mac):
        self.mac = mac
        self.received = []

    def deliver(self, frame):
        self.received.append(frame)
        return True


def make_medium(n_nics=3, seed=0):
    sim = Simulator()
    stats = NetStats()
    medium = SharedMedium(sim, quiet(FAST_ETHERNET_HUB),
                          rng=random.Random(seed), stats=stats)
    nics = [FakeNic(i) for i in range(n_nics)]
    for nic in nics:
        medium.attach(nic)
    return sim, medium, nics, stats


def test_single_transmission_delivers_to_all_others():
    sim, medium, nics, stats = make_medium()
    frame = Frame(src=0, dst=1, size=100, payload="x")
    done = []
    assert medium.transmit(nics[0], frame, done.append) is None
    sim.run()
    assert done == [True]
    assert [f.payload for f in nics[1].received] == ["x"]
    assert [f.payload for f in nics[2].received] == ["x"]
    assert nics[0].received == []          # sender hears nothing back
    assert stats.frames_sent == 1
    assert stats.collisions == 0


def test_wire_time_matches_frame_size():
    sim, medium, nics, _ = make_medium()
    frame = Frame(src=0, dst=1, size=1462, payload=None)  # 1500 wire bytes
    medium.transmit(nics[0], frame)
    sim.run()
    assert sim.now == pytest.approx(120.0)  # 1500 B / 12.5 B/µs


def test_busy_medium_defers_second_sender():
    sim, medium, nics, stats = make_medium()
    f0 = Frame(src=0, dst=2, size=1462, payload="first")
    f1 = Frame(src=1, dst=2, size=100, payload="second")
    medium.transmit(nics[0], f0)
    # Second transmit requested mid-first-transmission: must defer, not collide.
    sim.schedule_call(10.0, medium.transmit, nics[1], f1)
    sim.run()
    assert stats.collisions == 0
    payloads = [f.payload for f in nics[2].received]
    assert payloads == ["first", "second"]


def test_simultaneous_start_collides_then_resolves():
    sim, medium, nics, stats = make_medium(seed=1)
    f0 = Frame(src=0, dst=2, size=100, payload="a")
    f1 = Frame(src=1, dst=2, size=100, payload="b")
    d0, d1 = [], []
    medium.transmit(nics[0], f0, d0.append)
    medium.transmit(nics[1], f1, d1.append)
    sim.run()
    assert stats.collisions >= 1
    assert d0 == d1 == [True]
    assert sorted(f.payload for f in nics[2].received) == ["a", "b"]


def test_deferred_senders_released_together_collide():
    """Two stations queued behind a long frame start simultaneously on
    idle — the pile-up collision the paper blames for hub variance."""
    sim, medium, nics, stats = make_medium(n_nics=4, seed=2)
    long_frame = Frame(src=0, dst=3, size=1462, payload="long")
    medium.transmit(nics[0], long_frame)
    sim.schedule_call(5.0, medium.transmit, nics[1],
                      Frame(src=1, dst=3, size=50, payload="w1"))
    sim.schedule_call(6.0, medium.transmit, nics[2],
                      Frame(src=2, dst=3, size=50, payload="w2"))
    sim.run()
    assert stats.collisions >= 1
    assert sorted(f.payload for f in nics[3].received) == ["long", "w1", "w2"]


def test_excessive_collisions_fails_send():
    """With backoff forced to zero slots, colliders re-collide forever and
    hit the 16-attempt limit."""

    class ZeroRng:
        def randrange(self, a, b=None):
            return 0

    sim = Simulator()
    stats = NetStats()
    medium = SharedMedium(sim, quiet(FAST_ETHERNET_HUB), rng=ZeroRng(),
                          stats=stats)
    nics = [FakeNic(0), FakeNic(1), FakeNic(2)]
    for nic in nics:
        medium.attach(nic)
    failures = []
    medium.transmit(nics[0], Frame(src=0, dst=2, size=10, payload="a"),
                    failures.append)
    medium.transmit(nics[1], Frame(src=1, dst=2, size=10, payload="b"),
                    failures.append)
    sim.run()
    assert len(failures) == 2
    assert all(isinstance(f, ExcessiveCollisions) and f.attempts == 16
               for f in failures)
    assert stats.collisions == 16
    assert stats.snapshot()["drops_excessive_collisions"] == 2


def test_collision_count_and_backoff_stats():
    sim, medium, nics, stats = make_medium(seed=3)
    for i in range(2):
        medium.transmit(nics[i], Frame(src=i, dst=2, size=10, payload=i))
    sim.run()
    assert stats.backoffs >= 2  # both stations backed off at least once


def test_medium_idle_property():
    sim, medium, nics, _ = make_medium()
    assert medium.idle
    medium.transmit(nics[0], Frame(src=0, dst=1, size=100, payload=None))
    sim.run()
    assert medium.idle


def test_throughput_serializes_back_to_back_frames():
    """A single station sending frame-after-frame (as the NIC layer does:
    next transmit only after the previous completes) achieves exactly the
    wire rate — wire size already includes the inter-frame gap."""
    sim, medium, nics, stats = make_medium()

    def station(sent, i=0):
        assert sent is True
        if i < 3:               # 1000 B wire = 80 µs each
            medium.transmit(nics[0],
                            Frame(src=0, dst=1, size=962, payload=i),
                            lambda sent: station(sent, i + 1))

    station(True)
    sim.run()
    assert stats.frames_sent == 3
    assert stats.collisions == 0
    assert sim.now == pytest.approx(3 * 80.0)


def test_concurrent_same_nic_requests_collide_like_stations():
    """Raw medium.transmit calls are station attempts: overlapping
    requests (even from one NIC object) contend.  The NIC layer is what
    serializes a real station's queue — checked in test_nic.py."""
    sim, medium, nics, stats = make_medium(seed=5)
    for i in range(2):
        medium.transmit(nics[0], Frame(src=0, dst=1, size=100, payload=i))
    sim.run()
    assert stats.frames_sent == 2
    assert stats.collisions >= 1
