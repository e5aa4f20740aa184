"""Property-based tests for the CSMA/CD medium and the event kernel."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simnet.calibration import FAST_ETHERNET_HUB, quiet
from repro.simnet.frame import Frame
from repro.simnet.kernel import Simulator
from repro.simnet.medium import SharedMedium
from repro.simnet.stats import NetStats

PARAMS = quiet(FAST_ETHERNET_HUB)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


class RecordingNic:
    def __init__(self, mac):
        self.mac = mac
        self.received = []

    def deliver(self, frame):
        self.received.append(frame)
        return True


@settings(max_examples=40, **COMMON)
@given(
    n_nics=st.integers(min_value=2, max_value=6),
    loads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),     # sender index
            st.integers(min_value=0, max_value=3000),  # start time µs
            st.integers(min_value=0, max_value=1500),  # payload bytes
        ),
        min_size=1, max_size=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_csma_cd_delivers_everything_exactly_once(n_nics, loads, seed):
    """Under arbitrary offered load, every frame is eventually delivered
    to every *other* station exactly once (CSMA/CD is lossy only past 16
    collisions, which random backoff makes effectively unreachable)."""
    sim = Simulator()
    stats = NetStats()
    medium = SharedMedium(sim, PARAMS, rng=random.Random(seed),
                          stats=stats)
    nics = [RecordingNic(i) for i in range(n_nics)]
    for nic in nics:
        medium.attach(nic)

    sent = []
    for sender_idx, start, size in loads:
        sender = sender_idx % n_nics
        frame = Frame(src=sender, dst=0xFFFF_FFFF_FFFF, size=size,
                      payload=len(sent))
        sent.append((sender, frame))
        sim.schedule_call(float(start), medium.transmit, nics[sender],
                          frame)
    sim.run()

    assert stats.frames_sent == len(sent)
    for sender, frame in sent:
        for nic in nics:
            copies = [f for f in nic.received
                      if f.frame_id == frame.frame_id]
            if nic.mac == sender:
                assert copies == []
            else:
                assert len(copies) == 1


@settings(max_examples=25, **COMMON)
@given(
    loads=st.lists(st.integers(min_value=0, max_value=1000),
                   min_size=2, max_size=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_csma_cd_wire_occupancy_at_most_total_plus_backoff(loads, seed):
    """The clock at drain is at least the sum of wire times (one wire!)
    and collisions only ever add time."""
    sim = Simulator()
    stats = NetStats()
    medium = SharedMedium(sim, PARAMS, rng=random.Random(seed),
                          stats=stats)
    nics = [RecordingNic(i) for i in range(len(loads))]
    for nic in nics:
        medium.attach(nic)
    total_wire = 0.0
    for i, size in enumerate(loads):
        frame = Frame(src=i, dst=0xFFFF_FFFF_FFFF, size=size, payload=i)
        total_wire += frame.wire_time_us(PARAMS.rate_mbps)
        medium.transmit(nics[i], frame)
    end = sim.run()
    assert end >= total_wire - 1e-6


@settings(max_examples=40, **COMMON)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=12),
)
def test_kernel_event_order_is_time_order(delays):
    sim = Simulator()
    fired = []
    for i, d in enumerate(delays):
        sim.schedule_call(d, fired.append, (d, i))
    sim.run()
    assert [d for d, _i in fired] == sorted(d for d in delays)
    # ties keep insertion order
    assert fired == sorted(fired, key=lambda pair: (pair[0], pair[1]))
