"""IP fragmentation math and the host-CPU resource."""

import pytest

from repro.simnet.calibration import (FAST_ETHERNET_HUB,
                                      FAST_ETHERNET_SWITCH, VIA_SWITCH,
                                      NetParams, quiet)
from repro.simnet.frame import (ETH_MIN_PAYLOAD, ETH_OVERHEAD, Frame,
                                wire_bytes)
from repro.simnet.ip import (Datagram, Fragment, datagram_wire_us,
                             fragment_sizes, make_frames, store_forward_us)
from repro.simnet.kernel import Simulator
from repro.simnet.resource import Resource
from repro.simnet.kernel import SimError

PARAMS = quiet(FAST_ETHERNET_HUB)


# ---------------------------------------------------------------- fragmentation
def test_frames_for_matches_paper_formula():
    """paper: floor(M/T)+1 frames for M bytes (T = usable frame payload)."""
    p = PARAMS
    assert p.frames_for(0) == 1
    assert p.frames_for(1) == 1
    assert p.frames_for(p.max_udp_payload) == 1
    assert p.frames_for(p.max_udp_payload + 1) == 2
    assert p.frames_for(5000) == 4


def test_fragment_sizes_cover_payload_exactly():
    p = PARAMS
    for m in (0, 1, 100, 1472, 1473, 3000, 5000, 20000):
        sizes = fragment_sizes(p, m)
        user = sum(sizes) - p.ip_header * len(sizes) - p.udp_header
        assert user == m
        assert len(sizes) == p.frames_for(m)
        assert all(s <= p.mtu for s in sizes)


def test_fragment_sizes_first_carries_udp_header():
    p = PARAMS
    sizes = fragment_sizes(p, 2000)
    assert sizes[0] == p.mtu                       # full first fragment
    assert sizes[1] == (2000 - p.max_udp_payload) + p.ip_header


@pytest.mark.parametrize("rate", [5.0, 100.0, 1000.0])
def test_path_price_is_the_frames_wire_arithmetic(rate):
    """The closed-form path price equals the per-fragment sum it
    replaces — every fragment's wire bytes, padding included — and one
    store-and-forward device holds only the first fragment."""
    p = NetParams(rate_mbps=rate)
    top = p.max_udp_payload
    for m in (0, 1, 17, 18, 100, top, top + 1, top + 5, top + 6,
              top + p.max_fragment_payload, 24_000, 65_000):
        sizes = fragment_sizes(p, m)
        wire = sum(wire_bytes(s) for s in sizes) * 8.0 / rate
        assert datagram_wire_us(p, m) == pytest.approx(wire, rel=1e-12)
        assert store_forward_us(p, m) == pytest.approx(
            wire_bytes(sizes[0]) * 8.0 / rate + p.switch_latency_us
            + p.prop_delay_us, rel=1e-12)


@pytest.mark.parametrize("params", [FAST_ETHERNET_SWITCH, VIA_SWITCH],
                         ids=lambda p: p.label)
@pytest.mark.parametrize("size", ["0", "1", "max-1", "max", "max+1",
                                  "3mtu"])
def test_make_frames_is_what_fragment_sizes_prescribes(params, size):
    """The one-frame path builds its frame directly; it and the
    fragmenting path both give the frames ``fragment_sizes``
    prescribes, minimum-payload padding included on the wire."""
    top = params.max_udp_payload
    nbytes = {"0": 0, "1": 1, "max-1": top - 1, "max": top,
              "max+1": top + 1, "3mtu": 3 * params.mtu}[size]
    dgram = Datagram(src=3, src_port=1, dst=5, dst_port=2, payload="p",
                     size=nbytes, kind="mcast-seg")
    sizes = fragment_sizes(params, nbytes)
    frames = make_frames(params, dgram)
    assert [(f.src, f.dst, f.size, f.kind) for f in frames] == [
        (3, 5, l2, "mcast-seg") for l2 in sizes]
    assert [f.payload for f in frames] == [
        Fragment(dgram, i, len(sizes)) for i in range(len(sizes))]
    assert all(f.payload.dgram is dgram for f in frames)
    assert [f.wire_size for f in frames] == [wire_bytes(l2) for l2 in sizes]
    assert len(frames) == params.frames_for(nbytes)
    if nbytes <= 1:                 # the headers alone: padded on the wire
        assert frames[0].size < ETH_MIN_PAYLOAD
        assert frames[0].wire_size == ETH_MIN_PAYLOAD + ETH_OVERHEAD


def test_datagram_rejects_negative_size():
    with pytest.raises(ValueError):
        Datagram(src=0, src_port=1, dst=1, dst_port=2, payload=None,
                 size=-1)


def test_frame_rejects_negative_size():
    with pytest.raises(ValueError):
        Frame(src=0, dst=1, size=-1, payload=None)


def test_frames_for_rejects_negative():
    with pytest.raises(ValueError):
        PARAMS.frames_for(-1)


def test_netparams_quiet_removes_jitter():
    q = quiet(NetParams(jitter_sigma=0.5))
    assert q.jitter_sigma == 0.0


# ---------------------------------------------------------------- resource
def test_resource_serializes_holders():
    sim = Simulator()
    cpu = Resource(sim)
    spans = []

    def worker(tag):
        start_wait = sim.now
        yield from cpu.use(10.0)
        spans.append((tag, start_wait, sim.now))

    for tag in range(3):
        sim.process(worker(tag))
    sim.run()
    ends = [end for _tag, _s, end in spans]
    assert ends == [10.0, 20.0, 30.0]      # strict FIFO serialization
    assert [t for t, _, _ in spans] == [0, 1, 2]


def test_resource_release_without_hold_is_error():
    sim = Simulator()
    cpu = Resource(sim)
    with pytest.raises(SimError):
        cpu.release()


def test_resource_released_on_exception():
    """GeneratorExit at a holder's ``yield`` mid-``use`` (``gen.close()``,
    what CPython does to an abandoned simulation's ranks) must not leak
    the resource (the ``finally`` in :meth:`Resource.use` releases)."""
    sim = Simulator()
    cpu = Resource(sim)

    def victim():
        yield from cpu.use(100.0)

    def good():
        yield sim.timeout(6.0)
        yield from cpu.use(2.0)
        return sim.now

    vproc = sim.process(victim())
    sim.schedule_call(5.0, vproc.gen.close)
    proc = sim.process(good())
    sim.run()
    assert proc.ok and proc.value == pytest.approx(8.0)
    assert not cpu.held


@pytest.mark.parametrize("close_at", [2.0, 10.0])
def test_finalised_waiter_gives_its_turn_back(close_at):
    """A waiter finalised (``gen.close()``) while queued withdraws its
    turn (at 2 us), and one finalised after the record that grants it
    (at 10 us, before it resumes) releases the resource: either way a
    later ``use`` runs."""
    sim = Simulator()
    cpu = Resource(sim)
    caught, done = [], []

    def victim():
        try:
            yield from cpu.use(5.0)
        except GeneratorExit:
            caught.append(sim.now)
            raise

    def third():
        yield sim.timeout(20.0)
        yield from cpu.use(1.0)
        done.append(sim.now)

    sim.process(cpu.use(10.0))          # the holder, over [0, 10)
    vproc = sim.process(victim(), daemon=True)  # abandoned, never ends
    sim.schedule_at(close_at, sim.schedule_call, 0.0, vproc.gen.close)
    sim.process(third())
    sim.run()                           # DeadlockError before the fix
    assert caught == [close_at] and done == [21.0]
    assert not cpu.held and cpu.queue_depth == 0


def test_resource_queue_depth():
    sim = Simulator()
    cpu = Resource(sim)
    cpu.acquire()
    cpu.acquire()
    cpu.acquire()
    assert cpu.queue_depth == 2
    assert cpu.held
