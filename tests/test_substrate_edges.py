"""Edge cases across the substrate: ipstack, host, world, jitter."""


import pytest

from repro.mpi import MpiWorld
from repro.simnet import (SimError, build_cluster, quiet)
from repro.simnet.calibration import (FAST_ETHERNET_HUB,
                                      FAST_ETHERNET_SWITCH, VIA_SWITCH,
                                      NetParams)
from repro.simnet.frame import Frame, mcast_mac
from repro.simnet.topology import TOPOLOGIES


QUIET = quiet(FAST_ETHERNET_HUB)


def test_build_cluster_validates_inputs():
    with pytest.raises(ValueError):
        build_cluster(0, "hub")
    with pytest.raises(ValueError):
        build_cluster(2, "tokenring")
    assert TOPOLOGIES == ("hub", "switch")


def test_cluster_host_accessor():
    cl = build_cluster(3, "switch", params=QUIET)
    assert cl.n == 3
    assert cl.host(1).addr == 1


def test_ipstack_leave_without_join_rejected():
    cl = build_cluster(1, "hub", params=QUIET)
    with pytest.raises(SimError, match="without joining"):
        cl.hosts[0].ipstack.leave_group(mcast_mac(3))


def test_ipstack_join_requires_group_address():
    cl = build_cluster(1, "hub", params=QUIET)
    with pytest.raises(ValueError, match="not a multicast group"):
        cl.hosts[0].ipstack.join_group(5)


def test_ipstack_membership_refcount():
    cl = build_cluster(2, "hub", params=QUIET)
    h = cl.hosts[0]
    grp = mcast_mac(9)
    s1 = h.socket(100)
    s2 = h.socket(101)
    s1.join(grp)
    s2.join(grp)
    s1.close()
    assert h.ipstack.member_of(grp)    # s2 still joined
    s2.close()
    assert not h.ipstack.member_of(grp)


def test_igmp_frames_do_not_reach_sockets():
    cl = build_cluster(2, "hub", params=QUIET)
    grp = mcast_mac(11)
    rx = cl.hosts[1].socket(100)
    rx.join(grp)
    tx = cl.hosts[0].socket(101)
    tx.join(grp)            # emits an IGMP report the peer NIC accepts
    cl.sim.run()
    assert rx.queue_depth == 0   # the report is protocol, not user data


def test_non_ip_frame_to_ip_input_is_error():
    cl = build_cluster(1, "hub", params=QUIET)
    with pytest.raises(SimError, match="non-IP frame"):
        cl.hosts[0].ipstack.receive_frame(
            Frame(src=0, dst=0, size=10, payload="garbage"))


def test_duplicate_fragment_is_idempotent():
    """A duplicated fragment must not complete reassembly twice."""
    from repro.simnet.ip import Datagram, make_frames

    cl = build_cluster(2, "hub", params=QUIET)
    h1 = cl.hosts[1]
    rx = h1.socket(100)
    dgram = Datagram(src=0, src_port=101, dst=1, dst_port=100,
                     payload="dup", size=3000)
    frames = list(make_frames(QUIET, dgram))
    assert len(frames) == 3
    h1.ipstack.receive_frame(frames[0])
    h1.ipstack.receive_frame(frames[0])       # duplicate
    h1.ipstack.receive_frame(frames[1])
    assert rx.queue_depth == 0                # still incomplete
    h1.ipstack.receive_frame(frames[2])
    assert rx.queue_depth == 1                # exactly one delivery


def test_host_jitter_properties():
    cl = build_cluster(1, "hub", seed=3)      # default params: jitter on
    h = cl.hosts[0]
    samples = [h.jitter(100.0) for _ in range(200)]
    assert all(s > 0 for s in samples)
    mean = sum(samples) / len(samples)
    assert 90.0 < mean < 110.0                # centred near the nominal
    assert len(set(samples)) > 100            # actually random
    # quiet params: exact
    cq = build_cluster(1, "hub", params=QUIET)
    assert cq.hosts[0].jitter(100.0) == 100.0
    assert cq.hosts[0].jitter(0.0) == 0.0


def test_world_ctx_allocation():
    cl = build_cluster(2, "switch", params=QUIET)
    world = MpiWorld(cl)
    a = world.alloc_ctx()
    base = world.alloc_ctx_range(3)
    b = world.alloc_ctx()
    assert a == 1 and base == 2 and b == 5
    with pytest.raises(ValueError):
        world.alloc_ctx_range(0)


def test_netparams_frames_for_via_preset():
    # VIA preset shares the wire constants: fragmentation unchanged.
    assert VIA_SWITCH.frames_for(5000) == \
        FAST_ETHERNET_SWITCH.frames_for(5000)
    assert VIA_SWITCH.udp_send_us < FAST_ETHERNET_SWITCH.udp_send_us


def test_netparams_derived_payloads():
    p = NetParams()
    assert p.max_udp_payload == 1500 - 20 - 8
    assert p.max_fragment_payload == 1500 - 20
    assert p.frames_for(p.max_udp_payload) == 1
    assert p.frames_for(p.max_udp_payload + 1) == 2


def test_stats_diff():
    from repro.simnet.stats import NetStats

    stats = NetStats()
    stats.record_send(100, "p2p")
    before = stats.snapshot()
    stats.record_send(200, "scout")
    stats.collisions += 2
    delta = stats.diff(before)
    assert delta["frames_sent"] == 1
    assert delta["collisions"] == 2
    assert delta["frames_by_kind"] == {"p2p": 0, "scout": 1}


def test_run_threads_validates_and_surfaces_errors():
    """(Named for the launcher it first tested; ``run_loopback`` now.)"""
    from repro.sockets import multicast_available, run_loopback

    with pytest.raises(ValueError):
        run_loopback(0, lambda env: None)

    if not multicast_available():
        pytest.skip("no loopback multicast")

    def crasher(env):
        yield from env.comm.barrier()
        if env.rank == 1:
            raise RuntimeError("rank 1 exploded")
        return env.rank

    with pytest.raises(RuntimeError, match="rank 1 exploded"):
        run_loopback(2, crasher)

    def stuck(env):
        if env.rank == 1:
            yield from env.comm.irecv(source=0).wait()  # never sent

    with pytest.raises(TimeoutError, match=r"0\.2s: rank1$"):
        run_loopback(2, stuck, timeout_s=0.2)
