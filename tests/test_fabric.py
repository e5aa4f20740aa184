"""Multi-segment fabric: topology strings, discovery API, trunk
accounting, and IGMP snooping across tiers."""

import pytest

from _invariants import assert_quiesced
from repro import run_spmd
from repro.analysis.framecount import topo_digest
from repro.simnet import build_cluster, parse_topology, quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH
from repro.simnet.fabric import FabricSpec
from repro.simnet.frame import Frame, mcast_mac
from repro.simnet.kernel import Simulator
from repro.simnet.link import HalfLink
from repro.simnet.stats import NetStats
from repro.simnet.switchdev import Switch

QUIET = quiet(FAST_ETHERNET_SWITCH)


# ------------------------------------------------------------ parsing
def test_parse_topology_tree():
    assert parse_topology("tree:2x4") == FabricSpec(2, 4)
    assert parse_topology("tree:3x3") == FabricSpec(3, 3)
    assert parse_topology("switch") is None
    assert parse_topology("hub") is None
    assert parse_topology("ring:4") is None


def test_parse_topology_rejects_degenerate():
    with pytest.raises(ValueError):
        parse_topology("tree:0x4")


def test_build_cluster_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown topology"):
        build_cluster(4, topology="mesh:2x2", params=QUIET)
    with pytest.raises(ValueError, match="exactly 8 hosts"):
        build_cluster(6, topology="tree:2x4", params=QUIET)


# ------------------------------------------------------------ discovery
def cluster_digest(cluster):
    """The topology digest of every host (rank = address) from the
    discovery API — what a world communicator's ``comm_topology``
    resolves to on a tiered fabric."""
    return topo_digest(
        [cluster.segment_of(h.addr) for h in cluster.hosts],
        [cluster.segment_path(s) for s in range(cluster.nsegments)])


def test_tree_cluster_discovery_api():
    cluster = build_cluster(8, topology="tree:2x4", params=QUIET)
    assert cluster.nsegments == 2
    assert [cluster.segment_of(a) for a in range(8)] == [0] * 4 + [1] * 4
    digest = cluster_digest(cluster)
    assert digest.members == (4, 4)
    assert digest.hops == ((0, 2), (2, 0))
    assert len(cluster.fabric.leaves) == 2
    assert cluster.fabric.core.trunk_ports == [0, 1]
    with pytest.raises(ValueError):
        cluster.segment_of(99)
    with pytest.raises(ValueError):
        cluster.segment_path(5)


def test_flat_cluster_discovery_degrades_to_one_segment():
    cluster = build_cluster(3, topology="switch", params=QUIET)
    assert cluster.nsegments == 1
    assert cluster.segment_of(2) == 0
    digest = cluster_digest(cluster)
    assert digest.members == (3,) and digest.hops == ((0,),)
    with pytest.raises(ValueError):
        cluster.segment_of(9)
    with pytest.raises(ValueError):
        cluster.segment_path(1)


# ------------------------------------------------------------ switch tier
def _mk_switch():
    sim = Simulator()
    stats = NetStats()
    return sim, Switch(sim, QUIET, stats=stats)


def test_trunk_membership_is_refcounted():
    """A trunk port fronts many downstream members: it must stay in the
    member set until every join has been matched by a leave."""
    sim, sw = _mk_switch()
    sink = HalfLink(sim, QUIET, sw.stats, deliver=lambda f: None)
    host_port = sw.add_port(sink)
    trunk_port = sw.add_port(sink, trunk=True)
    group = mcast_mac(7)

    def igmp(op, port):
        sw.receive(port, Frame(src=90 + port, dst=group, size=28,
                               payload=(op, group), kind="igmp"))

    igmp("join", trunk_port)
    igmp("join", trunk_port)
    igmp("join", host_port)
    assert sw.members_of(group) == {host_port, trunk_port}
    igmp("leave", trunk_port)
    assert sw.members_of(group) == {host_port, trunk_port}
    igmp("leave", trunk_port)
    assert sw.members_of(group) == {host_port}
    igmp("leave", host_port)
    assert sw.members_of(group) == set()
    # registered-but-empty: dropped, not flooded
    sw.receive(host_port, Frame(src=1, dst=group, size=64,
                                payload=None, kind="data"))
    sim.run()
    assert sw.frames_flooded == 0


def test_leave_for_unknown_group_does_not_register_it():
    """A stray leave must not flip a group from flood to drop."""
    sim, sw = _mk_switch()
    got = []
    sink = HalfLink(sim, QUIET, sw.stats, deliver=got.append,
                    count_as_send=False)
    p0 = sw.add_port(sink)
    sw.add_port(sink)
    group = mcast_mac(11)
    sw.receive(p0, Frame(src=1, dst=group, size=28,
                         payload=("leave", group), kind="igmp"))
    assert sw.members_of(group) == set()
    # unregistered: still floods (default switch behaviour)
    sw.receive(p0, Frame(src=1, dst=group, size=64,
                         payload=None, kind="data"))
    sim.run()
    assert sw.frames_flooded == 1
    assert len(got) == 1


def test_igmp_propagates_only_out_trunk_ports():
    """Hosts never see membership reports (report suppression); other
    switches do."""
    sim, sw = _mk_switch()
    host_got, trunk_got = [], []
    host_link = HalfLink(sim, QUIET, sw.stats,
                         deliver=host_got.append, count_as_send=False)
    trunk_link = HalfLink(sim, QUIET, sw.stats,
                          deliver=trunk_got.append, count_as_send=False,
                          is_trunk=True)
    host_port = sw.add_port(host_link)
    sw.add_port(trunk_link, trunk=True)
    group = mcast_mac(9)
    sw.receive(host_port, Frame(src=1, dst=group, size=28,
                                payload=("join", group), kind="igmp"))
    sim.run()
    assert host_got == []
    assert len(trunk_got) == 1 and trunk_got[0].kind == "igmp"


def test_snooping_diffuses_across_the_fabric():
    """After world setup on a tree, the core knows both segments are
    members and each leaf knows the outside world is interested."""
    def main(env):
        yield from env.comm.barrier()
        if env.rank == 0:
            cluster = env.comm.world.cluster
            group = env.comm.mcast.group
            core, leaves = cluster.fabric.core, cluster.fabric.leaves
            env.records["core"] = sorted(core.members_of(group))
            env.records["leaf0"] = sorted(leaves[0].members_of(group))
        return True

    result = run_spmd(8, main, topology="tree:2x4", params=QUIET)
    assert all(result.returns)
    # core: one member port per interested segment (its two trunk ports)
    assert result.records[0]["core"] == [0, 1]
    # leaf0: its four host ports plus the trunk (remote interest)
    assert len(result.records[0]["leaf0"]) == 5


def test_multicast_crosses_each_trunk_once_per_segment():
    """One multicast bcast on a 2-segment tree crosses the sender's
    uplink once and each interested downstream trunk once — never once
    per member."""
    def main(env):
        data = b"x" * 900 if env.rank == 0 else None
        data = yield from env.comm.bcast(data, 0)
        return len(data)

    one = run_spmd(8, lambda env: main(env), topology="tree:2x4",
                   params=QUIET,
                   collectives={"bcast": "mcast-binary"}).stats

    def main2(env):
        for _ in range(2):
            yield from main(env)

    result = run_spmd(8, main2, topology="tree:2x4", params=QUIET,
                      collectives={"bcast": "mcast-binary"})
    two = result.stats
    delta = (two["trunk_frames_by_kind"]["mcast-data"]
             - one["trunk_frames_by_kind"]["mcast-data"])
    assert delta == 2  # up from leaf0, down to leaf1 — not 4 (members)
    # cross-trunk multicast must also clean up across every ledger tier
    assert_quiesced(result.cluster, result.world)


def test_flat_switch_has_no_trunk_frames():
    def main(env):
        yield from env.comm.barrier()
        return True

    result = run_spmd(4, main, params=QUIET)
    assert result.stats["frames_trunk"] == 0
    assert result.stats["trunk_frames_by_kind"] == {}
