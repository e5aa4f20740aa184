"""Recursive multi-tier fabrics: the extended topology grammar,
multi-level discovery, per-tier trunk parameters, IGMP snooping across
several trunk hops, and the probabilistic NetParams.loss wiring."""

from dataclasses import replace

import pytest

from repro import run_spmd
from repro.analysis.framecount import topo_digest
from repro.simnet import build_cluster, parse_topology, quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH
from repro.simnet.fabric import FabricSpec, path_trunk_hops

QUIET = quiet(FAST_ETHERNET_SWITCH)
AUTO = quiet(replace(FAST_ETHERNET_SWITCH, segment_bytes="auto"))


# ------------------------------------------------------------ parsing
def test_parse_topology_deep_and_heterogeneous():
    deep = parse_topology("tree:2x2x2")
    assert deep == FabricSpec(4, 2, branching=(2, 2))
    assert deep.n == 8 and len(deep.branching) == 2
    assert deep.leaf_paths() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    het = parse_topology("tree:[4,8,2]")
    assert het.segments == 3 and het.leaf_sizes == (4, 8, 2)
    assert het.n == 14 and het.hosts_per_segment == 0
    # a uniform bracket list equals its SxH spelling
    assert parse_topology("tree:[4,4]") == parse_topology("tree:2x4")
    # the two-tier spelling is the depth-1 special case, unchanged
    assert parse_topology("tree:2x4") == FabricSpec(2, 4)


def test_parse_topology_rejects_degenerate_deep_specs():
    with pytest.raises(ValueError):
        parse_topology("tree:2x0x2")
    with pytest.raises(ValueError):
        parse_topology("tree:[4,0]")
    with pytest.raises(ValueError):
        FabricSpec(2, 4, branching=(3,))   # 3 != 2 segments


def test_path_trunk_hops():
    assert path_trunk_hops((0,), (0,)) == 0
    assert path_trunk_hops((0,), (1,)) == 2
    assert path_trunk_hops((0, 0), (0, 1)) == 2
    assert path_trunk_hops((0, 0), (1, 1)) == 4
    assert path_trunk_hops((0, 0, 0), (1, 0, 0)) == 6


# ------------------------------------------------------------ discovery
def test_deep_cluster_discovery_api():
    cluster = build_cluster(8, topology="tree:2x2x2", params=QUIET)
    assert cluster.nsegments == 4
    assert {len(cluster.segment_path(s)) for s in range(4)} == {2}
    seg_of = [cluster.segment_of(a) for a in range(8)]
    assert seg_of == [0, 0, 1, 1, 2, 2, 3, 3]
    assert cluster.segment_path(0) == (0, 0)
    assert cluster.segment_path(3) == (1, 1)
    hops = topo_digest(seg_of, [cluster.segment_path(s)
                                for s in range(4)]).hops
    assert hops[0][0] == 0      # same leaf
    assert hops[0][1] == 2      # sibling leaves
    assert hops[0][3] == 4      # across the core
    assert hops[1][2] == 4 and hops[2][3] == 2
    # switch census: core + 2 mids + 4 leaves
    assert len(cluster.fabric.nodes) == 7
    assert len(cluster.fabric.leaves) == 4


def test_heterogeneous_cluster_discovery():
    cluster = build_cluster(14, topology="tree:[4,8,2]", params=QUIET)
    assert cluster.nsegments == 3
    seg_of = [cluster.segment_of(a) for a in range(14)]
    assert seg_of == [0] * 4 + [1] * 8 + [2] * 2
    assert cluster.segment_path(2) == (2,)
    digest = topo_digest(seg_of, [cluster.segment_path(s)
                                  for s in range(3)])
    assert digest.members == (4, 8, 2) and digest.hops[0][2] == 2
    with pytest.raises(ValueError, match="exactly 14 hosts"):
        build_cluster(9, topology="tree:[4,8,2]", params=QUIET)


# ------------------------------------------------- snooping across tiers
def test_snooping_diffuses_across_three_tiers():
    """After world setup on a 3-tier tree, every switch on the path
    knows exactly which ports face members."""
    def main(env):
        yield from env.comm.barrier()
        if env.rank == 0:
            fabric = env.comm.world.cluster.fabric
            group = env.comm.mcast.group
            env.records["core"] = sorted(
                fabric.core.members_of(group))
            mid = fabric.nodes[(0,)]
            env.records["mid"] = sorted(mid.members_of(group))
            env.records["leaf"] = sorted(
                fabric.leaves[0].members_of(group))
        return True

    result = run_spmd(8, main, topology="tree:2x2x2", params=QUIET)
    rec = result.records[0]
    # core: one member port per interested mid switch
    assert len(rec["core"]) == 2
    # mid (0,): uplink + two leaf ports all front members
    assert len(rec["mid"]) == 3
    # leaf0: its two host ports plus the uplink (remote interest)
    assert len(rec["leaf"]) == 3


def test_multicast_crosses_only_needed_trunk_edges_on_deep_tree():
    """A sub-communicator confined to one mid switch's subtree never
    pays the core tier: its multicast frames stay below mid (0,)."""
    def main(env):
        sub = yield from env.comm.split(env.rank // 4, key=env.rank)
        sub.use_collectives(bcast="mcast-binary")
        # world (p2p) barriers fence every rank's window around BOTH
        # halves' broadcasts, however the split's own traffic staggers
        # the halves
        yield from env.comm.barrier()
        before = env.comm.world.cluster.stats.snapshot()
        data = yield from sub.bcast(
            b"x" * 900 if sub.rank == 0 else None, 0)
        yield from env.comm.barrier()
        diff = env.comm.world.cluster.stats.diff(before)
        return len(data), diff["trunk_frames_by_kind"].get(
            "mcast-data", 0)

    result = run_spmd(8, main, topology="tree:2x2x2", params=QUIET)
    lens = {length for length, _t in result.returns}
    assert lens == {900}
    # both 4-rank halves broadcast one single-frame payload: each
    # crosses exactly the two trunks under its own mid switch (up +
    # down), never the core — stats are global, so every rank observes
    # the same total
    totals = {t for _l, t in result.returns}
    assert totals == {4}


# ------------------------------------------------------- loss wiring
def test_netparams_loss_drops_for_real_and_is_repaired():
    lossy = replace(AUTO, loss=0.08)

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        data = yield from env.comm.bcast(
            bytes(96_000) if env.rank == 0 else None, 0)
        return len(data)

    result = run_spmd(4, main, params=lossy, seed=3)
    assert result.returns == [96_000] * 4
    assert result.stats["drops_lossy"] > 0
    assert result.stats["retransmissions"] > 0
    # deterministic: same seed, same drops
    again = run_spmd(4, main, params=lossy, seed=3)
    assert again.stats["drops_lossy"] == result.stats["drops_lossy"]
    # independent of the jitter stream: loss off, zero lossy drops
    clean = run_spmd(4, main, params=AUTO, seed=3)
    assert clean.stats["drops_lossy"] == 0


def test_loss_only_touches_mcast_seg_data():
    """Control traffic (scouts, reports, decisions) and p2p must never
    be lossy — only the repairable multicast data path is."""
    lossy = replace(QUIET, loss=0.5)

    def main(env):
        # p2p collectives + the p2p barrier: no mcast-seg traffic
        data = yield from env.comm.bcast(
            b"y" * 5000 if env.rank == 0 else None, 0)
        yield from env.comm.barrier()
        return len(data)

    result = run_spmd(4, main, params=lossy, seed=1)
    assert result.returns == [5000] * 4
    assert result.stats["drops_lossy"] == 0


def test_slow_trunks_do_not_livelock_the_repair_loop():
    """Regression: every deadline prices the store-and-forward trunk
    hops — one more serialization of the datagram (the drain timeout)
    and of each control message (``control_hop_us``) per hop.  On a
    three-tier tree a far receiver must not NACK data still crossing
    the core (which used to livelock the repair loop until its retry
    bound), nor may an ack root resend before the far acks can arrive."""
    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack",
                                 gather="hier-mcast")
        out = yield from env.comm.bcast(
            bytes(12_000) if env.rank == 0 else None, 0)
        got = yield from env.comm.gather(len(out), 0)
        return got if env.rank == 0 else out is not None

    result = run_spmd(8, main, topology="tree:2x2x2", params=AUTO)
    assert result.returns[0] == [12_000] * 8
    assert result.stats["retransmissions"] == 0

    def acked(env):
        env.comm.use_collectives(bcast="mcast-ack")
        out = yield from env.comm.bcast(
            bytes(1000) if env.rank == 0 else None, 0)
        return len(out)

    # a 10 Mb/s fabric: the N-1 acks crossing up to 4 trunks each
    slow = run_spmd(8, acked, topology="tree:2x2x2",
                    params=replace(AUTO, rate_mbps=10.0))
    assert slow.returns == [1000] * 8
    assert slow.stats["retransmissions"] == 0
