"""Hierarchical multicast collectives (``hier-mcast``) on tiered
fabrics: correctness at every root, canonical reduction order, trunk
savings, repair locality, and graceful degradation to flat clusters."""

from dataclasses import replace

import numpy as np
import pytest

from repro import run_spmd
from repro.mpi.collective.hier import hier_state
from repro.mpi.ops import Op, SUM
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)
AUTO = quiet(replace(FAST_ETHERNET_SWITCH, segment_bytes="auto"))

HIER_ALL = {"bcast": "hier-mcast", "reduce": "hier-mcast",
            "allreduce": "hier-mcast", "barrier": "hier-mcast"}


@pytest.mark.parametrize("root", [0, 2, 5])
def test_hier_bcast_delivers_everywhere(root):
    """Roots in either segment, leaders or not."""
    def main(env):
        data = bytes([root]) * 20_000 if env.rank == root else None
        data = yield from env.comm.bcast(data, root)
        return data == bytes([root]) * 20_000

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO,
                      collectives={"bcast": "hier-mcast"})
    assert result.returns == [True] * 8


def test_hier_bcast_small_and_opaque_payloads():
    def main(env):
        small = yield from env.comm.bcast(
            b"x" if env.rank == 0 else None, 0)
        obj = yield from env.comm.bcast(
            {"k": [1, 2, 3]} if env.rank == 7 else None, 7)
        return small, obj

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO,
                      collectives={"bcast": "hier-mcast"})
    assert result.returns == [(b"x", {"k": [1, 2, 3]})] * 8


@pytest.mark.parametrize("root", [0, 3, 6])
def test_hier_reduce_sums_at_any_root(root):
    def main(env):
        arr = np.full(3000, float(env.rank + 1))
        out = yield from env.comm.reduce(arr, SUM, root)
        if env.rank == root:
            return bool(np.all(out == 36.0))
        return out is None

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO,
                      collectives={"reduce": "hier-mcast"})
    assert result.returns == [True] * 8


def test_hier_reduce_canonical_order_contiguous_segments():
    """Contiguous rank blocks: hierarchical folding must equal MPI's
    absolute-rank order even for non-commutative ops, at any root."""
    concat = Op("CONCAT", lambda a, b: a + b, commutative=False)

    def main(env):
        out = yield from env.comm.reduce(str(env.rank), concat, root=5)
        return out

    result = run_spmd(8, main, topology="tree:2x4", params=QUIET,
                      collectives={"reduce": "hier-mcast"})
    assert result.returns[5] == "01234567"
    assert all(r is None for i, r in enumerate(result.returns) if i != 5)


def test_hier_reduce_non_contiguous_falls_back_to_canonical():
    """A split that interleaves segments (even ranks with odd ranks
    swapped across leaves) must still produce canonical order for a
    non-commutative op — the impl falls back to the flat engine."""
    concat = Op("CONCAT", lambda a, b: a + b, commutative=False)

    def main(env):
        # reorder ranks so segments are non-contiguous in the new comm:
        # new rank = 0,2,4,6,1,3,5,7 over hosts 0..7
        key = (env.rank % 4) * 2 + env.rank // 4
        sub = yield from env.comm.split(0, key=key)
        st = hier_state(sub)
        out = yield from sub.reduce(str(sub.rank), concat, root=0)
        return st.digest.contiguous, out

    result = run_spmd(8, main, topology="tree:2x4", params=QUIET,
                      collectives={"reduce": "hier-mcast"})
    contigs = {c for c, _ in result.returns}
    assert contigs == {False}
    outs = [o for _, o in result.returns if o is not None]
    assert outs == ["01234567"]


def test_hier_allreduce_everyone_gets_the_sum():
    def main(env):
        arr = np.full(4000, float(env.rank + 1))
        out = yield from env.comm.allreduce(arr, SUM)
        return bool(np.all(out == 36.0))

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO,
                      collectives={"allreduce": "hier-mcast"})
    assert result.returns == [True] * 8


def test_hier_barrier_holds_the_fence():
    """No rank may leave the barrier before every rank has entered."""
    def main(env):
        yield env.sim.timeout(37.0 * env.rank)  # staggered entry
        entered = env.now
        yield from env.comm.barrier()
        return entered, env.now

    result = run_spmd(8, main, topology="tree:2x4", params=QUIET,
                      collectives={"barrier": "hier-mcast"})
    last_entry = max(entered for entered, _left in result.returns)
    for _entered, left in result.returns:
        assert left >= last_entry


def test_hier_on_flat_cluster_degrades_to_flat_engine():
    def main(env):
        env.comm.use_collectives(**HIER_ALL)
        data = yield from env.comm.bcast(
            bytes(12_000) if env.rank == 0 else None, 0)
        tot = yield from env.comm.allreduce(1, SUM)
        yield from env.comm.barrier()
        # no sub-channels were built: one segment
        return len(data), tot, env.comm._hier.seg_comm is None

    result = run_spmd(4, main, params=AUTO)
    assert result.returns == [(12_000, 4, True)] * 4
    assert result.stats["frames_trunk"] == 0


def test_hier_on_single_segment_subcomm_degrades():
    """A sub-communicator confined to one leaf has one segment: the
    hier entries must run the flat engine on it, correctly."""
    def main(env):
        sub = yield from env.comm.split(env.rank // 4, key=env.rank)
        sub.use_collectives(bcast="hier-mcast")
        data = yield from sub.bcast(
            bytes([sub.rank]) if sub.rank == 0 else None, 0)
        return data == b"\x00" and sub._hier.seg_comm is None

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO)
    assert result.returns == [True] * 8


def _trunk_frames(impl, n_ops, size=24_000, op="bcast",
                  round_robin=False):
    def main(env):
        comm = env.comm
        if round_robin:
            # comm ranks 0..7 on hosts 0,4,1,5,...: segments alternate
            comm = yield from env.comm.split(
                0, key=(env.rank % 4) * 2 + env.rank // 4)
        comm.use_collectives(**{op: impl})
        for _ in range(n_ops):
            if op == "bcast":
                data = yield from comm.bcast(
                    bytes(size) if comm.rank == 0 else None, 0)
                assert len(data) == size
            else:
                yield from comm.reduce(np.ones(size // 8), SUM, 0)
        return True

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO)
    assert all(result.returns)
    return result.stats["frames_trunk"]


def _trunk_frames_per_call(impl, **kw):
    """One call's trunk serializations (the one-time IGMP setup is
    excluded by differencing a one-op and a two-op run)."""
    return _trunk_frames(impl, 2, **kw) - _trunk_frames(impl, 1, **kw)


def test_hier_bcast_beats_flat_on_trunk_frames_per_call():
    """The headline claim, restated on measurement in PR 18.  Before
    it the flat segmented broadcast paid the trunk once per remote
    rank per control sweep (56 trunk frames a call against the
    hierarchy's 44).  Its reports now fold up the rank tree and its
    decision is one multicast, so on block placement — where the rank
    binomial tree crosses the trunk on a single edge — flat *ties* the
    hierarchy, 44 = 44: same spanning edges for every multicast, same
    one cross edge per gather.  Where the hierarchy still wins on the
    trunks, strictly: round-robin placement (the rank tree crosses the
    trunk on every other edge; the hierarchy never looks at rank
    order), the reduce turn loop (N-1 flat streams span the fabric,
    the hierarchy folds inside each segment first), and under loss
    (``test_hier_repair_stays_inside_the_losing_segment``)."""
    flat = _trunk_frames_per_call("mcast-seg-nack")
    hier = _trunk_frames_per_call("hier-mcast")
    assert (flat, hier) == (44, 44)
    flat = _trunk_frames_per_call("mcast-seg-nack", round_robin=True)
    hier = _trunk_frames_per_call("hier-mcast", round_robin=True)
    assert (flat, hier) == (62, 44)
    flat = _trunk_frames_per_call("mcast-seg-combine", op="reduce")
    hier = _trunk_frames_per_call("hier-mcast", op="reduce")
    assert hier == 44 and flat == 404


def test_hier_repair_stays_inside_the_losing_segment():
    """Induced loss on a rank's *segment* channel is repaired by its
    segment leader — the repair traffic never crosses a trunk."""
    size = 24_000

    def main(env, lossy=True):
        env.comm.use_collectives(bcast="hier-mcast")
        # warmup builds the hier channels (and pays the IGMP setup)
        yield from env.comm.bcast(b"w" if env.rank == 0 else None, 0)
        if env.rank == 6 and lossy:
            seen = set()
            port = env.comm._hier.seg_comm.mcast.data_sock.port

            def drop_first(dgram):
                if dgram.kind != "mcast-seg" or dgram.dst_port != port:
                    return None
                key = dgram.payload[:2] + (dgram.payload[2][0].index
                                           if isinstance(dgram.payload[2],
                                                         tuple)
                                           else dgram.payload[2].index,)
                if key in seen:
                    return None
                seen.add(key)
                return "drop"

            env.host.frame_fate = drop_first
        data = yield from env.comm.bcast(
            bytes(size) if env.rank == 0 else None, 0)
        return len(data)

    lossy = run_spmd(8, main, topology="tree:2x4", params=AUTO)
    clean = run_spmd(8, lambda env: main(env, lossy=False),
                     topology="tree:2x4", params=AUTO)
    assert lossy.returns == clean.returns == [size] * 8
    assert lossy.stats["retransmissions"] > 0
    # every repair was segment-local: identical trunk data traffic
    assert (lossy.stats["trunk_frames_by_kind"]["mcast-seg"]
            == clean.stats["trunk_frames_by_kind"]["mcast-seg"])


def test_hier_free_releases_segment_groups():
    """Freeing a communicator leaves its hier groups on every switch."""
    def main(env):
        env.comm.use_collectives(bcast="hier-mcast")
        yield from env.comm.bcast(b"x" if env.rank == 0 else None, 0)
        st = env.comm._hier
        seg_group = st.seg_comm.mcast.group
        cluster = env.comm.world.cluster
        leaf = cluster.fabric.leaves[cluster.segment_of(env.host.addr)]
        before = len(leaf.members_of(seg_group))
        yield from env.comm.barrier()
        env.comm.free()
        yield env.sim.timeout(5000.0)   # let the IGMP leaves propagate
        after = len(leaf.members_of(seg_group))
        return before > 0, after == 0

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO)
    assert result.returns == [(True, True)] * 8


def test_hier_mixes_with_other_collectives_and_dup():
    """hier-mcast interleaves with flat collectives and survives dup."""
    def main(env):
        env.comm.use_collectives(bcast="hier-mcast",
                                 allreduce="hier-mcast")
        a = yield from env.comm.bcast(
            b"a" * 5000 if env.rank == 0 else None, 0)
        tot = yield from env.comm.allreduce(1, SUM)
        gathered = yield from env.comm.gather(env.rank, 0)
        dup = yield from env.comm.dup()
        b = yield from dup.bcast(b"b" if env.rank == 3 else None, 3)
        dup.free()
        return (len(a), tot, gathered if env.rank == 0 else None, b)

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO)
    for rank, (la, tot, g, b) in enumerate(result.returns):
        assert (la, tot, b) == (5000, 8, b"b")
        if rank == 0:
            assert g == list(range(8))


def test_early_hier_state_inspection_keeps_setup_barrier_collective():
    """A rank that peeks at the discovery state (hier_state) before the
    first hier-mcast collective must neither skip nor desynchronize the
    one-time setup barrier."""
    def main(env):
        if env.rank in (0, 5):
            st = hier_state(env.comm)       # early inspection
            assert not st.synced
        data = yield from env.comm.bcast(
            bytes(8000) if env.rank == 0 else None, 0)
        return len(data) == 8000 and env.comm._hier.synced

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO,
                      collectives={"bcast": "hier-mcast"})
    assert result.returns == [True] * 8
