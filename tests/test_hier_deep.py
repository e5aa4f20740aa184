"""Recursive hierarchical collectives (``hier-mcast``) on deep and
heterogeneous fabrics: the pure hierarchy layer (trees, phases,
canonical order), full-op correctness at many roots, leaders-of-leaders
recursion, and auto selection of the new scatter/gather/allgather
entries."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _invariants import assert_quiesced
from repro import run_spmd
from repro.mpi.collective.hier import (build_hier_tree, canonical_order,
                                       compile_plan, group_members,
                                       hier_state, tree_internal_nodes)
from repro.mpi.ops import Op, SUM
from repro.obs import FlightRecorder
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)
AUTO = quiet(replace(FAST_ETHERNET_SWITCH, segment_bytes="auto"))

#: 8 ranks, 4 leaves of 2, three switch tiers
DEEP = "tree:2x2x2"
DEEP_SEG = (0, 0, 1, 1, 2, 2, 3, 3)
DEEP_PATHS = ((0, 0), (0, 1), (1, 0), (1, 1))

HIER_ALL = {op: "hier-mcast" for op in
            ("bcast", "reduce", "allreduce", "barrier", "scatter",
             "gather", "allgather")}


# ------------------------------------------------ the pure hierarchy layer
def test_build_hier_tree_recursion_and_collapse():
    tree = build_hier_tree(DEEP_SEG, DEEP_PATHS)
    internals = tree_internal_nodes(tree)
    # core group + one group per mid switch: genuine leaders-of-leaders
    assert [n.path for n in internals] == [(), (0,), (1,)]
    assert group_members(internals[0]) == (0, 4)
    assert group_members(internals[1]) == (0, 2)
    assert group_members(internals[2]) == (4, 6)
    assert canonical_order(tree) == list(range(8))
    # two-tier default: exactly one leaders' group
    flat2 = build_hier_tree((0, 0, 0, 0, 1, 1, 1, 1))
    assert [n.path for n in tree_internal_nodes(flat2)] == [()]
    # a comm confined to one mid's subtree collapses the pass-through
    # tiers away: its top group bridges the two leaves directly
    sub = build_hier_tree((0, 0, 1, 1), ((0, 0), (0, 1)))
    internals = tree_internal_nodes(sub)
    assert [n.path for n in internals] == [(0,)]
    assert group_members(internals[0]) == (0, 2)


def test_phase_plans_cover_and_order_the_deep_tree():
    tree = build_hier_tree(DEEP_SEG, DEEP_PATHS)
    plan = compile_plan("bcast", tree, 5)
    assert {step.kind for step in plan} == {"serve"}
    groups = [step.group for step in plan]
    # root 5's leaf first, then its chain bottom-up, then the rest
    assert groups[0].key == ("leaf", 2) and groups[0].root == 5
    assert groups[1].key == ("node", (1,)) and groups[1].root == 4
    assert groups[2].key == ("node", ()) and groups[2].root == 4
    # every rank receives: union of members over groups = all ranks
    covered = set()
    for group in groups:
        covered.update(group.members)
    assert covered == set(range(8))
    # the up-sweep's holder is the leader of root 5's top-level
    # subtree: it collects the top group and forwards to the root
    for op, kind in (("reduce", "fold"), ("gather", "collect")):
        *body, last = compile_plan(op, tree, 5)
        assert {step.kind for step in body} == {kind}
        assert body[-1].group.key == ("node", ())
        assert body[-1].group.root == 4
        assert last.kind == "forward" and last.group.key == ("hop", (4, 5))
        assert last.label == f"{op}@hop4.5"
    # ... and nothing is forwarded when the root is the holder
    assert all(step.kind != "forward"
               for step in compile_plan("gather", tree, 4))
    # scatter: the root is not its subtree's leader, so it hoists the
    # rest to the holder right after serving its own leaf
    kinds = [(step.kind, step.group.key)
             for step in compile_plan("scatter", tree, 5)]
    assert kinds[:3] == [("deal", ("leaf", 2)), ("forward", ("hop", (5, 4))),
                         ("deal", ("node", ()))]
    # ... and a group whose one receiver leads the root's leaf, which
    # that leaf's deal already served, gets no step at all
    assert ("deal", ("node", (0,))) not in [
        (step.kind, step.group.key) for step in compile_plan("scatter", tree, 3)]
    assert ("deal", ("node", (0,))) in [
        (step.kind, step.group.key) for step in compile_plan("scatter", tree, 0)]
    # the top group never re-broadcasts downwards (it learned in "up")
    ag = compile_plan("allgather", tree)
    assert [step.kind for step in ag] == ["exchange"] * 7 + ["serve"] * 6
    assert all(step.group.key != ("node", ())
               for step in ag if step.kind == "serve")
    # barrier: every sync bottom-up precedes every release top-down,
    # each pair named by its group key on every member
    bar = compile_plan("barrier", tree)
    assert [step.label for step in bar] == [
        "barrier-up@leaf0", "barrier-up@leaf1", "barrier-up@leaf2",
        "barrier-up@leaf3", "barrier-up@node0", "barrier-up@node1",
        "barrier-up@node", "barrier-down@node", "barrier-down@node0",
        "barrier-down@node1", "barrier-down@leaf0", "barrier-down@leaf1",
        "barrier-down@leaf2", "barrier-down@leaf3"]
    # a composite has no plan of its own: its parts compile theirs
    with pytest.raises(KeyError):
        compile_plan("allreduce", tree)


@st.composite
def _placements(draw):
    """A fabric, which of its hosts join the communicator (at least
    two segments' worth), their shuffled rank order, and a root."""
    topology, n = draw(st.sampled_from((
        ("tree:2x2x2", 8), ("tree:[2,1,2]", 5), ("tree:3x2", 6),
        ("tree:2x2x1", 4))))
    order = draw(st.permutations(range(n)))
    size = draw(st.integers(n - 1, n))
    return topology, n, order[:size], draw(st.integers(0, size - 1))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_placements())
def test_every_rank_traces_its_restriction_of_the_plan(placement):
    """For every op, the ``phase`` spans a rank records are exactly the
    compiled plan restricted to the groups it belongs to — same order,
    same labels on every member of a group."""
    topology, n, order, root = placement
    ops = ("bcast", "reduce", "allreduce", "scatter", "gather",
           "allgather", "barrier")

    def main(env):
        key = order.index(env.rank) if env.rank in order else None
        sub = yield from env.comm.split(None if key is None else 0,
                                        key or 0)
        if sub is None:
            return None
        sub.use_collectives(**HIER_ALL)
        size = sub.size
        yield from sub.bcast(b"x" * 3000 if sub.rank == root else None,
                             root)
        yield from sub.reduce(sub.rank, SUM, root)
        yield from sub.allreduce(sub.rank, SUM)
        mine = yield from sub.scatter(
            list(range(size)) if sub.rank == root else None, root)
        assert mine == sub.rank
        got = yield from sub.gather(mine, root)
        assert got == (list(range(size)) if sub.rank == root else None)
        every = yield from sub.allgather(mine)
        assert every == list(range(size))
        yield from sub.barrier()
        return sub.rank, sub._hier.digest.tree

    recorders = []
    result = run_spmd(
        n, main, topology=topology, params=QUIET,
        on_cluster=lambda c: recorders.append(FlightRecorder().attach(c)))
    members = [r for r in result.returns if r is not None]
    tree = members[0][1]
    # per sub-communicator rank: [(op, [phase labels in order]), ...]
    traced = {rank: [] for rank, _tree in members}
    open_phases = {rank: [] for rank in traced}
    for ev in recorders[0].events:
        if ev[0] != "span":
            continue
        _span, rank, cat, name = ev[:4]
        if cat == "phase":
            open_phases[rank].append(name)
        elif cat == "collective" and name.endswith(":hier-mcast"):
            traced[rank].append((name.split(":")[0], open_phases[rank]))
            open_phases[rank] = []
    for rank, calls in traced.items():
        # (the allreduce's parts, a reduce and a bcast at rank 0, are
        # called, not dispatched: their phases nest in its one span)
        assert [op for op, _labels in calls] == list(ops)
        for op, labels in calls:
            plan = (compile_plan("reduce", tree, 0)
                    + compile_plan("bcast", tree, 0)
                    if op == "allreduce" else compile_plan(op, tree, root))
            assert labels and labels == [
                step.label for step in plan
                if rank in step.group.members], (rank, op)


def test_non_contiguous_on_deep_tree_detected():
    # interleaved ranks across the core: leader-ordered folding would
    # reorder operands
    seg = (0, 2, 1, 3, 0, 2, 1, 3)
    tree = build_hier_tree(seg, DEEP_PATHS)
    assert canonical_order(tree) != list(range(8))


# ------------------------------------------------ end-to-end correctness
@pytest.mark.parametrize("root", [0, 3, 5])
def test_deep_bcast_from_any_root(root):
    def main(env):
        data = bytes([root]) * 20_000 if env.rank == root else None
        data = yield from env.comm.bcast(data, root)
        return data == bytes([root]) * 20_000

    result = run_spmd(8, main, topology=DEEP, params=AUTO,
                      collectives={"bcast": "hier-mcast"})
    assert result.returns == [True] * 8
    # hier channels allocate per-tier groups and slabs: prove every
    # ledger (sockets, memberships, snooped switches) drains to nothing
    assert_quiesced(result.cluster, result.world)


@pytest.mark.parametrize("root", [0, 6])
def test_deep_reduce_canonical_order_non_commutative(root):
    concat = Op("CONCAT", lambda a, b: a + b, commutative=False)

    def main(env):
        out = yield from env.comm.reduce(str(env.rank), concat, root)
        return out

    result = run_spmd(8, main, topology=DEEP, params=QUIET,
                      collectives={"reduce": "hier-mcast"})
    assert result.returns[root] == "01234567"
    assert all(r is None for i, r in enumerate(result.returns)
               if i != root)


@pytest.mark.parametrize("topology,n", [(DEEP, 8), ("tree:[4,8,2]", 14)])
def test_deep_scatter_gather_allgather_roundtrip(topology, n):
    def main(env):
        size = env.comm.size
        objs = None
        if env.rank == 1:
            objs = [bytes([r]) * 3000 for r in range(size)]
        mine = yield from env.comm.scatter(objs, 1)
        ok = mine == bytes([env.rank]) * 3000
        got = yield from env.comm.gather(mine, 2)
        if env.rank == 2:
            ok = ok and got == [bytes([r]) * 3000 for r in range(size)]
        every = yield from env.comm.allgather(env.rank * 11)
        ok = ok and every == [r * 11 for r in range(size)]
        return ok

    result = run_spmd(n, main, topology=topology, params=AUTO,
                      collectives=HIER_ALL)
    assert result.returns == [True] * n


def test_deep_allreduce_and_barrier():
    def main(env):
        yield env.sim.timeout(29.0 * env.rank)   # staggered entry
        entered = env.now
        yield from env.comm.barrier()
        released = env.now
        out = yield from env.comm.allreduce(
            np.full(3000, float(env.rank + 1)), SUM)
        return entered, released, bool(np.all(out == 36.0))

    result = run_spmd(8, main, topology=DEEP, params=AUTO,
                      collectives=HIER_ALL)
    last_entry = max(e for e, _r, _ok in result.returns)
    for _e, released, ok in result.returns:
        assert released >= last_entry
        assert ok
    assert_quiesced(result.cluster, result.world)


@pytest.mark.parametrize("topology", ["tree:2x4", "tree:2x2x2",
                                      "tree:2x4x4"])
def test_barrier_closed_form_matches_the_simulator(topology):
    """The plan's barrier cost — per group of k, k-1 scouts + 1 release
    frame; trunk = the scout tree's hops + the release's multicast
    edges — equals the simulator's per-call ``frames_sent`` and
    ``frames_trunk`` deltas (two calls minus one, isolating the
    one-time channel setup)."""
    from repro.analysis.framecount import model_hier_frames
    from repro.simnet.fabric import parse_topology

    fab = parse_topology(topology)
    seg_of = tuple(s for s, n in enumerate(fab.leaf_sizes)
                   for _ in range(n))

    def stats(calls):
        def main(env):
            for _ in range(calls):
                yield from env.comm.barrier()

        return run_spmd(len(seg_of), main, topology=topology,
                        params=QUIET,
                        collectives={"barrier": "hier-mcast"}).stats

    one, two = stats(1), stats(2)
    frames, trunk = model_hier_frames("barrier", seg_of, 0, 0, QUIET,
                                      tuple(fab.leaf_paths()))
    assert frames == two["frames_sent"] - one["frames_sent"]
    assert trunk == two["frames_trunk"] - one["frames_trunk"]
    assert frames > 0 and trunk > 0


def test_deep_hier_state_builds_recursive_channels():
    def main(env):
        yield from env.comm.bcast(b"w" if env.rank == 0 else None, 0)
        st = env.comm._hier
        return (sorted(st.comms), st.digest.contiguous)

    result = run_spmd(8, main, topology=DEEP, params=AUTO,
                      collectives={"bcast": "hier-mcast"})
    keys0, contiguous = result.returns[0]
    assert contiguous
    # rank 0 is leader of everything on its chain: leaf 0, mid (0,),
    # and the core group
    assert keys0 == [("leaf", 0), ("node", ()), ("node", (0,))]
    keys1, _ = result.returns[1]
    assert keys1 == [("leaf", 0)]          # plain member: leaf only
    keys6, _ = result.returns[6]
    assert keys6 == [("leaf", 3), ("node", (1,))]


def test_deep_repair_stays_inside_the_losing_leaf():
    """Induced loss on a leaf channel of a 3-tier fabric is repaired by
    the leaf's leader — repair data never touches any trunk tier."""
    size = 24_000

    def main(env, lossy=True):
        env.comm.use_collectives(bcast="hier-mcast")
        yield from env.comm.bcast(b"w" if env.rank == 0 else None, 0)
        if env.rank == 7 and lossy:
            seen = set()
            port = env.comm._hier.seg_comm.mcast.data_sock.port

            def drop_first(dgram):
                if dgram.kind != "mcast-seg" or dgram.dst_port != port:
                    return None
                key = dgram.payload[:2]
                if key in seen:
                    return None
                seen.add(key)
                return "drop"

            env.host.frame_fate = drop_first
        data = yield from env.comm.bcast(
            bytes(size) if env.rank == 0 else None, 0)
        return len(data)

    lossy = run_spmd(8, main, topology=DEEP, params=AUTO)
    clean = run_spmd(8, lambda env: main(env, lossy=False),
                     topology=DEEP, params=AUTO)
    assert lossy.returns == clean.returns == [size] * 8
    assert lossy.stats["retransmissions"] > 0
    assert (lossy.stats["trunk_frames_by_kind"]["mcast-seg"]
            == clean.stats["trunk_frames_by_kind"]["mcast-seg"])


def test_auto_picks_hier_for_new_ops_on_deep_tree():
    """End to end: a large scatter on a deep tree resolves to hier-mcast
    on every rank (the model favors the hierarchy's trunk confinement
    there: 2,607 vs the p2p tree's 2,650 serializations on
    ``tree:2x2x4``).  The gather beside it keeps the p2p tree: priced
    exactly, its subtree bundles undercut the hierarchy's per-turn
    streams (2,650 vs 2,695; on ``tree:2x2x2`` at 48,000 B, 1,202 vs
    1,263).  An allgather on a wide heterogeneous tree weighs the
    hierarchy (978) against its gather∘bcast parts, each at its own
    pick — the p2p gather (285) and the flat bcast of the bundle (373)
    — and runs the parts, announced once."""
    from repro.analysis.framecount import topo_digest
    from repro.mpi.collective.policy import auto_impl

    assert auto_impl("gather", 48_000, 8, AUTO, topo=topo_digest(
        DEEP_SEG, DEEP_PATHS)) == "p2p-binomial"
    topo = topo_digest(tuple(s // 4 for s in range(16)),
                       ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert auto_impl("gather", 48_000, 16, AUTO, topo=topo) == \
        "p2p-binomial"
    assert auto_impl("scatter", 16 * 48_000, 16, AUTO, topo=topo) == \
        "hier-mcast"

    def main(env):
        env.comm.use_collectives(gather="auto", scatter="auto")
        n = env.comm.size
        yield from env.comm.gather(bytes(48_000), 0)
        objs = [bytes(48_000)] * n if env.rank == 0 else None
        yield from env.comm.scatter(objs, 0)
        return [name for _op, name in env.comm.impl_log]

    result = run_spmd(16, main, topology="tree:2x2x4", params=AUTO)
    logs = set(tuple(log) for log in result.returns)
    assert logs == {("p2p-binomial", "hier-mcast")}

    wide = topo_digest((0,) * 4 + (1,) * 8 + (2,) * 2,
                       ((0,), (1,), (2,)))
    assert auto_impl("allgather", 8_000, 14, AUTO, topo=wide) == \
        "p2p-binomial+mcast-seg-nack"

    def ag_main(env):
        env.comm.use_collectives(allgather="auto", gather="auto",
                                 bcast="auto")
        out = yield from env.comm.allgather(bytes(8_000))
        assert len(out) == env.comm.size
        return list(env.comm.impl_log)

    ag = run_spmd(14, ag_main, topology="tree:[4,8,2]", params=AUTO)
    assert {tuple(log) for log in ag.returns} == {
        (("allgather", "p2p-binomial+mcast-seg-nack"),)}
    assert ag.stats["frames_by_kind"]["scout-dec"] == 13


def test_hier_survives_dup_split_on_deep_tree():
    def main(env):
        env.comm.use_collectives(**HIER_ALL)
        dup = yield from env.comm.dup()
        a = yield from dup.bcast(b"a" * 5000 if env.rank == 0 else None,
                                 0)
        half = yield from dup.split(env.rank % 2, key=env.rank)
        tot = yield from half.allreduce(1, SUM)
        half.free()
        dup.free()
        return len(a), tot

    result = run_spmd(8, main, topology=DEEP, params=AUTO)
    assert result.returns == [(5000, 4)] * 8


def test_single_member_leaf_gets_its_scatter_element():
    """tree:[2,1,2]: the middle segment is one lone rank whose element
    arrives as a one-entry bundle from its leader group."""
    def main(env):
        objs = ([bytes([r]) * 2000 for r in range(5)]
                if env.rank == 0 else None)
        mine = yield from env.comm.scatter(objs, 0)
        g = yield from env.comm.gather(mine, 4)
        if env.rank == 4:
            return g == [bytes([r]) * 2000 for r in range(5)]
        return mine == bytes([env.rank]) * 2000

    result = run_spmd(5, main, topology="tree:[2,1,2]", params=AUTO,
                      collectives=HIER_ALL)
    assert result.returns == [True] * 5


def test_early_hier_state_inspection_on_deep_tree():
    def main(env):
        if env.rank in (0, 7):
            st = hier_state(env.comm)       # early inspection
            assert not st.synced
        data = yield from env.comm.bcast(
            bytes(8000) if env.rank == 0 else None, 0)
        return len(data) == 8000 and env.comm._hier.synced

    result = run_spmd(8, main, topology=DEEP, params=AUTO,
                      collectives={"bcast": "hier-mcast"})
    assert result.returns == [True] * 8


def test_hier_slab_recycled_after_free():
    """Churning hier communicators must not march the group/port slab
    space forward forever: once every member frees a communicator, its
    slab is reused by the next one (regression for long-lived jobs)."""
    def main(env):
        marches = []
        for _ in range(4):
            dup = yield from env.comm.dup()
            dup.use_collectives(allreduce="hier-mcast")
            tot = yield from dup.allreduce(1, SUM)
            assert tot == env.comm.size
            yield from env.comm.barrier()   # nobody frees early
            dup.free()
            yield env.sim.timeout(3000.0)   # leaves propagate
            marches.append(env.comm.world._hier_next)
        return marches

    result = run_spmd(8, main, topology=DEEP, params=AUTO)
    for marches in result.returns:
        # the allocator advanced once (the first dup) and then reused
        # the freed slab for every later churn iteration
        assert len(set(marches)) == 1, marches
