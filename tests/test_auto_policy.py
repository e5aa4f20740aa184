"""The payload-, topology- and loss-aware "auto" selection layer:
closed-form choices, the per-call resolution protocol (local vs
scout-tree announcement), the policy hook, and inheritance across
dup/split."""

from dataclasses import replace

import numpy as np
import pytest

from repro import run_spmd
from repro.analysis.framecount import topo_digest
from repro.mpi.collective.policy import (AUTO_CHOICES, auto_impl,
                                         comm_topology,
                                         modeled_frame_costs)
from repro.mpi.ops import SUM, Op
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)
AUTO = replace(QUIET, segment_bytes="auto")


def seg_cost(op, nbytes, size, params):
    """The policy's modeled cost of the op's flat segmented candidate."""
    return modeled_frame_costs(op, nbytes, size, params)[AUTO_CHOICES[op][1]]


def p2p_cost(op, nbytes, size, params):
    """The policy's modeled cost of the op's p2p baseline."""
    return modeled_frame_costs(op, nbytes, size, params)[AUTO_CHOICES[op][0]]


# ------------------------------------------------------------ unit layer
@pytest.mark.parametrize("op", sorted(AUTO_CHOICES))
def test_auto_picks_p2p_for_tiny_payloads(op):
    p2p_name, _seg = AUTO_CHOICES[op]
    assert auto_impl(op, 64, 4, AUTO) == p2p_name
    # degenerate communicators always take the p2p (= no-op) path
    assert auto_impl(op, 1 << 20, 1, AUTO) == p2p_name


@pytest.mark.parametrize("op,nbytes,size", [
    ("bcast", 48_000, 4),
    ("allreduce", 48_000, 4),
    ("allgather", 48_000, 4),
    ("scatter", 250_000, 8),     # scatter crosses over at larger N*bytes
])
def test_auto_picks_segmented_multicast_for_big_payloads(op, nbytes, size):
    assert auto_impl(op, nbytes, size, AUTO) == AUTO_CHOICES[op][1]


def test_auto_reduce_keeps_the_p2p_tree_at_every_size():
    """Many-to-one gains no frame advantage from multicast: each
    contribution crosses the wire once either way and the engine adds
    per-turn control — the policy documents this by always keeping
    the binomial tree for plain reduce."""
    for nbytes in (64, 1460, 48_000, 1 << 20):
        assert auto_impl("reduce", nbytes, 4, AUTO) == "p2p-binomial"
        assert (seg_cost("reduce", nbytes, 4, AUTO)
                > p2p_cost("reduce", nbytes, 4, AUTO))


def test_frame_estimates_grow_with_payload_and_reject_unknown_ops():
    for op in sorted(AUTO_CHOICES):
        assert (p2p_cost(op, 100_000, 4, AUTO)
                > p2p_cost(op, 100, 4, AUTO))
        assert (seg_cost(op, 100_000, 4, AUTO)
                > seg_cost(op, 100, 4, AUTO))
    with pytest.raises(KeyError, match="auto-capable"):
        auto_impl("barrier", 0, 4, AUTO)
    with pytest.raises(KeyError, match="auto-capable"):
        modeled_frame_costs("barrier", 0, 4, AUTO)


def test_use_collectives_validates_auto():
    def main(env):
        with pytest.raises(KeyError, match="auto-capable"):
            env.comm.use_collectives(barrier="auto")
        env.comm.use_collectives(bcast="auto")   # fine
        return True
        yield   # pragma: no cover - make this a generator

    result = run_spmd(2, main, params=QUIET)
    assert result.returns == [True] * 2


# ------------------------------------------------------- runtime behaviour
def test_auto_bcast_resolves_per_call_and_stays_consistent():
    """Small payload -> p2p tree; big payload -> segmented multicast.
    Only the root knows the payload, so the choice rides the scout-tree
    announcement — every rank must log identical resolutions."""
    def main(env):
        env.comm.use_collectives(bcast="auto")
        small = yield from env.comm.bcast(
            b"x" * 64 if env.rank == 0 else None, 0)
        big = yield from env.comm.bcast(
            bytes(48_000) if env.rank == 0 else None, 0)
        return (len(small), len(big), list(env.comm.impl_log))

    result = run_spmd(4, main, params=AUTO)
    sizes = [(s, b) for s, b, _log in result.returns]
    assert sizes == [(64, 48_000)] * 4
    logs = [log for _s, _b, log in result.returns]
    assert logs == [[("bcast", "p2p-binomial"),
                     ("bcast", "mcast-seg-nack")]] * 4
    result.verify_safe_schedules()


def test_auto_bcast_announcement_is_control_sized():
    """The per-call announcement must never ride payload frames — it is
    N-1 scout-sized control frames regardless of the choice."""
    def main(env):
        env.comm.use_collectives(bcast="auto")
        out = yield from env.comm.bcast(
            b"y" * 64 if env.rank == 0 else None, 0)
        return len(out)

    result = run_spmd(4, main, params=AUTO)
    assert result.returns == [64] * 4
    assert result.stats["frames_by_kind"].get("scout-dec", 0) == 3


def test_auto_scatter_resolves_from_the_root():
    """Non-root ranks pass None: resolution must come from the root's
    announcement, not local payload guessing."""
    def main(env):
        env.comm.use_collectives(scatter="auto")
        objs = None
        if env.rank == 0:
            objs = [bytes([r]) * 40_000 for r in range(env.size)]
        out = yield from env.comm.scatter(objs, 0)
        return (out == bytes([env.rank]) * 40_000,
                env.comm.impl_log[-1])

    result = run_spmd(8, main, params=AUTO)
    oks = [ok for ok, _ in result.returns]
    assert oks == [True] * 8
    impls = {impl for _, impl in result.returns}
    assert impls == {("scatter", "mcast-seg-root")}


def test_auto_reduce_and_allreduce_resolve_locally():
    def main(env):
        env.comm.use_collectives(reduce="auto", allreduce="auto")
        small = yield from env.comm.reduce(
            np.ones(8, dtype=np.float64), SUM, 0)
        big = yield from env.comm.allreduce(
            np.ones(6000, dtype=np.float64), SUM)
        ok = bool(np.all(big == env.size))
        ok = ok and (env.rank != 0 or bool(np.all(small == env.size)))
        # allreduce logs its own resolution; the composed mcast impl
        # calls the segmented reduce/bcast directly (not via dispatch)
        return ok, [e for e in env.comm.impl_log if e[0] != "bcast"]

    result = run_spmd(4, main, params=AUTO)
    for ok, log in result.returns:
        assert ok
        assert ("reduce", "p2p-binomial") in log
        assert ("allreduce", "mcast-seg-nack") in log


def test_auto_allgather_anchors_at_rank_zero():
    def main(env):
        env.comm.use_collectives(allgather="auto")
        out = yield from env.comm.allgather(bytes([env.rank]) * 20_000)
        ok = [x == bytes([r]) * 20_000 for r, x in enumerate(out)]
        return all(ok), env.comm.impl_log[-1]

    result = run_spmd(4, main, params=AUTO)
    for ok, impl in result.returns:
        assert ok
        assert impl == ("allgather", "mcast-seg-paced")


# ------------------------------------------------------------ policy hook
def test_set_collective_policy_hook_overrides_the_table():
    def pin_binary(comm, op, name, args):
        return "mcast-binary" if op == "bcast" else name

    def main(env):
        env.comm.set_collective_policy(pin_binary)
        out = yield from env.comm.bcast(
            b"z" * 100 if env.rank == 0 else None, 0)
        return len(out), env.comm.impl_log[-1]

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == [(100, ("bcast", "mcast-binary"))] * 3


def test_policy_hook_may_fall_through_to_auto():
    def big_goes_auto(comm, op, name, args):
        if op == "bcast":
            return "auto"
        return name

    def main(env):
        env.comm.set_collective_policy(big_goes_auto)
        out = yield from env.comm.bcast(
            bytes(48_000) if env.rank == 0 else None, 0)
        # removing the hook restores the static table
        env.comm.set_collective_policy(None)
        small = yield from env.comm.bcast(
            b"s" if env.rank == 0 else None, 0)
        return (len(out), len(small),
                [impl for _op, impl in env.comm.impl_log])

    result = run_spmd(4, main, params=AUTO)
    assert result.returns == [
        (48_000, 1, ["mcast-seg-nack", "p2p-binomial"])] * 4


def test_policy_hook_returning_auto_for_unsupported_op_fails_loudly():
    """A hook may return "auto" only for auto-capable ops; anything else
    must raise the same KeyError on every rank BEFORE any traffic, not
    strand the group in the announcement wait."""
    def main(env):
        env.comm.set_collective_policy(lambda c, op, name, args: "auto")
        yield from env.comm.barrier()

    with pytest.raises(KeyError, match="auto-capable"):
        run_spmd(3, main, params=QUIET, max_sim_us=100_000.0)


def test_auto_survives_dup_and_split():
    def main(env):
        env.comm.use_collectives(bcast="auto")
        sub = yield from env.comm.dup()
        out = yield from sub.bcast(
            bytes(48_000) if env.rank == 0 else None, 0)
        halves = yield from sub.split(env.rank % 2, key=env.rank)
        small = yield from halves.bcast(
            b"h" if halves.rank == 0 else None, 0)
        picked = [name for op, name in sub.impl_log if op == "bcast"]
        sub.free()
        halves.free()
        return len(out), len(small), "mcast-seg-nack" in picked

    result = run_spmd(4, main, params=AUTO)
    assert result.returns == [(48_000, 1, True)] * 4


# --------------------------------------------------- topology + loss layer
TREE_2x4 = topo_digest((0, 0, 0, 0, 1, 1, 1, 1))


def test_loss_shifts_the_bcast_crossover_back_to_p2p():
    """At 24 kB / 4 ranks the loss-free policy picks the segmented
    stream; a 30% expected loss rate prices in repair rounds and flips
    the choice back to the tree."""
    lossy = replace(AUTO, loss=0.3)
    assert auto_impl("bcast", 24_000, 4, AUTO) == "mcast-seg-nack"
    assert auto_impl("bcast", 24_000, 4, lossy) == "p2p-binomial"
    assert (seg_cost("bcast", 24_000, 4, lossy)
            > seg_cost("bcast", 24_000, 4, AUTO))


def test_loss_zero_keeps_pr3_choices_exactly():
    """The historical flat, loss-free behaviour is bit-for-bit intact:
    segmented iff its estimate is at or below p2p's."""
    for op in sorted(AUTO_CHOICES):
        for nbytes in (64, 1460, 12_000, 48_000):
            seg = seg_cost(op, nbytes, 4, AUTO)
            p2p = p2p_cost(op, nbytes, 4, AUTO)
            expect = AUTO_CHOICES[op][1 if seg <= p2p else 0]
            assert auto_impl(op, nbytes, 4, AUTO) == expect


def test_modeled_costs_include_hier_only_on_fabrics():
    flat = modeled_frame_costs("bcast", 24_000, 8, AUTO)
    assert "hier-mcast" not in flat
    tiered = modeled_frame_costs("bcast", 24_000, 8, AUTO, TREE_2x4)
    assert "hier-mcast" in tiered
    assert set(tiered) == {"p2p-binomial", "mcast-seg-nack",
                           "hier-mcast"}


def test_auto_always_picks_the_modeled_minimum_on_fabrics():
    for op in ("bcast", "reduce", "allreduce"):
        for nbytes in (64, 2000, 24_000, 100_000):
            costs = modeled_frame_costs(op, nbytes, 8, AUTO, TREE_2x4)
            pick = auto_impl(op, nbytes, 8, AUTO, topo=TREE_2x4)
            assert costs[pick] == min(costs.values()), (op, nbytes,
                                                        costs, pick)


def test_hier_estimate_tracks_trunk_savings():
    """Restated on measurement in PR 18.  While every remote receiver
    paid the trunk for its own report and decision, the hierarchy's
    modeled cost undercut the flat stream on any wide 2-segment fabric
    (222 < 246 on 2 x 16, block placement).  With the reports folding
    up the rank tree and one decision multicast, block placement gives
    the flat stream a single trunk-crossing tree edge: flat 156 < hier
    194 (the hierarchy's two extra in-segment streams now cost more than
    they save), and auto follows the exact model.  The hierarchy still
    wins where the rank tree fights the fabric — round-robin placement
    sends 16 of the 31 tree edges across the trunk, flat 246 > hier 194
    — and auto picks it there."""
    block = topo_digest((0,) * 16 + (1,) * 16)
    costs = modeled_frame_costs("bcast", 24_000, 32, AUTO, block)
    assert (costs["mcast-seg-nack"], costs["hier-mcast"]) == (156, 194)
    assert auto_impl("bcast", 24_000, 32, AUTO,
                     topo=block) == "mcast-seg-nack"
    round_robin = topo_digest((0, 1) * 16)
    costs = modeled_frame_costs("bcast", 24_000, 32, AUTO, round_robin)
    assert (costs["mcast-seg-nack"], costs["hier-mcast"]) == (246, 194)
    assert auto_impl("bcast", 24_000, 32, AUTO,
                     topo=round_robin) == "hier-mcast"


def test_hier_estimate_rejects_non_hier_ops():
    with pytest.raises(KeyError, match="auto-capable"):
        modeled_frame_costs("alltoall", 1000, 8, AUTO, TREE_2x4)


def test_comm_topology_is_none_on_flat_and_single_segment_comms():
    def main(env):
        world_topo = comm_topology(env.comm)
        sub = yield from env.comm.split(env.rank // 4, key=env.rank)
        return (world_topo.seg_of_rank if world_topo else None,
                comm_topology(sub) is None, world_topo.contiguous
                if world_topo else None)

    tree = run_spmd(8, main, topology="tree:2x4", params=QUIET)
    assert tree.returns == [((0, 0, 0, 0, 1, 1, 1, 1), True, True)] * 8
    flat = run_spmd(4, lambda env: main(env), params=QUIET)
    assert all(t is None for t, _sub, _c in flat.returns)


def test_auto_on_tree_fabric_resolves_hier_consistently():
    """End to end: a big allreduce on a wide tree dispatches hier-mcast
    on every rank, and the result is right."""
    def main(env):
        env.comm.use_collectives(allreduce="auto")
        out = yield from env.comm.allreduce(
            np.ones(12_500, dtype=np.float64), SUM)
        ok = bool(np.all(out == env.size))
        return ok, env.comm.impl_log[-1]

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO)
    oks = {ok for ok, _ in result.returns}
    impls = {impl for _, impl in result.returns}
    assert oks == {True}
    assert len(impls) == 1   # everyone resolved identically
    (op, name), = impls
    costs = modeled_frame_costs("allreduce", 100_000, 8, AUTO, TREE_2x4)
    assert op == "allreduce" and costs[name] == min(costs.values())


def test_auto_withholds_hier_reduce_for_non_commutative_interleaved():
    """A non-commutative reduce over interleaved segments may not pick
    hier-mcast (which would fall back internally and break the model):
    the policy withholds the candidate."""
    concat = Op("CONCAT", lambda a, b: a + b, commutative=False)

    def main(env):
        key = (env.rank % 4) * 2 + env.rank // 4
        sub = yield from env.comm.split(0, key=key)
        sub.use_collectives(reduce="auto")
        out = yield from sub.reduce("r" + str(sub.rank), concat, 0)
        picked = sub.impl_log[-1][1]
        return out, picked, comm_topology(sub).contiguous

    result = run_spmd(8, main, topology="tree:2x4", params=AUTO)
    for out, picked, contiguous in result.returns:
        assert not contiguous
        assert picked != "hier-mcast"
        if out is not None:
            assert out == "".join(f"r{i}" for i in range(8))


def test_hier_candidate_withheld_beyond_max_segments():
    """A fabric wider than hier-mcast supports must not be offered the
    hier candidate (which would raise at dispatch)."""
    huge = topo_digest(tuple(range(65)) * 2)
    costs = modeled_frame_costs("bcast", 100_000, 130, AUTO, huge)
    assert "hier-mcast" not in costs
    assert auto_impl("bcast", 100_000, 130, AUTO, topo=huge) != "hier-mcast"
