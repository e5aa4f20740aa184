"""The payload-, topology- and loss-aware "auto" selection layer:
closed-form choices, the per-call resolution protocol (local vs
scout-tree announcement), the policy hook, and inheritance across
dup/split."""

from dataclasses import replace

import numpy as np
import pytest

from repro import run_spmd
from repro.analysis.framecount import model_coverage, topo_digest
from repro.mpi.collective import policy
from repro.mpi.collective.policy import (auto_capable, auto_impl,
                                         candidates, comm_topology,
                                         modeled_frame_costs)
from repro.mpi.collective.registry import DEFAULTS, REGISTRY, register
from repro.mpi.ops import SUM, Op
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)
AUTO = replace(QUIET, segment_bytes="auto")
#: every op "auto" resolves
AUTO_OPS = sorted(filter(auto_capable, REGISTRY))
#: op -> its flat segmented candidate, for the ops that have one
FLAT = {op: name for op in AUTO_OPS
        for name, model in candidates(op).items() if model == "flat"}


def seg_cost(op, nbytes, size, params):
    """The policy's modeled cost of the op's flat segmented candidate."""
    return modeled_frame_costs(op, nbytes, size, params)[FLAT[op]]


def baseline(op, nbytes, size, params):
    """(name, modeled cost) of the op's p2p baseline candidate — a
    composite's is its parts' own picks."""
    costs = modeled_frame_costs(op, nbytes, size, params)
    (name,) = set(costs) - {FLAT[op], "hier-mcast"}
    return name, costs[name]


def p2p_cost(op, nbytes, size, params):
    """The policy's modeled cost of the op's p2p baseline."""
    return baseline(op, nbytes, size, params)[1]


# ------------------------------------------------------------ unit layer
@pytest.mark.parametrize("op", AUTO_OPS)
def test_auto_picks_p2p_for_tiny_payloads(op):
    p2p_name = DEFAULTS[op]
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
    # allreduce is its parts: the reduce keeps the tree on a flat
    # cluster, the broadcast half streams
    want = ("p2p-binomial+mcast-seg-nack" if op == "allreduce"
            else FLAT[op])
    assert auto_impl(op, nbytes, size, AUTO) == want


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
    for op in sorted(FLAT):
        assert (p2p_cost(op, 100_000, 4, AUTO)
                > p2p_cost(op, 100, 4, AUTO))
        assert (seg_cost(op, 100_000, 4, AUTO)
                > seg_cost(op, 100, 4, AUTO))
    with pytest.raises(KeyError, match="auto-capable"):
        auto_impl("barrier", 0, 4, AUTO)
    with pytest.raises(KeyError, match="auto-capable"):
        modeled_frame_costs("barrier", 0, 4, AUTO)


def test_a_registered_flat_model_is_priced_and_picked(monkeypatch):
    """``"auto"`` reads its candidates off the registry: a toy bcast
    registered with model ``"flat"`` in place of ``mcast-seg-nack`` is
    priced by the flat fold and picked for a big payload — no table of
    the policy names it — and deleting its one row entry leaves no
    model of it behind."""
    flat = seg_cost("bcast", 48_000, 4, AUTO)
    with monkeypatch.context() as patch:
        patch.delitem(REGISTRY["bcast"], "mcast-seg-nack")
        register("bcast", "toy-flat", "flat")(lambda comm, obj, root=0: obj)
        policy.clear_caches()
        costs = modeled_frame_costs("bcast", 48_000, 4, AUTO)
        assert costs["toy-flat"] == flat and "mcast-seg-nack" not in costs
        assert auto_impl("bcast", 48_000, 4, AUTO) == "toy-flat"
        del REGISTRY["bcast"]["toy-flat"]
    policy.clear_caches()
    assert ("bcast", "toy-flat") not in model_coverage()
    assert "toy-flat" not in candidates("bcast")
    assert auto_impl("bcast", 48_000, 4, AUTO) == "mcast-seg-nack"


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
    """No announcement: the allreduce resolves its parts locally, once
    — its reduce and bcast are called, not dispatched, so the log holds
    one entry per call."""
    def main(env):
        env.comm.use_collectives(reduce="auto", allreduce="auto",
                                 bcast="auto")
        small = yield from env.comm.reduce(
            np.ones(8, dtype=np.float64), SUM, 0)
        big = yield from env.comm.allreduce(
            np.ones(6000, dtype=np.float64), SUM)
        ok = bool(np.all(big == env.size))
        ok = ok and (env.rank != 0 or bool(np.all(small == env.size)))
        return ok, list(env.comm.impl_log)

    result = run_spmd(4, main, params=AUTO)
    for ok, log in result.returns:
        assert ok
        assert log == [("reduce", "p2p-binomial"),
                       ("allreduce", "p2p-binomial+mcast-seg-nack")]
    assert "scout-dec" not in result.stats["frames_by_kind"]


def test_a_composite_pick_name_is_not_selectable():
    """``"+"``-joined parts name an ``"auto"`` pick; they are not a
    registered implementation a communicator can select."""
    from repro.mpi.collective.registry import get_impl

    mixed = "p2p-binomial+mcast-seg-nack"
    with pytest.raises(KeyError, match="no implementation"):
        get_impl("allreduce", mixed)

    def main(env):
        with pytest.raises(KeyError, match="no implementation"):
            env.comm.use_collectives(allreduce=mixed)
        return True
        yield   # pragma: no cover - make this a generator

    assert run_spmd(2, main, params=AUTO).returns == [True, True]


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
    for op in sorted(FLAT):
        for nbytes in (64, 1460, 12_000, 48_000):
            seg = seg_cost(op, nbytes, 4, AUTO)
            p2p_name, p2p = baseline(op, nbytes, 4, AUTO)
            expect = FLAT[op] if seg <= p2p else p2p_name
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
        modeled_frame_costs("barrier", 1000, 8, AUTO, TREE_2x4)


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
    """End to end: a big allreduce on a wide tree dispatches its parts'
    own picks on every rank — each part's modeled minimum among its
    p2p, flat and hierarchical candidates, priced as their sum — and
    the result is right."""
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
    parts = [modeled_frame_costs(part, 100_000, 8, AUTO, TREE_2x4)
             for part in ("reduce", "bcast")]
    assert all("hier-mcast" in costs for costs in parts)
    picks = [min(costs, key=costs.get) for costs in parts]
    assert (op, name) == ("allreduce", "+".join(picks))
    assert modeled_frame_costs("allreduce", 100_000, 8, AUTO, TREE_2x4) \
        == {name: sum(min(costs.values()) for costs in parts)}


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


# ------------------------------------------- a composite resolves once
def _all_auto_run(call):
    """32 ranks on ``tree:2x4x4``, every auto-capable op on ``"auto"``,
    running ``call`` (or nothing): (rank 0's impl log, every log
    length, stats)."""
    def main(env):
        env.comm.use_collectives(**dict.fromkeys(AUTO_OPS, "auto"))
        if call is not None:
            yield from call(env.comm)
        return list(env.comm.impl_log)

    result = run_spmd(32, main, topology="tree:2x4x4", params=AUTO, seed=1)
    return (result.returns[0], {len(log) for log in result.returns},
            result.stats)


def _fabric_of(spec):
    """(seg_of_rank, paths) of ``run_spmd``'s placement on ``spec``."""
    from repro.simnet.fabric import parse_topology

    fab = parse_topology(spec)
    return (tuple(s for s, n in enumerate(fab.leaf_sizes)
                  for _ in range(n)), tuple(fab.leaf_paths()))


def test_composite_runs_what_the_policy_priced_and_announces_once():
    """An all-``"auto"`` communicator resolves a composite's parts once,
    as its pick — never again through ``"auto"`` while they run: the
    3,000-element allreduce logs one entry per rank and announces
    nothing, the 24 kB allgather announces once (N-1 ``scout-dec``
    frames), and what each puts on the wire above an empty run — host
    frames plus trunk crossings, less the announcement — is the
    policy's priced cost of its pick."""
    topo = topo_digest(*_fabric_of("tree:2x4x4"))
    _log, _lengths, empty = _all_auto_run(None)
    for call, op, nbytes in (
            (lambda comm: comm.allreduce(np.ones(3000), SUM),
             "allreduce", 24_000),
            (lambda comm: comm.allgather(bytes(750)), "allgather", 750)):
        log, lengths, stats = _all_auto_run(call)
        assert lengths == {1}, (op, log)
        (logged_op, pick), = log
        costs = modeled_frame_costs(op, nbytes, 32, AUTO, topo)
        assert logged_op == op and pick == min(costs, key=costs.get)
        announced = stats["frames_by_kind"].get("scout-dec", 0)
        assert announced == (0 if op == "allreduce" else 31), op
        wire = (stats["frames_sent"] - empty["frames_sent"]
                + stats["frames_trunk"] - empty["frames_trunk"]
                - announced
                - stats["trunk_frames_by_kind"].get("scout-dec", 0))
        assert wire == costs[pick], (op, pick, wire, costs)

