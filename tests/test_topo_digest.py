"""The topology digest and the shared decision memo, pinned to the
rank-pair reference (``tests/_reference_models.py``): every public
trunk/hier model and ``modeled_frame_costs`` must agree with it in
value *and* int/float type (``BENCH_*.json`` is canonical JSON), the
memo must not change an answer, the model must actually be off the
per-call hot path — counted, not timed — and the digest is the one
topology answer a live communicator's policy and hierarchy read."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _reference_models as ref
from repro import run_spmd
from repro.analysis import framecount
from repro.core.segment import plan_transport
from repro.mpi.collective import policy
from repro.mpi.collective.hier import (build_hier_tree, canonical_order,
                                       hier_state)
from repro.mpi.collective.policy import (auto_capable, auto_impl,
                                         candidates, comm_topology,
                                         modeled_frame_costs)
from repro.mpi.collective.registry import PART_OPS, REGISTRY
from repro.mpi.ops import SUM
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH
from repro.simnet.fabric import parse_topology

AUTO = replace(quiet(FAST_ETHERNET_SWITCH), segment_bytes="auto")
LOSSES = (0.0, 0.02)
SIZES = (0, 512, 24_000, 1 << 20)
HIER_OPS = ("bcast", "reduce", "allreduce", "scatter", "gather",
            "allgather")
#: every op "auto" resolves
AUTO_OPS = sorted(filter(auto_capable, REGISTRY))
#: op -> its flat segmented candidate, for the ops that have one
FLAT = {op: name for op in AUTO_OPS
        for name, model in candidates(op).items() if model == "flat"}


def _fabric(spec: str):
    """(seg_of_rank, paths) of ``run_spmd``'s natural placement."""
    fab = parse_topology(spec)
    seg_of = tuple(s for s, n in enumerate(fab.leaf_sizes)
                   for _ in range(n))
    return seg_of, tuple(fab.leaf_paths())


TWO_TIER = ((0, 0, 0, 1, 1, 1, 1, 2), None)      # paths=None geometry
FABRICS = {"two-tier": TWO_TIER,
           "tree:2x2x2": _fabric("tree:2x2x2"),
           "tree:2x4x4": _fabric("tree:2x4x4"),
           "tree:[4,8,2]": _fabric("tree:[4,8,2]")}


def same(got, want):
    """Equal in value and in type, element-wise for tuples/dicts."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        got, want = tuple(got.values()), tuple(want.values())
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)
    else:
        assert got == want


def flat_trunk_reference(op, seg_of, root, size, paths):
    """Trunk serializations of the flat segmented ``op`` from the four
    frozen rank-pair trunk models, at the ladder's data frames."""
    n = len(seg_of)
    nframes = ref._data_frames(AUTO, plan_transport(size, AUTO).nsegs, size)
    part = -(-size // n)
    dealt = ref._data_frames(
        AUTO, (n - 1) * plan_transport(part, AUTO).nsegs, (n - 1) * part)
    if op == "bcast":
        return ref.model_seg_bcast_trunk_frames(seg_of, root, nframes,
                                                paths)
    if op in ("reduce", "gather"):
        return ref.model_seg_reduce_trunk_frames(seg_of, root, nframes,
                                                 paths)
    if op == "scatter":
        return ref.model_seg_scatter_trunk_frames(seg_of, root, dealt,
                                                  paths)
    return ref.model_seg_allgather_trunk_frames(seg_of, nframes, paths)


def check_models(seg_of, paths):
    """Every public trunk/hier model against the reference, every
    root, every size, both loss rates."""
    n = len(seg_of)
    rpaths = ref._seg_paths(seg_of, paths)
    for seg in sorted(set(seg_of)):
        same(framecount.multicast_trunk_edges(seg, seg_of, rpaths),
             ref.multicast_trunk_edges(seg, seg_of, rpaths))
    for root in range(n):
        if paths is None:       # two-tier: 2 hops per cross edge
            assert framecount.model_p2p_frames(
                "bcast", seg_of, root, 0, AUTO)[1] == \
                2 * ref.binomial_cross_edges(seg_of, root)
        for size in SIZES:
            if size <= ref.EAGER_LIMIT:     # the p2p fold's tree term
                for op in ("bcast", "reduce"):
                    same(framecount.model_p2p_frames(
                        op, seg_of, root, size, AUTO, paths)[1],
                        ref.model_p2p_tree_trunk_frames(
                            AUTO, seg_of, root, size, paths))
            for op in ("bcast", "reduce", "scatter", "gather",
                       "allgather"):
                trunk = framecount.model_flat_frames(
                    op, seg_of, root, size, AUTO, paths)[1]
                assert trunk == flat_trunk_reference(op, seg_of, root,
                                                     size, paths)
            for op in HIER_OPS:
                for loss in LOSSES:
                    # the allreduce's row is its parts: hier reduce,
                    # then hier bcast, summed
                    got = (framecount.model_parts_frames(
                        op, "hier-mcast", seg_of, root, size, AUTO, paths,
                        loss) if op == "allreduce" else
                        framecount.model_hier_frames(
                            op, seg_of, root, size, AUTO, paths, loss))
                    same(got, ref.model_hier_frames(
                        op, seg_of, root, size, AUTO, paths, loss))


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_models_match_rank_pair_reference(fabric):
    check_models(*FABRICS[fabric])


@st.composite
def placements(draw):
    """A non-contiguous rank→segment map onto a drawn switch tree
    (dense segment ids, every listed segment occupied)."""
    spec = draw(st.sampled_from(("tree:3x1", "tree:2x2x1", "tree:2x3x1",
                                 "tree:2x2x2x1")))
    paths = tuple(parse_topology(spec).leaf_paths())
    used = draw(st.integers(2, len(paths)))
    picked = sorted(draw(st.permutations(range(len(paths))))[:used])
    n = draw(st.integers(used, 12))
    body = draw(st.lists(st.integers(0, used - 1), min_size=n - used,
                         max_size=n - used))
    seg_of = tuple(draw(st.permutations(list(range(used)) + body)))
    return seg_of, tuple(paths[i] for i in picked)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(placements(), st.booleans())
def test_models_match_reference_on_drawn_placements(placement, two_tier):
    seg_of, paths = placement
    check_models(seg_of, None if two_tier else paths)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(placements(), st.booleans(), st.booleans())
def test_digest_contiguous_is_the_canonical_order_test(placement, two_tier,
                                                       block):
    """``TopoDigest.contiguous`` is the reduction-order test the
    hierarchy layout used to run on its own tree — on drawn
    interleaved placements and on their block (sorted) versions, which
    a deep tree can still reorder."""
    seg_of, paths = placement
    if block:
        seg_of = tuple(sorted(seg_of))
    if two_tier:
        paths = None
    canonical = canonical_order(build_hier_tree(seg_of, paths))
    assert framecount.topo_digest(seg_of, paths).contiguous == (
        canonical == list(range(len(seg_of))))


def test_one_digest_per_communicator():
    """On a live ``tree:2x2x2`` run the hierarchy ``hier-mcast``
    executes and the topology the policy prices are one object on every
    rank; ``policy.clear_caches()`` hands the communicator a fresh,
    equal digest."""
    def main(env):
        env.comm.use_collectives(bcast="hier-mcast")
        yield from env.comm.bcast(b"w" if env.rank == 0 else None, 0)
        return env.comm, hier_state(env.comm).digest, comm_topology(
            env.comm)

    result = run_spmd(8, main, topology="tree:2x2x2", params=AUTO, seed=1)
    comm, held, _read = result.returns[0]
    assert all(h is held and r is held for _c, h, r in result.returns)
    assert (held.seg_of_rank, held.paths) == FABRICS["tree:2x2x2"]
    assert held.contiguous and held.nsegments == 4
    policy.clear_caches()
    fresh = comm_topology(comm)
    assert fresh is not held and comm_topology(comm) is fresh
    assert (fresh.seg_of_rank, fresh.paths) == (held.seg_of_rank,
                                                held.paths)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(placements(), st.integers(2, 40)), st.booleans(),
       st.sampled_from(AUTO_OPS),
       st.one_of(st.sampled_from(SIZES), st.integers(0, 60_000)),
       st.sampled_from((0.0, 0.02, 0.2)), st.data())
def test_fold_on_the_one_group_plan_equals_the_frozen_ladder(
        placement, two_tier, op, nbytes, loss, data):
    """The policy's flat segmented cost — the plan fold over the one-leaf
    tree — is the per-op ladder it replaced (frozen in
    ``_reference_models``, trunk references included), on drawn
    placements and on flat clusters:
    equal in value and type loss-free, to ``rel=1e-12`` under loss
    (turn-order sums against the ladder's products).  The allreduce's
    ``mcast-seg-nack`` row is its parts' folds summed, at root 0."""
    topo = None
    seg_of, paths = None, None
    if isinstance(placement, int):
        n = placement
    else:
        seg_of, paths = placement
        n = len(seg_of)
        paths = None if two_tier else paths
        topo = framecount.topo_digest(seg_of, paths)
    root = 0 if op == "allreduce" else data.draw(st.integers(0, n - 1))
    params = replace(AUTO, loss=loss)
    if op == "allreduce":
        got = sum(framecount.model_parts_frames(
            op, "mcast-seg-nack", seg_of or (0,) * n, root, nbytes,
            params, paths, loss))
    else:
        got = modeled_frame_costs(op, nbytes, n, params, topo, root,
                                  hier_ok=False)[FLAT[op]]
    want = ref.seg_frame_estimate(op, nbytes, n, params, topo, root)
    if loss:
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    else:
        same(got, want)


def _reference_costs(monkeypatch, *key):
    """``modeled_frame_costs`` evaluated, unmemoised, with the plan fold
    and the multicast trunk edges swapped for their references (the
    policy resolves them from the module at call time; the p2p fold's
    tree term is held to the reference by :func:`check_models`).  A
    composite prices its parts through the memo, so the memo is emptied
    on the way in and out: neither side reads the other's parts."""
    with monkeypatch.context() as patch:
        for name in ref.PUBLIC:
            patch.setattr(framecount, name, getattr(ref, name))
        policy._decide.cache_clear()
        try:
            return policy._decide.__wrapped__(*key)
        finally:
            policy._decide.cache_clear()


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_modeled_costs_and_picks_match_reference(fabric, monkeypatch):
    """The policy's table over the reference loops and the frozen
    ladder == over the digest and the fold == through the memo (first
    call and repeated call): equal in value and type loss-free, the
    flat segmented entry (the allreduce's parts' sum) to ``rel=1e-12``
    under loss (the fold sums its streams in turn order, the ladder
    multiplied)."""
    seg_of, paths = FABRICS[fabric]
    n = len(seg_of)
    topo = framecount.topo_digest(seg_of, paths)
    for loss in LOSSES:
        params = replace(AUTO, loss=loss)
        for op in AUTO_OPS:
            # allreduce has one candidate: its parts' picks, summed
            seg_name = FLAT.get(op)
            # every root (a stride of 3 still lands in all eight
            # segments of tree:2x4x4, on leaders and non-leaders;
            # check_models above walks every root of every model)
            roots = range(0, n, 3 if n > 16 else 1) if op in (
                "bcast", "reduce", "scatter", "gather") else (0,)
            for size in SIZES:
                for root in roots:
                    # hier_ok == _hier_competes on these fabrics
                    for hier_ok in (True, False) if root == 0 else (True,):
                        key = (op, size, n, params, topo, root, hier_ok)
                        want, pick = _reference_costs(monkeypatch, *key)
                        got, got_pick = policy._decide.__wrapped__(*key)
                        for _ in range(2):      # the memo changes nothing
                            same(modeled_frame_costs(*key), got)
                            assert auto_impl(*key) == got_pick
                        if loss and seg_name is None:
                            assert got == pytest.approx(want, rel=1e-12,
                                                        abs=0)
                        else:
                            if loss:
                                assert got.pop(seg_name) == pytest.approx(
                                    want.pop(seg_name), rel=1e-12, abs=0)
                            same(got, want)
                        assert got_pick == pick


def test_memo_hands_out_copies():
    seg_of, paths = FABRICS["tree:2x2x2"]
    topo = framecount.topo_digest(seg_of, paths)
    first = modeled_frame_costs("bcast", 24_000, 8, AUTO, topo)
    first["p2p-binomial"] = -1
    assert modeled_frame_costs("bcast", 24_000, 8, AUTO, topo)[
        "p2p-binomial"] > 0


# ---------------------------------------------------------------------
# the model is off the per-call hot path: counts, not wall time
# ---------------------------------------------------------------------
def _mixed_auto_cycle(cycles: int):
    """benchmarks/perf's ``hier-auto`` program: seven collectives x two
    sizes, every auto-capable op on ``"auto"``, barrier pinned."""
    def main(env):
        comm, n = env.comm, env.comm.size
        comm.use_collectives(barrier="hier-mcast",
                             **dict.fromkeys(AUTO_OPS, "auto"))
        for _ in range(cycles):
            for size in (512, 24_000):
                block = bytes([env.rank + 1]) * max(1, size // n)
                vec = np.full(size // 8, float(env.rank + 1))
                yield from comm.bcast(
                    bytes(size) if env.rank == 0 else None, 0)
                yield from comm.allreduce(vec, SUM)
                yield from comm.reduce(vec, SUM, 0)
                yield from comm.gather(block, 0)
                yield from comm.scatter(
                    [block] * n if env.rank == 0 else None, 0)
                yield from comm.allgather(block)
                yield from comm.barrier()
        return list(comm.impl_log)
    return main


def test_model_evaluations_equal_distinct_call_signatures(monkeypatch):
    """32 ranks x 3 cycles of the mixed cycle: the models run once per
    distinct call signature, every other resolution is a hit, and the
    picks are those of a run with no memo at all.

    Six auto ops x two sizes, plus the bcast of the allgather's
    gathered *bundle* (640 B / 24,128 B), which only the allgather's
    pricing of its parts asks for: 14 signatures.  A composite's parts
    are looked up as it is evaluated, never dispatched — one resolution
    per call.
    """
    run = dict(topology="tree:2x4x4", params=AUTO, seed=1)
    logs = run_spmd(32, _mixed_auto_cycle(3), **run).returns
    info = policy.cache_info()
    assert all(log == logs[0] for log in logs)
    assert len(logs[0]) == 3 * 14           # one entry per call

    asked, parts = [], []
    evaluate = policy._decide.__wrapped__
    depth = 0

    def unmemoised(*key):
        nonlocal depth
        (parts if depth else asked).append(key)
        depth += 1
        try:
            return evaluate(*key)
        finally:
            depth -= 1

    # one cycle with no memo at all: the same picks, cycle for cycle
    policy.clear_caches()
    monkeypatch.setattr(policy, "_decide", unmemoised)
    one_cycle = run_spmd(32, _mixed_auto_cycle(1), **run).returns[0]
    assert logs[0] == one_cycle * 3
    signatures = set(asked) | set(parts)
    assert len(set(asked)) == 2 * len(AUTO_OPS)
    assert len(signatures) == 2 * len(AUTO_OPS) + 2
    assert info.evaluations == info.size == len(signatures)
    # every call is one lookup; a composite's one evaluation adds a
    # lookup per part
    assert info.evaluations + info.hits == 3 * len(asked) + sum(
        len(PART_OPS[key[0]]) for key in set(asked) if key[0] in PART_OPS)


def _count_calls(fn) -> int:
    """Python + C calls made under ``fn`` (what cProfile counts)."""
    calls = 0

    def tick(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(tick)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_cold_evaluation_at_1024_ranks_is_bounded():
    """One cold allreduce evaluation on ``tree:32x32`` was ~7.5 million
    calls over the rank-pair loops; the digest — and the plan fold
    pricing a uniform turn loop once, not turn by turn — must keep
    every auto op's under 200,000 (deterministic, so an exact gate)
    and a repeat is free."""
    seg_of, paths = _fabric("tree:32x32")
    topo = framecount.topo_digest(seg_of, paths)
    for op in AUTO_OPS:
        policy.clear_caches()

        def evaluate():
            return modeled_frame_costs(op, 24_000, 1024, AUTO, topo)

        cold = _count_calls(evaluate)
        assert cold <= 200_000, (op, cold)
        assert _count_calls(evaluate) < 50
    # the allreduce is its parts: the reduce's pick and the bcast's,
    # priced as their sum
    parts = [modeled_frame_costs(op, 24_000, 1024, AUTO, topo)
             for op in ("reduce", "bcast")]
    assert modeled_frame_costs("allreduce", 24_000, 1024, AUTO, topo) == {
        "+".join(min(costs, key=costs.get) for costs in parts):
            sum(min(costs.values()) for costs in parts)}
