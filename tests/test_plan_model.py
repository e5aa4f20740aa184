"""Every fold against the simulator: the segmented collectives — the
flat one-group plan and ``hier-mcast``'s hierarchy — priced by the plan
fold (:func:`repro.analysis.framecount.model_flat_frames` /
:func:`~repro.analysis.framecount.model_hier_frames`), and the p2p
collectives priced by :func:`~repro.analysis.framecount.
model_p2p_frames`, must equal the per-call ``frames_sent`` *and*
``frames_trunk`` deltas (two calls minus one, isolating the one-time
channel setup), with no retransmission — on both sides of the batching
crossover, where the two closed forms the plan fold replaced each got
one regime wrong, and of the p2p rendezvous threshold."""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro import run_spmd
from repro.analysis.framecount import (FOLDS, model_flat_frames,
                                       model_p2p_frames, model_parts_frames,
                                       topo_digest)
from repro.bench.harness import op_body
from repro.mpi.collective.policy import candidates, modeled_frame_costs
from repro.mpi.collective.registry import DEFAULTS, REGISTRY
from repro.mpi.ops import Op
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH
from repro.simnet.fabric import parse_topology

AUTO = replace(quiet(FAST_ETHERNET_SWITCH), segment_bytes="auto")

#: name -> (run_spmd topology, ranks or None for the fabric's own)
FABRICS = {"switch-4": ("switch", 4), "switch-7": ("switch", 7),
           "tree:2x4": ("tree:2x4", None),
           "tree:2x2x2": ("tree:2x2x2", None),
           "tree:2x4x4": ("tree:2x4x4", None)}


def _placement(fabric):
    """(topology, seg_of_rank, paths) of ``run_spmd``'s placement."""
    topology, n = FABRICS.get(fabric, (fabric, None))
    if n is not None:
        return topology, (0,) * n, None
    fab = parse_topology(topology)
    seg_of = tuple(s for s, k in enumerate(fab.leaf_sizes)
                   for _ in range(k))
    return topology, seg_of, tuple(fab.leaf_paths())


#: op -> (p2p baseline, flat segmented entry): the static default and
#: the flat auto candidate, and the allreduce rows made of the reduce's
#: and the bcast's
CANDIDATES = {**{op: (DEFAULTS[op], name) for op in REGISTRY
                 for name, model in candidates(op).items()
                 if model == "flat"},
              "allreduce": ("p2p-reduce-bcast", "mcast-seg-nack")}


def _model(op, impl, seg_of, root, nbytes, paths):
    """The fold ``(op, impl)`` registers pricing one call of it: a
    composition's parts summed, else its whole-call fold."""
    model = REGISTRY[op][impl].model
    if model == "parts":
        return model_parts_frames(op, impl, seg_of, root, nbytes, AUTO,
                                  paths)
    return FOLDS[model](op, seg_of, root, nbytes, AUTO, paths)


def _per_call(topology, n, op, impl, body):
    """(frames_sent, frames_trunk) one steady-state call adds; a
    loss-free call never retransmits."""
    def stats(calls):
        def main(env):
            for _ in range(calls):
                yield from body(env)

        return run_spmd(n, main, topology=topology, params=AUTO,
                        collectives={op: impl}).stats

    one, two = stats(1), stats(2)
    assert two["retransmissions"] == 0
    return (two["frames_sent"] - one["frames_sent"],
            two["frames_trunk"] - one["frames_trunk"])


@pytest.mark.parametrize("fabric", ["tree:2x4", "tree:2x2x2",
                                    "tree:[4,8,2]", "tree:3x2",
                                    "tree:[3,2,2]"])
def test_every_plan_is_priced_exactly(fabric):
    """Every segmented op, flat and ``hier-mcast``, at a seeded random
    root and size — and the op's p2p baseline at the same root and
    size: the fold is the simulator.  Sizes come from three bands —
    anywhere up to 47 kB; 8,761-8,836 B, where a batched datagram's
    short tail rides its fragments' header slack; and 16.4-30 kB, where
    a hierarchy's p2p forward and the p2p trees' hops take the
    rendezvous RTS / CTS path."""
    topology, seg_of, paths = _placement(fabric)
    n = len(seg_of)
    rng = random.Random(fabric)
    for op in ("bcast", "reduce", "allreduce", "scatter", "gather",
               "allgather"):
        p2p, flat = CANDIDATES[op]
        for impl in (flat, "hier-mcast"):
            root = 0 if op in ("allreduce", "allgather") else \
                rng.randrange(n)
            size = rng.choice((rng.randint(1, 47_000),
                               rng.randint(8_761, 8_836),
                               rng.randint(16_400, 30_000)))
            share, vector = size // n, 8 * max(1, size // 8)
            nbytes = {"reduce": vector, "allreduce": vector,
                      "scatter": share * n, "gather": share,
                      "allgather": share}.get(op, size)
            assert _model(op, impl, seg_of, root, nbytes, paths) == \
                _per_call(topology, n, op, impl,
                          op_body(op, size, root)), (op, impl, root, size)
            assert _model(op, p2p, seg_of, root, nbytes, paths) == \
                _per_call(topology, n, op, p2p,
                          op_body(op, size, root)), (op, p2p, root, size)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_flat_scatter_matches_the_simulator(fabric):
    """Per-rank shares from empty to fourteen frames, first and last
    root: at or under ``seg_auto_crossover`` the plan ships as ONE
    batched datagram whose frames are those of its bytes (4 ranks x
    16 B: 12 frames, where one frame per fragment says 14), above it
    every fragment is a frame of its own."""
    topology, seg_of, paths = _placement(fabric)
    n = len(seg_of)
    for share in (0, 16, 750, 1468, 3000, 20_000):
        for root in (0, n - 1):
            def body(env, share=share, root=root):
                out = yield from env.comm.scatter(
                    [bytes(share)] * n if env.rank == root else None,
                    root)
                assert len(out) == share

            assert model_flat_frames("scatter", seg_of, root, share * n,
                                     AUTO, paths) == _per_call(
                topology, n, "scatter", "mcast-seg-root", body), (
                share, root)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_flat_allgather_matches_the_simulator(fabric):
    """One stream per rank, no ready round — the ledger's
    ``(allgather, mcast-seg-paced)`` entry is exact, not an estimate."""
    topology, seg_of, paths = _placement(fabric)
    n = len(seg_of)
    for share in (0, 16, 3000, 20_000) if n <= 8 else (750, 12_000):
        def body(env, share=share):
            out = yield from env.comm.allgather(bytes(share))
            assert len(out) == n

        assert model_flat_frames("allgather", seg_of, 0, share, AUTO,
                                 paths) == _per_call(
            topology, n, "allgather", "mcast-seg-paced", body), share


#: ``first(a, b) = a``: associative, not commutative, size-preserving
FIRST = Op("FIRST", lambda a, b: a, commutative=False)


@pytest.mark.parametrize("fabric", ["switch-7", "tree:2x4"])
def test_non_commutative_p2p_reduce_adds_its_forward(fabric):
    """A non-commutative p2p reduce at a nonzero root runs the tree at
    rank 0 and forwards the result: the fold prices that hop from the
    operator's flag, and so does the policy's baseline."""
    topology, seg_of, paths = _placement(fabric)
    n = len(seg_of)
    root = n - 2
    for nbytes in (800, 24_000):
        def body(env, nbytes=nbytes):
            out = yield from env.comm.reduce(
                np.full(nbytes // 8, float(env.rank)), FIRST, root)
            if env.rank == root:
                assert np.all(out == 0.0)

        got = model_p2p_frames("reduce", seg_of, root, nbytes, AUTO, paths,
                               commutative=False)
        assert got == _per_call(topology, n, "reduce", "p2p-binomial", body)
        assert got[0] > model_p2p_frames("reduce", seg_of, root, nbytes,
                                         AUTO, paths)[0]
        topo = None if paths is None else topo_digest(seg_of, paths)
        assert modeled_frame_costs("reduce", nbytes, n, AUTO, topo, root,
                                   commutative=False)["p2p-binomial"] == \
            sum(got)
