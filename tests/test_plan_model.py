"""Every plan against the simulator: the segmented collectives — the
flat one-group plan and ``hier-mcast``'s hierarchy — priced by the plan
fold (:func:`repro.analysis.framecount.model_flat_frames` /
:func:`~repro.analysis.framecount.model_hier_frames`) must equal the
per-call ``frames_sent`` *and* ``frames_trunk`` deltas (two calls minus
one, isolating the one-time channel setup), with no retransmission — on
both sides of the batching crossover, where the two closed forms the
fold replaced each got one regime wrong."""

import random
from dataclasses import replace

import pytest

from repro import run_spmd
from repro.analysis.framecount import model_flat_frames, model_hier_frames
from repro.bench.harness import op_body
from repro.mpi.collective.policy import AUTO_CHOICES
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
    root and size: the fold is the simulator.  Sizes come from three
    bands — anywhere up to 47 kB; 8,761-8,836 B, where a batched
    datagram's short tail rides its fragments' header slack; and
    16.4-30 kB, where a hierarchy's p2p forward takes the rendezvous
    RTS / CTS path."""
    topology, seg_of, paths = _placement(fabric)
    n = len(seg_of)
    rng = random.Random(fabric)
    for op, (_p2p, flat) in AUTO_CHOICES.items():
        for impl, fold in ((flat, model_flat_frames),
                           ("hier-mcast", model_hier_frames)):
            root = 0 if op in ("allreduce", "allgather") else \
                rng.randrange(n)
            size = rng.choice((rng.randint(1, 47_000),
                               rng.randint(8_761, 8_836),
                               rng.randint(16_400, 30_000)))
            share, vector = size // n, 8 * max(1, size // 8)
            nbytes = {"reduce": vector, "allreduce": vector,
                      "scatter": share * n, "gather": share,
                      "allgather": share}.get(op, size)
            assert fold(op, seg_of, root, nbytes, AUTO, paths) == \
                _per_call(topology, n, op, impl,
                          op_body(op, size, root)), (op, impl, root, size)


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
