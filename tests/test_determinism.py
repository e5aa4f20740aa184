"""Bit-for-bit determinism of seeded lossy runs, independence from the
kernel's tie order, and the ``REPRO_SANITIZE`` leak checks that keep
them trustworthy.

The DET01 lint rule bans the nondeterminism *sources* (wall clocks,
unseeded RNGs, set-order iteration); these tests pin down the observable
contract: an identically-seeded run over a lossy multi-tier fabric —
drops, NACKs, repair rounds and all — reproduces the exact same network
statistics and finishing time, and no collective's result or frame mix
depends on the order in which records due at one instant dispatch."""

import heapq
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.mpi.collective.registry import REGISTRY
from repro.mpi.ops import SUM
from repro.runtime.program import run_spmd
from repro.runtime.sanitize import (LeakError, check_quiesced,
                                    drain_pending, full_teardown)
from repro.simnet import topology
from repro.simnet.calibration import (FAST_ETHERNET_HUB,
                                      FAST_ETHERNET_SWITCH, quiet)
from repro.simnet.kernel import Simulator

QUIET = quiet(FAST_ETHERNET_SWITCH)


def test_seeded_lossy_fabric_run_is_reproducible():
    def run():
        def main(env):
            env.comm.use_collectives(allreduce="mcast-seg-nack",
                                     bcast="mcast-seg-nack")
            payload = bytes([env.rank % 251]) * 24_000
            out = yield from env.comm.allreduce(len(payload), SUM)
            data = yield from env.comm.bcast(
                payload if env.rank == 0 else None, 0)
            return (out, len(data))

        return run_spmd(8, main, topology="tree:2x2x2",
                        params=replace(QUIET, loss=0.05), seed=1234)

    r1, r2 = run(), run()
    assert r1.returns == r2.returns == [(8 * 24_000, 24_000)] * 8
    # loss really happened (repairs exercised), yet both runs agree on
    # every counter and on the clock
    assert r1.stats["drops_lossy"] > 0
    assert r1.stats == r2.stats
    assert r1.sim_time_us == r2.sim_time_us


# ------------------------------------------------- tie-order independence
class _TieShuffledSimulator(Simulator):
    """The kernel with its one tie rule inverted: records due at the same
    instant dispatch in a seeded random order instead of insertion order
    (a random draw ranks ahead of the insertion counter in the heap key).
    Every other ordering — by due time — is untouched."""

    def __init__(self, seed: int):
        super().__init__()
        self._tie_rng = random.Random(seed)

    def schedule_call(self, delay, fn, *args):
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, due, fn, *args):
        if due < self.now:
            raise ValueError(f"cannot schedule into the past (due={due})")
        self._seq += 1
        heapq.heappush(self._heap, (due, (self._tie_rng.random(), self._seq),
                                    fn, args))

    # every fan-out copy a tie-shuffled record of its own
    schedule_fanout = schedule_at


TIE_OPS = ("bcast", "barrier", "reduce", "allreduce", "gather", "scatter",
           "allgather")
TIE_CASES = [(op, impl) for op in TIE_OPS for impl in sorted(REGISTRY[op])]
TIE_LAYOUTS = (("switch", 3), ("switch", 4), ("hub", 3), ("hub", 4),
               ("tree:2x2", 4))
TIE_SIZES = (100, 5_000)
TIE_SEEDS = (1, 2, 3, 4)


def _tie_program(op, size):
    """Two calls of ``op``; every rank returns the result bytes of both.
    Each rank contributes distinct bytes, so a misrouted share shows."""
    def call(comm):
        n, rank = comm.size, comm.rank
        mine = bytes([rank + 1]) * max(1, size // n)
        if op == "bcast":
            return (yield from comm.bcast(
                bytes(i % 251 for i in range(size)) if rank == 0 else None,
                0))
        if op == "barrier":
            yield from comm.barrier()
            return b""
        if op in ("reduce", "allreduce"):
            arr = np.arange(max(1, size // 8), dtype=np.int64) * (rank + 1)
            out = yield from (comm.reduce(arr, SUM, 0) if op == "reduce"
                              else comm.allreduce(arr, SUM))
            return b"" if out is None else out.tobytes()
        if op == "scatter":
            return (yield from comm.scatter(
                [bytes([r + 1]) * max(1, size // n) for r in range(n)]
                if rank == 0 else None, 0))
        if op == "gather":
            out = yield from comm.gather(mine, 0)
            return b"" if out is None else b"".join(out)
        return b"".join((yield from comm.allgather(mine)))

    def main(env):
        first = yield from call(env.comm)
        second = yield from call(env.comm)
        return first, second

    return main


@pytest.mark.parametrize("op,impl", TIE_CASES)
def test_results_and_frame_mix_do_not_depend_on_tie_order(op, impl,
                                                          monkeypatch):
    """The kernel's contract is "dispatch == stable sort by due time",
    and nothing may lean on the stable part.  Under
    ``quiet(...)`` timing — where exact ties are common — every
    registered impl of the seven collectives returns the same bytes and
    puts the same frames (by kind) on the wire when equal-due records
    dispatch in a shuffled order; clocks may differ."""
    def run(topo, n, size):
        params = quiet(FAST_ETHERNET_HUB if topo == "hub"
                       else FAST_ETHERNET_SWITCH)
        r = run_spmd(n, _tie_program(op, size), topology=topo,
                     params=params, seed=7, collectives={op: impl})
        return r.returns, r.stats["frames_by_kind"]

    for topo, n in TIE_LAYOUTS:
        for size in TIE_SIZES:
            with monkeypatch.context() as m:
                m.setattr(topology, "Simulator", Simulator)
                want_bytes, want_frames = run(topo, n, size)
            for seed in TIE_SEEDS:
                with monkeypatch.context() as m:
                    m.setattr(topology, "Simulator",
                              lambda seed=seed: _TieShuffledSimulator(seed))
                    got_bytes, got_frames = run(topo, n, size)
                where = f"{topo} n={n} {size} B, shuffle seed {seed}"
                assert got_bytes == want_bytes, where
                assert got_frames == want_frames, where


# --------------------------------------------------- sanitizer itself
def test_check_quiesced_flags_leaked_posted_recv():
    from repro.runtime.sanitize import sanitize_enabled

    def main(env):
        if env.rank == 0:
            sock = env.host.socket(23456, posted_only=True)
            sock.post_ring(1, bool)  # repro-lint: skip=LEAK01 -- the leak is this test's point
        yield from env.comm.barrier()

    if sanitize_enabled():
        # armed runs fail inside run_spmd itself — the real gate
        with pytest.raises(LeakError, match="posted receive"):
            run_spmd(2, main, params=QUIET)
        return
    result = run_spmd(2, main, params=QUIET)
    drain_pending()                # this run never reaches a teardown
    with pytest.raises(LeakError, match="posted receive"):
        check_quiesced(result.cluster)


def test_check_quiesced_flags_a_ring_left_open():
    """A descriptor ring counts as posted receives until it is closed."""
    from repro.runtime.sanitize import sanitize_enabled

    def main(env):
        if env.rank == 0:
            sock = env.host.socket(23457, posted_only=True)
            sock.post_ring(3, lambda dgram: False)  # repro-lint: skip=LEAK01 -- the leak is this test's point
        yield from env.comm.barrier()

    match = "socket :23457 quiesced with 3 posted"
    if sanitize_enabled():
        with pytest.raises(LeakError, match=match):
            run_spmd(2, main, params=QUIET)
        return
    result = run_spmd(2, main, params=QUIET)
    drain_pending()                # this run never reaches a teardown
    with pytest.raises(LeakError, match=match):
        check_quiesced(result.cluster)


def test_full_teardown_leaves_nothing_and_flags_stragglers():
    def main(env):
        data = yield from env.comm.bcast(
            "x" if env.rank == 0 else None, 0)
        return data

    result = run_spmd(4, main, topology="tree:2x2", params=QUIET,
                      collectives={"bcast": "hier-mcast"})
    drain_pending()
    check_quiesced(result.cluster)             # phase 1 passes
    full_teardown(result.cluster, result.world)
    host = result.cluster.hosts[0]
    assert host.ipstack._sockets == {}
    assert host.ipstack._memberships == {}
    assert host.nic._mcast_refs == {}
    # a socket opened *after* teardown is a straggler the checker sees
    from repro.simnet.frame import mcast_mac
    straggler = host.socket(34567)
    straggler.join(mcast_mac(900))
    with pytest.raises(LeakError, match="sockets still bound"):
        full_teardown(result.cluster, result.world)
    straggler.close()
