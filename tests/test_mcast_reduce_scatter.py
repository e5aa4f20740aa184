"""The reduction-side segmented collectives: ``mcast-seg-combine``
(reduce), ``mcast-seg-root`` (scatter) and the composed segmented
allreduce — correctness across roots/ops/payloads, NACK repair under
induced loss, and the closed-form frame counts."""

from dataclasses import replace

import numpy as np
import pytest

from repro import run_spmd
from repro.analysis.framecount import model_flat_frames, model_parts_frames
from repro.core.segment import plan_segments
from repro.mpi.ops import MAX, SUM, Op
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)
AUTO = replace(QUIET, segment_bytes="auto")

#: associative but NOT commutative: list concatenation — detects any
#: fold-order violation immediately
CONCAT = Op("CONCAT", lambda a, b: a + b, commutative=False)


def drop_first_copy_of(indices):
    """Drop the first arrival of datagrams holding the given segment
    indices (per sender and sequence); second copies pass."""
    dropped = set()

    def flt(dgram):
        if dgram.kind != "mcast-seg":
            return None
        root, seq, seg = dgram.payload
        segs = seg if isinstance(seg, tuple) else (seg,)
        for s in segs:
            key = (root, seq, s.index)
            if s.index in indices and key not in dropped:
                dropped.add(key)
                return "drop"
        return None

    return flt


# --------------------------------------------------------------- reduce
@pytest.mark.parametrize("n", [1, 2, 4, 6])
@pytest.mark.parametrize("nbytes", [80, 5000, 20_000])
def test_seg_reduce_correct_lossless(n, nbytes):
    def main(env):
        env.comm.use_collectives(reduce="mcast-seg-combine")
        arr = np.full(nbytes // 8, float(env.rank + 1), dtype=np.float64)
        out = yield from env.comm.reduce(arr, SUM, 0)
        if env.rank != 0:
            return out is None
        return bool(np.all(out == sum(range(1, n + 1))))

    result = run_spmd(n, main, params=QUIET)
    assert result.returns == [True] * n
    assert result.stats["retransmissions"] == 0


def test_seg_reduce_matches_p2p_and_folds_in_rank_order():
    """Non-commutative op: the fold must see operands in rank order,
    exactly like the binomial tree (at root 0, where the p2p tree's
    relative order coincides with absolute rank order)."""
    def main(env):
        env.comm.use_collectives(reduce="p2p-binomial")
        a = yield from env.comm.reduce([env.rank], CONCAT, 0)
        env.comm.use_collectives(reduce="mcast-seg-combine")
        b = yield from env.comm.reduce([env.rank], CONCAT, 0)
        return a == b and (env.rank != 0 or a == [0, 1, 2, 3, 4])

    result = run_spmd(5, main, params=QUIET)
    assert result.returns == [True] * 5


def test_seg_reduce_nonzero_root_keeps_canonical_order():
    """Unlike the p2p tree (which folds in rank order *relative to the
    root*), the turn-based reduce keeps MPI's canonical absolute rank
    order for every root."""
    def main(env):
        env.comm.use_collectives(reduce="mcast-seg-combine")
        out = yield from env.comm.reduce([env.rank], CONCAT, 2)
        return out == [0, 1, 2, 3, 4] if env.rank == 2 else out is None

    result = run_spmd(5, main, params=QUIET)
    assert result.returns == [True] * 5


def test_seg_reduce_nonzero_root_max_op():
    def main(env):
        env.comm.use_collectives(reduce="mcast-seg-combine")
        arr = np.full(600, float(env.rank), dtype=np.float64)
        out = yield from env.comm.reduce(arr, MAX, 3)
        if env.rank != 3:
            return out is None
        return bool(np.all(out == 3.0))

    result = run_spmd(4, main, params=AUTO)
    assert result.returns == [True] * 4


def test_seg_reduce_repairs_loss_at_the_root():
    """The root is the only consumer: its induced losses are repaired
    selectively by each turn's sender."""
    lost = {1, 3}

    def main(env):
        env.comm.use_collectives(reduce="mcast-seg-combine")
        if env.rank == 0:
            env.host.frame_fate = drop_first_copy_of(lost)
        arr = np.full(1000, 1.0, dtype=np.float64)   # 8000 B = 6 segments
        out = yield from env.comm.reduce(arr, SUM, 0)
        return out is None or bool(np.all(out == 3.0))

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == [True] * 3
    # each of the two contributing turns repaired exactly the two lost
    # segments (explicit segment size: no repair re-batching)
    assert result.stats["retransmissions"] == 2 * len(lost)


def test_seg_reduce_loss_at_bystanders_is_free():
    """A bystander posts no descriptors, so multicast loss aimed at it
    costs nothing: no repairs, same frame count as loss-free."""
    def main(env):
        env.comm.use_collectives(reduce="mcast-seg-combine")
        if env.rank == 2:
            env.host.frame_fate = (
                lambda d: "drop" if d.kind == "mcast-seg" else None)
        arr = np.full(1000, 1.0, dtype=np.float64)
        out = yield from env.comm.reduce(arr, SUM, 0)
        return out is None or bool(np.all(out == 3.0))

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == [True] * 3
    assert result.stats["retransmissions"] == 0


def test_seg_reduce_frame_count_formula():
    size, n = 20_000, 4
    nsegs = len(plan_segments(size, QUIET.segment_bytes))

    def main(env):
        env.comm.use_collectives(reduce="mcast-seg-combine")
        arr = np.zeros(size // 8, dtype=np.float64)
        out = yield from env.comm.reduce(arr, SUM, 0)
        return out is None or bool(np.all(out == 0.0))

    result = run_spmd(n, main, params=QUIET)
    assert result.returns == [True] * n
    kinds = result.stats["frames_by_kind"]
    observed = sum(kinds.get(k, 0) for k in
                   ("mcast-seg", "mcast-seg-hdr", "seg-report", "seg-dec",
                    "scout"))
    assert observed == model_flat_frames("reduce", (0,) * n, 0, size,
                                         QUIET)[0]
    assert kinds["mcast-seg"] == (n - 1) * nsegs
    assert kinds["mcast-seg-hdr"] == n - 1


# -------------------------------------------------------------- scatter
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_seg_scatter_correct_lossless(n):
    def main(env):
        env.comm.use_collectives(scatter="mcast-seg-root")
        objs = None
        if env.rank == 0:
            objs = [bytes([r]) * (3000 + r) for r in range(n)]
        out = yield from env.comm.scatter(objs, 0)
        return out == bytes([env.rank]) * (3000 + env.rank)

    result = run_spmd(n, main, params=QUIET)
    assert result.returns == [True] * n


def test_seg_scatter_nonzero_root_and_opaque_elements():
    def main(env):
        env.comm.use_collectives(scatter="mcast-seg-root")
        objs = None
        if env.rank == 2:
            objs = [{"rank": r, "blob": list(range(700))}
                    for r in range(env.size)]
        out = yield from env.comm.scatter(objs, 2)
        return out == {"rank": env.rank, "blob": list(range(700))}

    result = run_spmd(4, main, params=AUTO)
    assert result.returns == [True] * 4


def test_seg_scatter_numpy_rows():
    def main(env):
        env.comm.use_collectives(scatter="mcast-seg-root")
        rows = None
        if env.rank == 0:
            rows = list(np.arange(4 * 500, dtype=np.float64).reshape(4, 500))
        recv = yield from env.comm.scatter(rows, 0)
        return bool(np.all(recv == np.arange(500) + env.rank * 500))

    result = run_spmd(4, main, params=QUIET)
    assert result.returns == [True] * 4


def test_seg_scatter_repairs_only_the_needing_rank():
    """A segment lost at the rank it is addressed to is repaired; the
    same loss at any other rank is ignored (it never needed it)."""
    def main(env):
        env.comm.use_collectives(scatter="mcast-seg-root")
        # global stream: rank1 -> segments 0-2, rank2 -> 3-5 (4000 B
        # each at 1460); rank 2 drops its own first segment (index 3)
        if env.rank == 2:
            env.host.frame_fate = drop_first_copy_of({3})
        objs = None
        if env.rank == 0:
            objs = [bytes([r]) * 4000 for r in range(env.size)]
        out = yield from env.comm.scatter(objs, 0)
        return out == bytes([env.rank]) * 4000

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == [True] * 3
    assert result.stats["retransmissions"] == 1

    # the identical loss at rank 1 (who does not need segment 3) is free
    def main2(env):
        env.comm.use_collectives(scatter="mcast-seg-root")
        if env.rank == 1:
            env.host.frame_fate = drop_first_copy_of({3})
        objs = None
        if env.rank == 0:
            objs = [bytes([r]) * 4000 for r in range(env.size)]
        out = yield from env.comm.scatter(objs, 0)
        return out == bytes([env.rank]) * 4000

    result = run_spmd(3, main2, params=QUIET)
    assert result.returns == [True] * 3
    assert result.stats["retransmissions"] == 0


def test_seg_scatter_frame_count_formula():
    n, per_rank = 4, 8000
    counts = [0] + [len(plan_segments(per_rank, QUIET.segment_bytes))] * 3

    def main(env):
        env.comm.use_collectives(scatter="mcast-seg-root")
        objs = None
        if env.rank == 0:
            objs = [bytes(per_rank) for _ in range(n)]
        out = yield from env.comm.scatter(objs, 0)
        return len(out)

    result = run_spmd(n, main, params=QUIET)
    assert result.returns == [per_rank] * n
    kinds = result.stats["frames_by_kind"]
    observed = sum(kinds.get(k, 0) for k in
                   ("mcast-seg", "mcast-seg-hdr", "seg-report", "seg-dec",
                    "scout"))
    assert observed == model_flat_frames("scatter", (0,) * n, 0,
                                         n * per_rank, QUIET)[0]
    # the root's own element never touched the wire
    assert kinds["mcast-seg"] == sum(counts)


def test_seg_scatter_validates_root_sequence():
    def main(env):
        env.comm.use_collectives(scatter="mcast-seg-root")
        objs = [b"x"] * 2 if env.rank == 0 else None   # wrong length
        out = yield from env.comm.scatter(objs, 0)
        return out

    with pytest.raises(ValueError, match="exactly 3 elements"):
        run_spmd(3, main, params=QUIET, max_sim_us=100_000.0)


@pytest.mark.parametrize("impl", ["mcast-seg-root", "hier-mcast"])
@pytest.mark.parametrize("n", [1, 4])
def test_scatter_root_count_is_checked_before_any_traffic(n, impl):
    """One check, one message, at every size — raised at the root
    before a single frame (``hier-mcast``: before its first-call
    barrier) leaves any host."""
    seen = {}

    def main(env):
        env.comm.use_collectives(scatter=impl)
        stats = env.comm.host.stats
        before = stats.frames_sent
        try:
            yield from env.comm.scatter(
                [b"x"] * (n + 1) if env.rank == 0 else None, 0)
        finally:
            if env.rank == 0:
                seen["sent"] = stats.frames_sent - before

    with pytest.raises(ValueError,
                       match=f"exactly {n} elements, got {n + 1}"):
        run_spmd(n, main, params=QUIET, max_sim_us=100_000.0,
                 topology="switch" if n == 1 else "tree:2x2")
    assert seen["sent"] == 0


# ------------------------------------------------------------ allreduce
@pytest.mark.parametrize("n", [1, 2, 5])
def test_seg_allreduce_correct(n):
    def main(env):
        env.comm.use_collectives(allreduce="mcast-seg-nack")
        arr = np.full(2000, float(env.rank + 1), dtype=np.float64)
        out = yield from env.comm.allreduce(arr, SUM)
        return bool(np.all(out == sum(range(1, n + 1))))

    result = run_spmd(n, main, params=AUTO)
    assert result.returns == [True] * n


def test_seg_allreduce_matches_p2p_and_survives_loss():
    def main(env):
        env.comm.use_collectives(allreduce="p2p-reduce-bcast")
        a = yield from env.comm.allreduce([env.rank], CONCAT)
        env.comm.use_collectives(allreduce="mcast-seg-nack")
        if env.rank == 0:
            # root loses reduce segments; rank 2 loses bcast segments
            env.host.frame_fate = drop_first_copy_of({0})
        b = yield from env.comm.allreduce([env.rank], CONCAT)
        return a == b == [0, 1, 2, 3]

    result = run_spmd(4, main, params=QUIET)
    assert result.returns == [True] * 4
    assert result.stats["retransmissions"] > 0


def test_seg_allreduce_frame_count_formula():
    size, n = 20_000, 4
    nsegs = len(plan_segments(size, QUIET.segment_bytes))

    def main(env):
        env.comm.use_collectives(allreduce="mcast-seg-nack")
        out = yield from env.comm.allreduce(bytes(size), CONCAT)
        return len(out)

    result = run_spmd(n, main, params=QUIET)
    # CONCAT over equal byte strings: result is n*size bytes at every rank
    assert result.returns == [n * size] * n

    def main2(env):
        env.comm.use_collectives(allreduce="mcast-seg-nack")
        arr = np.zeros(size // 8, dtype=np.float64)
        out = yield from env.comm.allreduce(arr, SUM)
        return out is not None

    result = run_spmd(n, main2, params=QUIET)
    assert result.returns == [True] * n
    kinds = result.stats["frames_by_kind"]
    observed = sum(kinds.get(k, 0) for k in
                   ("mcast-seg", "mcast-seg-hdr", "seg-report", "seg-dec",
                    "scout"))
    assert observed == model_parts_frames("allreduce", "mcast-seg-nack",
                                          (0,) * n, 0, size, QUIET)[0]
    assert kinds["mcast-seg"] == n * nsegs


# ----------------------------------------------------------- interleave
def test_reduction_collectives_interleave_on_one_channel():
    """Back-to-back segmented reduce/scatter/allreduce/bcast/barrier on
    the same channel: sequence numbers and round namespaces keep every
    collective's traffic separate, and the schedule stays §4-safe."""
    def main(env):
        comm = env.comm
        comm.use_collectives(reduce="mcast-seg-combine",
                             scatter="mcast-seg-root",
                             allreduce="mcast-seg-nack",
                             bcast="mcast-seg-nack", barrier="mcast")
        got = []
        total = yield from comm.reduce([env.rank], CONCAT, 0)
        got.append(env.rank != 0 or total == [0, 1, 2, 3])
        yield from comm.barrier()
        objs = ([bytes([r]) * 2000 for r in range(4)]
                if env.rank == 0 else None)
        mine = yield from comm.scatter(objs, 0)
        got.append(mine == bytes([env.rank]) * 2000)
        summed = yield from comm.allreduce(
            np.full(500, 1.0, dtype=np.float64), SUM)
        got.append(bool(np.all(summed == 4.0)))
        blob = yield from comm.bcast(
            bytes(10_000) if env.rank == 0 else None, 0)
        got.append(len(blob) == 10_000)
        return all(got)

    result = run_spmd(4, main, params=AUTO)
    assert result.returns == [True] * 4


# ---------------------------------------------------------------- gather
@pytest.mark.parametrize("n", [1, 2, 4, 6])
@pytest.mark.parametrize("root", [0, 1])
def test_seg_gather_correct_lossless(n, root):
    if root >= n:
        pytest.skip("root out of range")

    def main(env):
        env.comm.use_collectives(gather="mcast-seg-root-follow")
        out = yield from env.comm.gather(bytes([env.rank]) * 4000, root)
        if env.rank == root:
            return out == [bytes([r]) * 4000 for r in range(env.size)]
        return out is None

    result = run_spmd(n, main, params=AUTO)
    assert result.returns == [True] * n


def test_seg_gather_matches_p2p_payload_frames():
    """Many-to-one: the turn-based gather must not exceed the binomial
    tree's payload frame count (the engine's reliability is free in
    frames, like the segmented reduce)."""
    nbytes = 20_000

    def run(impl):
        def main(env):
            env.comm.use_collectives(gather=impl)
            out = yield from env.comm.gather(bytes(nbytes), 0)
            return out is None or len(out) == env.size
        result = run_spmd(4, main, params=AUTO)
        assert all(result.returns)
        return result.stats["frames_by_kind"]

    seg = run("mcast-seg-root-follow").get("mcast-seg", 0)
    p2p_kinds = run("p2p-binomial")
    assert seg <= p2p_kinds.get("p2p", 0)


def test_seg_gather_repairs_loss_at_the_root():
    """Only the root consumes: induced first-copy loss there is repaired
    selectively, and bystander loss costs nothing."""
    nsegs = len(plan_segments(20_000, QUIET.segment_bytes))

    def main(env):
        env.comm.use_collectives(gather="mcast-seg-root-follow")
        if env.rank == 0:
            env.host.frame_fate = drop_first_copy_of(
                {0, 5})
        out = yield from env.comm.gather(bytes([env.rank]) * 20_000, 0)
        if env.rank == 0:
            return out == [bytes([r]) * 20_000 for r in range(env.size)]
        return out is None

    result = run_spmd(4, main, params=QUIET)
    assert result.returns == [True] * 4
    # two lost segments per contributing turn, re-multicast exactly once
    assert result.stats["retransmissions"] == 3 * 2
    assert (result.stats["frames_by_kind"]["mcast-seg"]
            == 3 * (nsegs + 2))


def test_seg_gather_interleaves_with_reduce_on_one_channel():
    def main(env):
        env.comm.use_collectives(gather="mcast-seg-root-follow",
                                 reduce="mcast-seg-combine")
        got = yield from env.comm.gather(str(env.rank), 1)
        folded = yield from env.comm.reduce(str(env.rank), CONCAT, 1)
        if env.rank == 1:
            return got == [str(r) for r in range(env.size)], folded
        return got is None, folded

    result = run_spmd(5, main, params=AUTO)
    assert result.returns[1] == (True, "01234")
