"""Segmented pipelined multicast: fragmentation, reassembly, the
adaptive transport plan (auto sizing + batching), and the
``mcast-seg-nack`` / ``mcast-seg-paced`` collectives (incl. NACK repair
under induced loss and the documented frame/datagram-count
formulas)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import run_spmd
from repro.core.channel import MCAST_HEADER_BYTES
from repro.core.segment import (Reassembler, Segment, TransportPlan,
                                chunk_plan, fragment,
                                frame_segment_bytes, plan_segments,
                                plan_transport, reassemble,
                                seg_nack_datagram_count,
                                seg_nack_frame_count)
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)
AUTO = replace(QUIET, segment_bytes="auto")


def collective_datagrams(result) -> int:
    """Datagrams the collective itself sent: everything except the
    runtime's p2p wireup traffic (whose small datagrams are 1 frame
    each, so the kind counter equals the datagram count)."""
    return (result.stats["datagrams_sent"]
            - result.stats["frames_by_kind"].get("p2p", 0))


# ------------------------------------------------------------- planning
@pytest.mark.parametrize("nbytes,seg,expected", [
    (0, 100, [0]),                     # empty payload: one empty segment
    (1, 100, [1]),
    (100, 100, [100]),                 # exact fit
    (101, 100, [100, 1]),              # non-divisible remainder
    (250, 100, [100, 100, 50]),
    (300, 100, [100, 100, 100]),       # divisible
])
def test_plan_segments(nbytes, seg, expected):
    assert plan_segments(nbytes, seg) == expected
    assert sum(expected) == nbytes


def test_plan_segments_rejects_bad_args():
    with pytest.raises(ValueError):
        plan_segments(-1, 100)
    with pytest.raises(ValueError):
        plan_segments(100, 0)


# ------------------------------------------- adaptive transport plan
def test_frame_segment_bytes_fills_one_mtu():
    # 1460 user bytes + 12 envelope bytes = the 1472-byte UDP payload of
    # one default-MTU frame
    assert frame_segment_bytes(QUIET) == 1460


def test_plan_transport_explicit_size_keeps_single_segment_datagrams():
    tp = plan_transport(48_000, QUIET)
    assert tp == TransportPlan(segment_bytes=1460, batch=1, nsegs=33)
    assert tp.ndatagrams == 33


@pytest.mark.parametrize("nbytes,batch,nsegs", [
    (0, 1, 1),             # empty payload: one empty segment, one datagram
    (100, 1, 1),
    (1460, 1, 1),
    (5000, 4, 4),          # below crossover: whole round in one datagram
    (12_000, 9, 9),
    (14_600, 10, 10),      # exactly at the crossover: still one datagram
    (14_601, 1, 11),       # above: full selective-repair granularity
    (48_000, 1, 33),
])
def test_plan_transport_auto_crossover(nbytes, batch, nsegs):
    tp = plan_transport(nbytes, AUTO)
    assert (tp.segment_bytes, tp.batch, tp.nsegs) == (1460, batch, nsegs)
    if batch > 1:
        assert tp.ndatagrams == 1


def test_chunk_plan_groups_consecutive_indices():
    assert chunk_plan([0, 1, 2, 3, 4], 2) == [[0, 1], [2, 3], [4]]
    assert chunk_plan([3, 7, 11], 8) == [[3, 7, 11]]   # repair re-batching
    assert chunk_plan([], 3) == []
    with pytest.raises(ValueError):
        chunk_plan([0], 0)


def test_seg_nack_datagram_count_formula():
    # batch 1 degenerates to the frame formula
    assert (seg_nack_datagram_count(4, 33)
            == seg_nack_frame_count(4, 33))
    # batching shrinks only the data terms
    assert (seg_nack_datagram_count(4, 33, batch=8, repairs=[5])
            == 1 + 3 * 5 + 2 + 5 + 1)
    assert seg_nack_datagram_count(1, 10, batch=2) == 0


# ------------------------------------------------- fragment / reassemble
@pytest.mark.parametrize("nbytes", [0, 1, 99, 100, 101, 1459, 1460,
                                    1461, 4999, 48_000])
def test_bytes_round_trip(nbytes):
    payload = bytes(range(256)) * (nbytes // 256 + 1)
    payload = payload[:nbytes]
    segs = fragment(payload, 1460)
    assert sum(s.nbytes for s in segs) == nbytes
    assert reassemble(segs) == payload
    # any order reassembles identically
    assert reassemble(list(reversed(segs))) == payload


def test_bytearray_and_memoryview_round_trip_as_bytes():
    payload = bytearray(b"ab" * 700)
    for obj in (payload, memoryview(payload)):
        assert reassemble(fragment(obj, 100)) == bytes(payload)


def test_opaque_object_round_trip():
    obj = {"k": list(range(500))}
    segs = fragment(obj, 64)
    assert len(segs) > 1
    assert all(s.opaque for s in segs)
    assert reassemble(segs) is obj


def test_numpy_payload_is_opaque_but_sized_exactly():
    arr = np.arange(1000, dtype=np.float64)
    segs = fragment(arr, 1460)
    assert sum(s.nbytes for s in segs) == arr.nbytes
    assert reassemble(segs) is arr


def test_reassemble_rejects_incomplete_sets():
    segs = fragment(bytes(500), 100)
    with pytest.raises(ValueError):
        reassemble(segs[:-1])
    with pytest.raises(ValueError):
        reassemble([])


def test_reassembler_tracks_missing_and_duplicates():
    segs = fragment(bytes(450), 100)         # 5 segments
    r = Reassembler(5)
    assert r.missing() == {0, 1, 2, 3, 4}
    assert r.add(segs[2])
    assert not r.add(segs[2])                # duplicate
    assert r.duplicates == 1
    assert r.missing() == {0, 1, 3, 4}
    assert not r.complete
    with pytest.raises(ValueError):
        r.result()
    for s in segs:
        r.add(s)
    assert r.complete and r.result() == bytes(450)
    with pytest.raises(ValueError):
        r.add(Segment(9, 7, 0, b""))         # foreign segment set


# ---------------------------------------------------------- loss filters
def drop_first_copy_of(indices):
    """Induced loss: drop the first arrival of the given segment indices
    (per broadcast sequence), second copies pass."""
    dropped = set()

    def flt(dgram):
        if dgram.kind != "mcast-seg":
            return None
        _root, seq, seg = dgram.payload
        key = (seq, seg.index)
        if seg.index in indices and key not in dropped:
            dropped.add(key)
            return "drop"
        return None

    return flt


# ----------------------------------------------------- seg-nack broadcast
@pytest.mark.parametrize("n", [1, 2, 4, 6, 9])
@pytest.mark.parametrize("nbytes", [0, 1000, 5000, 20_000])
def test_seg_nack_bcast_correct_lossless(n, nbytes):
    payload = bytes(nbytes)

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        obj = payload if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return out == payload

    result = run_spmd(n, main, params=QUIET)
    assert result.returns == [True] * n
    assert result.stats["retransmissions"] == 0


def test_seg_nack_bcast_nonzero_root_and_objects():
    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        obj = {"data": bytes(4000)} if env.rank == 2 else None
        out = yield from env.comm.bcast(obj, 2)
        return out == {"data": bytes(4000)}

    result = run_spmd(5, main, params=QUIET)
    assert result.returns == [True] * 5


def test_seg_nack_repairs_induced_loss():
    """Receivers NACK missing segments; the root resends only those."""
    payload = bytes(20_000)                    # 14 segments at 1460 B
    lost = {2, 5, 11}

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        if env.rank in (1, 3):
            env.host.frame_fate = drop_first_copy_of(lost)
        obj = payload if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return out == payload

    result = run_spmd(4, main, params=QUIET)
    assert result.returns == [True] * 4
    # selective repair: exactly the union was re-multicast, once
    assert result.stats["retransmissions"] == len(lost)
    assert result.stats["frames_by_kind"]["mcast-seg"] == 14 + len(lost)


def test_seg_nack_repairs_lost_tail_via_drain_timeout():
    """Losing the last segment exercises the drain-timeout path (no
    higher-index arrival can end the round early)."""
    payload = bytes(20_000)

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        if env.rank == 1:
            env.host.frame_fate = drop_first_copy_of({13})
        obj = payload if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return out == payload

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == [True] * 3
    assert result.stats["retransmissions"] == 1


def test_seg_nack_survives_repeated_loss_rounds():
    """A segment whose first AND second copies are dropped needs two
    repair rounds."""
    payload = bytes(10_000)                    # 7 segments
    copies = {}

    def flt(dgram):
        if dgram.kind != "mcast-seg":
            return None
        _root, seq, seg = dgram.payload
        if seg.index != 3:
            return None
        seen = copies.get((seq, seg.index), 0)
        copies[(seq, seg.index)] = seen + 1
        return "drop" if seen < 2 else None  # the first two copies

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        if env.rank == 1:
            env.host.frame_fate = flt
        obj = payload if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return out == payload

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == [True] * 3
    assert result.stats["retransmissions"] == 2


def test_seg_nack_back_to_back_with_other_collectives():
    """Segmented broadcasts interleave cleanly with barriers and the
    classic scouted broadcast on the same channel."""
    payloads = [bytes(3000), bytes(17_001), bytes(1)]

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack", barrier="mcast")
        got = []
        for p in payloads:
            out = yield from env.comm.bcast(p if env.rank == 0 else None, 0)
            got.append(out == p)
            yield from env.comm.barrier()
        env.comm.use_collectives(bcast="mcast-binary")
        out = yield from env.comm.bcast("tail" if env.rank == 0 else None, 0)
        got.append(out == "tail")
        return all(got)

    result = run_spmd(4, main, params=QUIET)
    assert result.returns == [True] * 4


def test_seg_nack_frame_count_formula():
    """Loss-free frame counts match the module's documented formula."""
    payload = bytes(48_000)                    # 33 segments at 1460 B
    n = 4

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        obj = payload if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return len(out)

    result = run_spmd(n, main, params=QUIET)
    assert result.returns == [48_000] * n
    kinds = result.stats["frames_by_kind"]
    observed = sum(kinds.get(k, 0) for k in
                   ("mcast-seg", "mcast-seg-hdr", "seg-report", "seg-dec",
                    "scout"))
    assert observed == seg_nack_frame_count(n, 33)
    assert kinds["mcast-seg"] == 33
    assert kinds["mcast-seg-hdr"] == 1
    assert kinds["seg-report"] == n - 1
    assert kinds["seg-dec"] == 1              # one control multicast


# -------------------------------------------------- seg-paced allgather
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_seg_paced_allgather_correct(n):
    def main(env):
        env.comm.use_collectives(allgather="mcast-seg-paced")
        mine = bytes([env.rank]) * (3000 + env.rank)
        out = yield from env.comm.allgather(mine)
        return [len(x) for x in out]

    result = run_spmd(n, main, params=QUIET)
    expected = [3000 + r for r in range(n)]
    assert result.returns == [expected] * n


def test_seg_paced_allgather_matches_paced():
    """The paced allgather returns what the p2p reference returns."""
    def main(env):
        env.comm.use_collectives(allgather="p2p-gather-bcast")
        a = yield from env.comm.allgather(bytes([env.rank]) * 4000)
        env.comm.use_collectives(allgather="mcast-seg-paced")
        b = yield from env.comm.allgather(bytes([env.rank]) * 4000)
        return a == b

    result = run_spmd(5, main, params=QUIET)
    assert all(result.returns)


def test_seg_paced_allgather_repairs_induced_loss():
    """A lost segment no longer raises McastLost: the turn's sender runs
    the same NACK repair rounds as the broadcast and re-multicasts only
    the missing segment."""
    def main(env):
        env.comm.use_collectives(allgather="mcast-seg-paced")
        if env.rank == 2:
            env.host.frame_fate = drop_first_copy_of({1})
        out = yield from env.comm.allgather(bytes(5000))
        return [len(x) for x in out]

    result = run_spmd(4, main, params=QUIET)
    assert result.returns == [[5000] * 4] * 4
    # rank 2 missed segment 1 of turn 0's stream; exactly that one
    # segment was re-multicast (5000 B = 4 segments per turn)
    assert result.stats["retransmissions"] == 1
    assert result.stats["frames_by_kind"]["mcast-seg"] == 4 * 4 + 1


def test_seg_paced_allgather_repairs_loss_in_every_turn():
    """Each turn's sender repairs its own stream: a receiver dropping
    segment 2 of *every* sender forces one single-segment repair round
    per turn it listens to."""
    def drop_seg2_once_per_sender():
        dropped = set()

        def flt(dgram):
            if dgram.kind != "mcast-seg":
                return None
            root, _seq, seg = dgram.payload
            if seg.index == 2 and root not in dropped:
                dropped.add(root)
                return "drop"
            return None

        return flt

    def main(env):
        env.comm.use_collectives(allgather="mcast-seg-paced")
        if env.rank == 1:
            env.host.frame_fate = \
                drop_seg2_once_per_sender()
        mine = bytes([env.rank]) * 6000
        out = yield from env.comm.allgather(mine)
        return [x == bytes([r]) * 6000 for r, x in enumerate(out)]

    result = run_spmd(4, main, params=QUIET)
    assert result.returns == [[True] * 4] * 4
    # rank 1 listens to turns 0, 2, 3 -> three single-segment repairs
    assert result.stats["retransmissions"] == 3


def test_seg_paced_allgather_auto_batches_small_contributions():
    """Auto transport: each 5000-B contribution (4 segments) rides one
    batched datagram per turn, and the result still matches."""
    def main(env):
        env.comm.use_collectives(allgather="mcast-seg-paced")
        out = yield from env.comm.allgather(bytes([env.rank]) * 5000)
        return [x == bytes([r]) * 5000 for r, x in enumerate(out)]

    result = run_spmd(4, main, params=AUTO)
    assert result.returns == [[True] * 4] * 4
    # 4 turns x 4 single-frame segments, batched: frame count unchanged
    assert result.stats["frames_by_kind"]["mcast-seg"] == 16
    # ...but each turn's stream was ONE datagram (the batching win),
    # and the turns are all there is: no ready round runs before them
    per_turn = seg_nack_datagram_count(4, 4, batch=4)
    assert collective_datagrams(result) == 4 * per_turn


# ------------------------------------------------------ batched frames
def test_seg_nack_batched_bcast_matches_formulas():
    """The auto plan below the crossover batches the whole payload into
    one datagram: the Ethernet-frame formula stays intact while the
    datagrams (the per-receive software tax) fall to ceil(S/B) — both
    closed forms hold on the wire."""
    payload = bytes(12_000)                    # 9 segments, 1 datagram

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        obj = payload if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return out == payload

    result = run_spmd(4, main, params=AUTO)
    assert result.returns == [True] * 4
    kinds = result.stats["frames_by_kind"]
    assert kinds["mcast-seg"] == 9             # one frame per segment still
    assert collective_datagrams(result) == seg_nack_datagram_count(
        4, 9, batch=9)


def test_seg_nack_batched_bcast_repairs_whole_batch_loss():
    """Losing the one batched datagram loses its whole segment run; the
    repair round re-batches exactly those segments into one datagram."""
    payload = bytes(12_000)
    dropped = []

    def flt(dgram):
        # drop the first copy of the batch (segments 0..8)
        if dgram.kind != "mcast-seg" or dropped:
            return None
        dropped.append([s.index for s in dgram.payload[2]])
        return "drop"

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        if env.rank == 1:
            env.host.frame_fate = flt
        obj = payload if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return out == payload

    result = run_spmd(3, main, params=AUTO)
    assert result.returns == [True] * 3
    assert dropped == [list(range(9))]
    # the 9 lost segments came back as ONE re-batched repair datagram
    assert result.stats["retransmissions"] == 1
    assert collective_datagrams(result) == seg_nack_datagram_count(
        3, 9, batch=9, repairs=[9])


def test_seg_nack_auto_bcast_correct_across_the_crossover():
    """Auto transport stays correct on both sides of the crossover and
    for opaque (non-bytes) payloads."""
    payloads = [bytes(0), bytes(1000), bytes(12_000), bytes(48_000),
                {"opaque": list(range(2000))}]

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        got = []
        for p in payloads:
            out = yield from env.comm.bcast(p if env.rank == 0 else None, 0)
            got.append(out == p)
        return got

    result = run_spmd(4, main, params=AUTO)
    assert result.returns == [[True] * len(payloads)] * 4


# ------------------------------------------------- crossover vs mcast-ack
def _lossy_bcast_frames(impl, nbytes, params, nprocs=4):
    """One broadcast under the bench's loss model (odd ranks drop the
    first copy of every data datagram); returns payload-frame count."""
    data_kind = "mcast-seg" if impl == "mcast-seg-nack" else "mcast-data"

    def drop_first_copy():
        seen = set()

        def flt(dgram):
            if dgram.kind != data_kind:
                return None
            seq = dgram.payload[1]
            if seq in seen:
                return None
            seen.add(seq)
            return "drop"

        return flt

    def main(env):
        env.comm.use_collectives(bcast=impl)
        if env.rank % 2 == 1:
            env.host.frame_fate = drop_first_copy()
        obj = bytes(nbytes) if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return out == bytes(nbytes)

    result = run_spmd(nprocs, main, params=params)
    assert all(result.returns)
    return result.stats["frames_by_kind"].get(data_kind, 0)


@pytest.mark.parametrize("nbytes", [0, 100, 1460, 5000, 10_000, 14_000])
def test_auto_seg_nack_never_beaten_by_ack_below_crossover(nbytes):
    """The PR 1 crossover is gone: below ~10 MTUs the auto plan ships
    the payload as one datagram, so ``mcast-seg-nack`` never puts more
    payload-carrying frames on the wire than ``mcast-ack`` under the
    same induced loss.  (Control frames are excluded: scouts, reports
    and decisions are 4-byte frames against 1500-byte data frames.)"""
    seg = _lossy_bcast_frames("mcast-seg-nack", nbytes, AUTO)
    ack = _lossy_bcast_frames("mcast-ack", nbytes, QUIET)
    assert seg <= ack


def test_auto_seg_nack_beats_ack_above_crossover():
    """Above the crossover, selective repair wins outright: the NACK
    stream re-sends the one lost segment, ``mcast-ack`` re-multicasts
    every frame of the payload (once — its deadline outlasts the acks
    of the ranks that got the first copy)."""
    seg = _lossy_bcast_frames("mcast-seg-nack", 48_000, AUTO)
    ack = _lossy_bcast_frames("mcast-ack", 48_000, QUIET)
    frames = QUIET.frames_for(48_000 + MCAST_HEADER_BYTES)
    assert (seg - frames, ack - frames) == (1, frames)


def test_seg_nack_gives_up_cleanly_on_unrepairable_loss():
    """If a segment can never be delivered, the root aborts the repair
    loop AND tells the receivers, so every rank raises instead of the
    receivers hanging in an arm gather the root will never serve."""
    few = replace(QUIET, max_repair_rounds=3)

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        if env.rank == 1:
            env.host.frame_fate = (
                lambda d: "drop" if d.kind == "mcast-seg"
                and d.payload[2].index == 2 else None)
        out = yield from env.comm.bcast(
            bytes(10_000) if env.rank == 0 else None, 0)
        return len(out)

    with pytest.raises(RuntimeError, match="gave up|root gave up"):
        run_spmd(3, main, params=few)
