"""Adaptive segmented, pipelined multicast with selective NACK repair.

The paper's reliable baseline (``mcast-ack``) re-multicasts the **whole
payload** whenever any ack is late — the reason it "did not produce
improvement in performance".  This module takes the opposite approach for
payloads larger than one MTU, following the bandwidth-saving segmented
broadcasts of Zhou et al. and Träff's multi-lane decompositions:

1. the payload is **fragmented** into per-segment-sequenced chunks
   (:func:`fragment`), each small enough that one segment rides one
   Ethernet frame at the default :attr:`NetParams.segment_bytes`;
2. the root **streams** all segments back-to-back through the
   :class:`~repro.core.channel.McastChannel` (pipelined: the wire
   serializes while the host prepares the next segment), optionally
   inserting a rate-pacing gap between datagrams;
3. receivers pre-post descriptors, reassemble by segment index, and
   report the **bitmap of missing segments** to the root over the
   buffered scout socket;
4. the root re-multicasts **only the union of missing segments**
   (selective NACK repair), round by round, until every receiver reports
   an empty bitmap.

The whole **stream** — the header handshake and the
arm/stream/report/decide state machine — lives in the reusable round
engine of :mod:`repro.core.rounds`
(:func:`~repro.core.rounds.serve_rounds` /
:func:`~repro.core.rounds.follow_rounds`): this module owns payload
*planning* (segment sizing, batching, fragmentation, the closed-form
frame/datagram formulas) plus the broadcast and allgather collectives
built on the engine — each one fragment → serve / follow → reassemble;
:mod:`repro.core.mcast_reduce` and :mod:`repro.core.mcast_scatter` add
the reduction-side collectives on the same engine.

The stream's wire protocol — the header handshake, then per round a
scout gather, the data, the report fold and one decision multicast, and
why all of that control rides the buffered scout socket so that only
``mcast-seg`` data frames can be lost — is described there, in one
place.

**Adaptive transport plan** (:func:`plan_transport`).  With
``NetParams.segment_bytes = "auto"`` the logical segment size is derived
from the MTU (one segment per Ethernet frame), and the **batch factor**
(:func:`auto_batch`) adapts to the payload: below
:attr:`NetParams.seg_auto_crossover` segments the whole round ships as a
*single* batched datagram — one receive-descriptor, one per-datagram
software tax — so small payloads never pay the per-segment receive tax
that put the PR 1 crossover against ``mcast-ack`` at ~10 segments.
Above the crossover the batch factor drops to 1 for full
selective-repair granularity.  Explicit integer ``segment_bytes`` /
``seg_batch`` values override the policy.  Repair rounds under the auto
policy re-batch from the *actual* missing set
(:func:`~repro.core.rounds.repair_batch`), so scattered losses pack into
one repair datagram.

**Frame-count formula** (asserted by the ``segmented-bcast`` sweep area
and ``tests/test_segment.py``).  For N ranks, S segments, R repair rounds
re-sending unions U_1..U_R (U_0 = all S segments)::

    frames(N, S, R) = 1                       # header multicast
                    + (N-1)                   # header scout gather
                    + sum over rounds r=0..R of
                        (N-1)                 # arming scout gather
                      + |U_r|                 # segment frames
                      + (N-1)                 # report fold, one per rank
                      + 1                     # the decision multicast
                    = 1 + (N-1)(2(R+1) + 1) + (R+1) + S
                        + sum(|U_r|, r >= 1)

**Batched generalization.**  With batch factor B, round r's |U_r|
segments ride ``ceil(|U_r| / B_r)`` datagrams instead of |U_r| (B_0 = B;
repair rounds may re-batch, see above).  The *Ethernet frame* count
above is unchanged for frame-sized segments: a batched datagram of k
segments IP-fragments into exactly k frames, because each extra segment
adds 4 envelope bytes (:data:`~repro.core.channel.SEG_HEADER_BYTES`)
while each extra fragment offers 20 bytes of header slack.  (A stream
fragmented part by part — the scatter's one part per rank — holds
short per-part tails, so *its* batched datagram is priced by its
bytes: :func:`repro.analysis.framecount.model_plan_frames` owns that
data term.)  What batching changes is the *datagram* count — the unit
of per-receive software tax and of descriptor usage::

    datagrams(N, S, R, B) = 1 + (N-1)(2(R+1) + 1) + (R+1)
                          + ceil(S/B) + sum(ceil(|U_r|/B_r), r >= 1)

(:func:`seg_nack_frame_count` / :func:`seg_nack_datagram_count` export
both closed forms.)  Loss-free this is ``2 + 3(N-1) + S`` frames —
linear in payload like the paper's single multicast, with a constant
per-round synchronization tax; under loss, repair cost is proportional
to what was actually lost, not to the payload (contrast ``mcast-ack``:
one full S-frame resend per timeout).

**Pacing** (paper §5: "a set of fast senders overrunning a single
receiver") is an engine concern — see
:class:`~repro.core.rounds.RoundPacer` and the module docstring of
:mod:`repro.core.rounds` for the descriptor-budget feedback loop.

The allgather variant ``mcast-seg-paced`` applies the same machinery to
the many-to-many case: after the paced ready round, each rank takes a
turn as the server of exactly the stream above — header, arm, stream,
report, decision — so a lost segment is selectively repaired by its
sender instead of surfacing as ``McastLost``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..mpi.collective.registry import register
from ..mpi.datatypes import payload_bytes
from .mcast_allgather import _ready_round
from .rounds import (Reassembler, Segment, chunk_plan, follow_rounds,
                     frame_segment_bytes, reassemble, round_namespace,
                     serve_rounds)

__all__ = ["Segment", "Reassembler", "TransportPlan", "auto_batch",
           "plan_transport", "frame_segment_bytes", "chunk_plan",
           "plan_segments", "fragment", "reassemble",
           "bcast_mcast_seg_nack", "allgather_mcast_seg_paced",
           "seg_nack_frame_count", "seg_nack_datagram_count"]


def plan_segments(nbytes: int, segment_bytes: int) -> list[int]:
    """Chunk sizes for a payload of ``nbytes``: full segments plus one
    remainder for non-divisible sizes.  A zero-byte payload still takes
    one (empty) segment so the protocol always has something to stream.
    """
    if segment_bytes < 1:
        raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if nbytes == 0:
        return [0]
    full, part = divmod(nbytes, segment_bytes)
    return [segment_bytes] * full + ([part] if part else [])


@dataclass(frozen=True)
class TransportPlan:
    """The resolved segmentation policy for one payload: logical segment
    size, segments per datagram, and the resulting counts."""

    segment_bytes: int  #: user bytes per logical segment
    batch: int          #: logical segments per ``mcast-seg`` datagram
    nsegs: int          #: total logical segments of the payload

    @property
    def ndatagrams(self) -> int:
        """Data datagrams of the loss-free round (``ceil(S/B)``)."""
        return -(-self.nsegs // self.batch)


def auto_batch(params, nsegs: int) -> int:
    """Resolve ``NetParams.seg_batch`` for a plan of ``nsegs`` segments.

    An explicit int forces that batch factor; otherwise the adaptive
    policy batches the whole plan into one datagram below
    ``seg_auto_crossover`` segments (only when ``segment_bytes`` is also
    ``"auto"``), and falls back to one segment per datagram above it.
    """
    batch = params.seg_batch
    if not isinstance(batch, int):
        auto = params.segment_bytes == "auto"
        batch = (nsegs if auto and nsegs <= params.seg_auto_crossover
                 else 1)
    if batch < 1:
        raise ValueError(f"seg_batch must be >= 1, got {batch}")
    return min(batch, max(nsegs, 1))


def plan_transport(nbytes: int, params) -> TransportPlan:
    """Resolve ``NetParams.segment_bytes`` / ``seg_batch`` for a payload.

    * explicit int ``segment_bytes`` → that size, batch 1 (PR 1 wire
      behaviour) unless ``seg_batch`` is an explicit int;
    * ``segment_bytes="auto"`` → frame-sized segments, and (with
      ``seg_batch="auto"``, the default) the whole payload batched into
      one datagram below ``seg_auto_crossover`` segments, batch 1 above
      it — small payloads never pay the per-segment receive tax, large
      ones keep full selective-repair granularity.
    """
    auto = params.segment_bytes == "auto"
    seg = frame_segment_bytes(params) if auto else params.segment_bytes
    nsegs = len(plan_segments(nbytes, seg))
    return TransportPlan(segment_bytes=seg,
                         batch=auto_batch(params, nsegs), nsegs=nsegs)


def fragment(obj: Any, segment_bytes: int) -> list[Segment]:
    """Fragment ``obj`` into :class:`Segment` chunks of ``segment_bytes``.

    Bytes-like payloads are sliced as zero-copy ``memoryview`` windows
    over one immutable buffer (mutable inputs are snapshotted once, so
    a caller-side ``bytearray`` mutation cannot corrupt in-flight
    segments); :func:`reassemble` materializes ``bytes`` at the user
    boundary.  Any other object is *opaque*: segment 0 references it
    whole, later segments are placeholders whose sizes keep the wire
    accounting exact.
    """
    nbytes = payload_bytes(obj)
    sizes = plan_segments(nbytes, segment_bytes)
    n = len(sizes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        view = memoryview(obj if isinstance(obj, bytes) else bytes(obj))
        out, off = [], 0
        for i, sz in enumerate(sizes):
            out.append(Segment(i, n, sz, view[off:off + sz]))
            off += sz
        return out
    return [Segment(i, n, sz, obj if i == 0 else None, opaque=True)
            for i, sz in enumerate(sizes)]


def seg_nack_frame_count(n: int, nsegs: int,
                         repairs: Optional[list[int]] = None) -> int:
    """The documented *frame*-count formula (see module docstring).

    ``repairs`` lists ``|U_r|`` for each repair round r >= 1.  Valid for
    every batch factor as long as segments are single-frame sized.
    """
    if n < 2:
        return 0
    repairs = repairs or []
    rounds = 1 + len(repairs)
    return 1 + (n - 1) * (2 * rounds + 1) + rounds + nsegs + sum(repairs)


def seg_nack_datagram_count(n: int, nsegs: int, batch: int = 1,
                            repairs: Optional[list[int]] = None,
                            repair_batches: Optional[list[int]] = None
                            ) -> int:
    """The documented *datagram*-count formula (see module docstring):
    like :func:`seg_nack_frame_count` but counting per-receive software
    events, so the data terms shrink by the batch factor.

    ``repair_batches`` gives the per-repair-round batch factor when the
    engine re-batched from the missing set
    (:func:`~repro.core.rounds.repair_batch`); it defaults to ``batch``
    for every repair round.
    """
    if n < 2:
        return 0
    repairs = repairs or []
    if repair_batches is None:
        repair_batches = [batch] * len(repairs)
    if len(repair_batches) != len(repairs):
        raise ValueError(f"{len(repairs)} repair rounds but "
                         f"{len(repair_batches)} repair batch factors")
    rounds = 1 + len(repairs)
    data = -(-nsegs // batch) + sum(
        -(-u // b) for u, b in zip(repairs, repair_batches))
    return 1 + (n - 1) * (2 * rounds + 1) + rounds + data


# ----------------------------------------------------------------------
# broadcast: segmented + pipelined + selective NACK repair
# ----------------------------------------------------------------------
@register("bcast", "mcast-seg-nack")
def bcast_mcast_seg_nack(comm, obj: Any, root: int = 0) -> Generator:
    """Segmented pipelined broadcast with per-segment NACK repair."""
    channel = comm.mcast
    params = comm.host.params
    seq = channel.next_seq()
    if comm.size == 1:
        return obj
    arm_phase, rnd_token = round_namespace()
    if comm.rank == root:
        tplan = plan_transport(payload_bytes(obj), params)
        yield from serve_rounds(comm, channel, seq, root,
                                fragment(obj, tplan.segment_bytes),
                                tplan.batch, arm_phase, rnd_token)
        return obj
    reasm = yield from follow_rounds(comm, channel, seq, root, arm_phase,
                                     rnd_token)
    return reasm.result()


# ----------------------------------------------------------------------
# allgather: per-turn segmented streaming with per-turn NACK repair
# ----------------------------------------------------------------------
@register("allgather", "mcast-seg-paced")
def allgather_mcast_seg_paced(comm, obj: Any) -> Generator:
    """Rank-ordered allgather with segmented, pipelined contributions.

    Per turn: the sender serves one engine stream with itself as root
    — header scout gather, segment-count announcement, arm gather,
    (paced) segment stream, report fold, decision, repair rounds.
    Arm synchronization still makes losses impossible under the
    paper's readiness model; a loss injected anyway (``drop_filter``
    fault injection, or a descriptor-budget overrun) is now selectively
    repaired by the turn's sender instead of raising ``McastLost``.
    """
    channel = comm.mcast
    params = comm.host.params
    seq = channel.next_seq()
    size = comm.size
    if size == 1:
        return [obj]

    tplan = plan_transport(payload_bytes(obj), params)
    mine = fragment(obj, tplan.segment_bytes)
    results: list[Any] = [None] * size
    results[comm.rank] = obj

    yield from _ready_round(comm, channel, seq)

    for turn in range(size):
        arm_phase, rnd_token = round_namespace("ag", turn)
        if turn == comm.rank:
            yield from serve_rounds(comm, channel, seq, turn, mine,
                                    tplan.batch, arm_phase, rnd_token)
        else:
            reasm = yield from follow_rounds(comm, channel, seq, turn,
                                             arm_phase, rnd_token)
            results[turn] = reasm.result()
    return results
