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
   serializes while the host prepares the next segment);
3. receivers pre-post descriptors, reassemble by segment index, and
   report the **bitmap of missing segments** to the root over the
   buffered scout socket;
4. the root re-multicasts **only the union of missing segments**
   (selective NACK repair), round by round, until every receiver reports
   an empty bitmap.

The whole **stream** — the header handshake and the
arm/stream/report/decide loop — lives in the reusable round engine of
:mod:`repro.core.rounds` (:func:`~repro.core.rounds.stream_rounds`,
which every rank of the group runs): this module owns payload
*planning* (segment sizing, batching, fragmentation, the closed-form
frame/datagram formulas), the **stream schedule**
(:func:`step_streams`: which engine streams a step kind runs —
``serve`` one from the server to everyone, ``fold`` / ``collect`` one
per contributor to the collector alone, ``deal`` one per-part
addressed, ``exchange`` one per member) and its executor
:func:`run_streams` — per row, the server fragments, every rank runs
the one stream loop, the consumers reassemble.  The five registered
flat segmented collectives (the paper multicasts only the one-to-many
side; its reductions stayed on MPICH's p2p trees) are one schedule row
each, the hierarchical plans of
:mod:`repro.mpi.collective.hier` run the same rows per group, and the
frame model prices them.

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
selective-repair granularity.  An explicit integer ``segment_bytes``
keeps one segment per datagram.  Repair rounds under the auto
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
above is an upper bound for frame-sized segments: a batched datagram of
k segments IP-fragments into at most k frames — each extra segment adds
4 envelope bytes (:data:`~repro.core.channel.SEG_HEADER_BYTES`) while
each extra fragment offers 20 bytes of header slack, so a short tail
(or the scatter's short per-part tails) can ride that slack.  The plan
fold (:func:`repro.analysis.framecount.model_plan_frames`) therefore
prices a batched datagram by its bytes.  What batching changes besides
is the *datagram* count — the unit of per-receive software tax and of
descriptor usage::

    datagrams(N, S, R, B) = 1 + (N-1)(2(R+1) + 1) + (R+1)
                          + ceil(S/B) + sum(ceil(|U_r|/B_r), r >= 1)

(:func:`seg_nack_frame_count` / :func:`seg_nack_datagram_count` export
both closed forms.)  Loss-free this is ``2 + 3(N-1) + S`` frames —
linear in payload like the paper's single multicast, with a constant
per-round synchronization tax; under loss, repair cost is proportional
to what was actually lost, not to the payload (contrast ``mcast-ack``:
one full S-frame resend per timeout).

The allgather variant ``mcast-seg-paced`` applies the same machinery to
the many-to-many case: each rank in turn serves exactly the stream
above — header, arm, stream, report, decision; the header gather is the
turn's ready round — so a lost segment is selectively repaired by its
sender instead of surfacing as ``McastLost``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Any, Generator, Optional, Sequence

from ..mpi.collective.registry import register
from ..mpi.datatypes import payload_bytes
from ..mpi.ops import Op
from .rounds import (Reassembler, Segment, chunk_plan, frame_segment_bytes,
                     reassemble, resolved_segment_bytes, round_namespace,
                     stream_rounds)

__all__ = ["Segment", "Reassembler", "TransportPlan", "auto_batch",
           "plan_transport", "frame_segment_bytes", "chunk_plan",
           "plan_segments", "fragment", "reassemble",
           "step_streams", "run_streams",
           "check_scatter_root", "bcast_mcast_seg_nack",
           "reduce_mcast_seg_combine",
           "gather_mcast_seg_root_follow", "scatter_mcast_seg_root",
           "allgather_mcast_seg_paced",
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
    """The batch factor for a plan of ``nsegs`` segments: with
    ``segment_bytes="auto"`` the whole plan in one datagram below
    ``seg_auto_crossover`` segments, else one segment per datagram."""
    if params.segment_bytes == "auto" and nsegs <= params.seg_auto_crossover:
        return max(nsegs, 1)
    return 1


def plan_transport(nbytes: int, params) -> TransportPlan:
    """Resolve ``NetParams.segment_bytes`` for a payload.

    * explicit int ``segment_bytes`` → that size, batch 1 (PR 1 wire
      behaviour);
    * ``segment_bytes="auto"`` → frame-sized segments, the whole payload
      batched into one datagram below ``seg_auto_crossover`` segments,
      batch 1 above it — small payloads never pay the per-segment
      receive tax, large ones keep full selective-repair granularity.
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

    ``repairs`` lists ``|U_r|`` for each repair round r >= 1; pass a
    batched datagram's frames, not its segments, as ``nsegs``.
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
# the stream schedule and its executor
# ----------------------------------------------------------------------
def step_streams(kind: str, k: int, at: int) -> list:
    """The stream schedule: the engine streams one step of ``kind``
    runs over a group of ``k`` members served / collected at turn
    ``at``, in wire order, as ``(server turn, consumer)`` rows.
    ``consumer`` is ``None`` (every member follows the whole stream), a
    turn (that member alone follows; the rest keep lockstep as
    bystanders) or ``"each"`` (per-part addressed: the header's counts
    give every follower its own slice).  The executor
    (:func:`run_streams` — and through it the plan interpreter,
    :func:`repro.mpi.collective.hier.run_plan`) and the frame model
    (:func:`repro.analysis.framecount.model_plan_frames`) both read
    these rows, so a new or changed kind is one row here; ``KeyError``
    for a kind that runs no engine stream."""
    if kind == "serve":
        return [(at, None)]
    if kind == "deal":
        return [(at, "each")]
    if kind in ("fold", "collect"):
        return [(turn, at) for turn in range(k) if turn != at]
    if kind == "exchange":
        return [(turn, None) for turn in range(k)]
    raise KeyError(kind)


def check_scatter_root(comm, objs, root: int) -> None:
    """The scatter's argument check, raised at the root before any
    traffic: exactly one element per rank."""
    if comm.rank == root and (objs is None or len(objs) != comm.size):
        raise ValueError(
            f"scatter root needs exactly {comm.size} elements, "
            f"got {None if objs is None else len(objs)}")


def run_streams(comm, kind: str, at: int, mine: Any, op=None) -> Generator:
    """Run one step kind's scheduled engine streams over ``comm`` and
    return the kind's result — the one turn loop of every segmented
    collective, flat (``comm`` the communicator) or one group of a
    hierarchical plan (``comm`` its ``SegmentComm``).

    ``mine`` is what this rank brings: the value (``serve``, read at
    ``at`` only), the ``k`` parts (``deal``, at ``at`` only) or its own
    contribution (``fold`` / ``collect`` / ``exchange``).  One sequence
    number per call, size 1 included, and no ready round: a stream's
    header gather already tells its server every follower is waiting.
    Per stream every member runs one
    :func:`~repro.core.rounds.stream_rounds`: the server with its
    fragments, its consumers reassembling, everyone else as a pure
    bystander (``needed=set()``: every gather and decision, no
    descriptor).  A
    ``deal`` renumbers the other members' fragments into one global
    stream whose header carries the per-member counts; the server's own
    part never touches the wire.

    Returns ``serve``: the value; ``deal``: my part; ``fold``: at
    ``at`` the contributions folded through ``op`` in ascending turn
    order — MPI allows reordering only for commutative operators, so
    never reordered, the collector's own in its rank position and never
    on the wire — ``None`` elsewhere; ``collect``: at ``at`` the
    turn-ordered list, ``None`` elsewhere; ``exchange``: that list
    everywhere.
    """
    channel = comm.mcast
    params = comm.host.params
    seq = channel.next_seq()
    rank, size = comm.rank, comm.size
    got: dict[int, Any] = {}            # serving turn -> what reached me
    if size > 1:
        for server, consumer in step_streams(kind, size, at):
            segments, batch, counts, needed = None, 1, None, None
            if rank == server:
                seg_bytes = resolved_segment_bytes(params)
                if consumer == "each":
                    frags = [[] if turn == server
                             else fragment(part, seg_bytes)
                             for turn, part in enumerate(mine)]
                    counts = tuple(map(len, frags))
                    nsegs = sum(counts)
                    # one global stream: each follower's slice is the
                    # contiguous index range its count spans
                    segments = [
                        Segment(i, nsegs, s.nbytes, s.chunk, s.opaque)
                        for i, s in enumerate(chain.from_iterable(frags))]
                else:
                    segments = fragment(mine, seg_bytes)
                batch = auto_batch(params, len(segments))
            elif consumer not in (None, "each", rank):
                needed = set()              # a bystander
            reasm = yield from stream_rounds(
                comm, channel, seq, server, *round_namespace(kind, server),
                segments, batch, counts, needed)
            if reasm is None or needed is not None:
                continue
            if consumer == "each":
                segs = reasm.segments()
                got[server] = (segs[0].chunk if segs and segs[0].opaque
                               else b"".join(s.chunk for s in segs))
            else:
                got[server] = reasm.result()
    if kind == "serve":
        return mine if rank == at else got[at]
    if kind == "deal":
        return mine[at] if rank == at else got[at]
    if rank != at and kind != "exchange":
        return None
    got[rank] = mine
    values = [got[turn] for turn in range(size)]
    if kind != "fold":
        return values
    return copy.copy(mine) if size == 1 else reduce(op, values)


# ----------------------------------------------------------------------
# the registered flat entries: one schedule row each
# ----------------------------------------------------------------------
@register("bcast", "mcast-seg-nack", "flat")
def bcast_mcast_seg_nack(comm, obj: Any, root: int = 0) -> Generator:
    """Segmented pipelined broadcast with per-segment NACK repair."""
    return run_streams(comm, "serve", root, obj)


@register("reduce", "mcast-seg-combine", "flat")
def reduce_mcast_seg_combine(comm, obj: Any, op: Op,
                             root: int = 0) -> Generator:
    """Segmented NACK-repaired reduce: gather turns folded through ``op``.

    Every non-root rank takes a turn streaming its contribution with
    itself as the stream's root; the root follows each turn and folds
    in rank order; the rest keep lockstep as bystanders.  Many-to-one
    traffic gains no frame-count advantage from multicast — the payload
    frames match the p2p binomial reduce — what the engine adds is
    selective repair under loss and adaptive drain timeouts.  Returns
    the reduction at ``root``; ``None`` elsewhere.
    """
    return run_streams(comm, "fold", root, obj, op)


@register("gather", "mcast-seg-root-follow", "flat")
def gather_mcast_seg_root_follow(comm, obj: Any,
                                 root: int = 0) -> Generator:
    """Returns the rank-ordered list at ``root``; ``None`` elsewhere.

    The reduce's turns with the root *collecting* instead of folding:
    one engine stream per contributor in ascending rank order, followed
    by the root alone.
    """
    return run_streams(comm, "collect", root, obj)


@register("scatter", "mcast-seg-root", "flat")
def scatter_mcast_seg_root(comm, objs: Optional[Sequence[Any]],
                           root: int = 0) -> Generator:
    """Returns this rank's element of the root's sequence.

    The root renumbers every other rank's fragments into **one global
    segment stream** — one arm gather, one pipelined burst, one
    report / decision round instead of MPICH's per-subtree
    store-and-forward hops.  The header carries the per-rank segment
    counts; each receiver posts descriptors for the whole round
    (multicast delivers every datagram to everyone) but reassembles and
    NACK-reports only its own slice, so repair cost tracks real damage
    per rank.  Each byte rides the wire once, against the binomial
    tree's ~``log2(N)/2`` copies, at the price of every receiver paying
    the receive tax for the full stream.
    """
    check_scatter_root(comm, objs, root)
    return run_streams(comm, "deal", root, objs)


@register("allgather", "mcast-seg-paced", "flat")
def allgather_mcast_seg_paced(comm, obj: Any) -> Generator:
    """Rank-ordered allgather with segmented, pipelined contributions.

    Per turn: the sender serves one engine stream with itself as root
    — header scout gather, segment-count announcement, arm gather,
    segment stream, report fold, decision, repair rounds.
    Arm synchronization still makes losses impossible under the
    paper's readiness model; a loss injected anyway (``Host.frame_fate``
    fault injection, ``NetParams.loss``) is selectively repaired by the
    turn's sender instead of raising ``McastLost``.
    """
    return run_streams(comm, "exchange", 0, obj)
