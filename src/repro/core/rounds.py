"""Reusable multicast round engine: one stream loop with selective NACK
repair.

PR 1/2 grew a reliable segmented-multicast transport inside the broadcast
implementation; this module extracts it as a standalone **round engine**
so every collective that streams data through a
:class:`~repro.core.channel.McastChannel` — every row of the stream
schedule in :mod:`repro.core.segment`, whose ``run_streams`` is the one
caller — shares one loop, in the spirit of Träff's decomposition of
collectives into reusable communication rounds ("Decomposing
Collectives for Exploiting Multi-lane Communication").

The engine's unit is the **stream**: a *header handshake* followed by
NACK-repaired *rounds*, written once, here — :func:`stream_rounds`,
which every rank of the group runs — and priced once, in
:func:`repro.analysis.framecount.model_plan_frames`.  Every step has
the paper's §3 shape: a gather up the binomial tree, then the root's
ONE control multicast back down, :func:`~repro.core.scout.answer`.
The loop branches only where the roles differ:

* the **header**: the root's answer to the header gather announces the
  segment count and batch factor, or the scatter's per-rank counts; a
  follower learns the stream's shape (and its ``needed`` slice) from it;
* the **round's data**: the root arms the group (scout gather) and
  streams the round's datagrams back to back; a follower posts a ring
  of one descriptor per expected datagram, arms, and parks once while
  the data socket drains the round's datagrams from the stream's
  server (nobody else's) into a :class:`Reassembler`;
* the **decision**: everyone folds its missing set with its subtree's;
  the root decides from the union — done, the next repair round's
  segments, or ``"abort"`` once ``max_repair_rounds`` is exhausted
  (told to everyone before raising) — and every follower obeys it.

A ``needed`` subset restricts what a follower reassembles and reports —
the scatter's per-rank addressing, derived from the header's counts —
and ``needed=set()`` is a pure *bystander* that stays in lockstep with
the stream, reads its header and reports at its true length, without
posting a single descriptor (used by the multicast reduce, where only
the root consumes data).

**The header**, on the wire: ``N-1`` header scouts up the binomial
tree, then one ``mcast-seg-hdr`` control multicast ``(nsegs, batch,
per-rank counts | None)`` keyed ``arm_phase("hdr")``, so it can only
match the stream it opens.  Its gather also bounds round 0's arming
skew, which :func:`round_drain_timeout_us` prices.

**One round**, on the wire: ``N-1`` arming scouts up the binomial tree,
the round's data multicasts, ``N-1`` reports folded up the *same* tree
and **one** decision multicast back — ``2(N-1) + 1`` control frames and
``O(log N)`` sequential steps, the paper's gather-then-multicast shape
(§3, Fig. 3); a star of ``N-1`` reports into the root and ``N-1``
decision unicasts out of it would serialize ``2(N-1)`` steps on the
root's one CPU.

All of it is the channel's one control message (``send_ctrl`` /
``wait_ctrl``) moved by one tree walk (:mod:`repro.core.scout`): the
header and arming gathers are the walk keyed ``arm_phase(...)``, the
fold is the walk keyed ``("seg-report", token)`` carrying the
subtree's missing set, the header and the decision each answer one:
every round is an up-walk plus one downward control multicast.

Both multicasts ride the channel's **buffered scout port** — not the
posted-only data socket, which carries only ``mcast-seg`` data, where
repair data meant for other ranks, ``duplicate``/``reorder`` stragglers
and bystanders that post nothing would eat or miss their descriptors.
That does not weaken the paper's readiness model: each answers a
gather (the header gather, the report fold) — a rank sends only after
its whole subtree has, then blocks on the answer, so the root
multicasts only once every rank is waiting for it.  One multicast also
releases every follower at the same instant, so the only arming skew
is the gather's depth, which :func:`round_drain_timeout_us` derives.

The header, selective repair, and the two adaptive behaviours below
are engine concerns — callers only provide the segment stream and a
*round namespace* (:func:`round_namespace`) so concurrent/consecutive
streams on one channel never cross-match each other's control
traffic.

**Adaptive drain timeout** (:func:`round_drain_timeout_us`).  A receiver
that lost a round's *tail* can only detect it by silence.  The timeout
is the round's expected serialization (send software + one link's wire
time + receive software, per datagram) plus a scheduling-jitter floor
(``NetParams.seg_drain_floor_us``), capped by the configured
``seg_drain_timeout_us``; on top ride the path — one store-and-forward
frame per switch, the edge switch and every trunk hop — and the arming
gather's depth derived from the group size.  Wire and path are the
simulator's own frame arithmetic
(:func:`repro.simnet.ip.datagram_wire_us`,
:func:`~repro.simnet.ip.store_forward_us`), so a slow fabric stretches
the timer exactly as it stretches the data.  A single-datagram round —
the whole-round-lost case of the auto transport plan — NACKs after
~1-2 ms instead of the full fixed timeout.

**Repair re-batching** (:func:`repair_batch`).  Under the auto transport
policy, a repair round's plan is the actual missing set, not round 0's
chunking: a scattered handful of lost segments re-packs into a single
batched datagram (one descriptor, one per-datagram software tax) whenever
the repair plan fits under ``seg_auto_crossover``.  Both sides derive the
repair batch from ``(plan, params)``, so descriptor counts still match
datagram counts exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from dataclasses import dataclass

from ..simnet.ip import datagram_wire_us, store_forward_us
from .channel import (MCAST_HEADER_BYTES, SCOUT_BYTES, SEG_HEADER_BYTES,
                      McastLost)
from .scout import (answer, binary_tree_steps, report_fold_binary,
                    scout_gather_binary)

__all__ = ["McastLost", "Segment", "Reassembler", "chunk_plan",
           "control_hop_us", "frame_segment_bytes", "reassemble",
           "repair_batch", "resolved_segment_bytes", "round_drain_timeout_us",
           "round_namespace", "stream_rounds"]


@dataclass(frozen=True)
class Segment:
    """One per-segment-sequenced chunk of a fragmented payload.

    ``opaque`` payloads (anything that is not bytes-like) cannot be
    sliced for real, so one segment carries the whole object and the rest
    carry ``None`` — the *sizes* still follow the segmentation plan, so
    wire timing is identical to a byte payload of the same length.

    Bytes-like payloads travel as zero-copy ``memoryview`` slices over
    the sender's immutable buffer (:func:`repro.core.segment.fragment`);
    :func:`reassemble` is the user boundary where ``bytes`` are
    materialized again.
    """

    index: int     #: position in the stream, 0-based
    nsegs: int     #: total segments of this stream
    nbytes: int    #: user bytes accounted to this segment on the wire
    chunk: Any     #: memoryview slice, or the object (opaque), or None
    opaque: bool = False


def frame_segment_bytes(params) -> int:
    """The largest segment that still rides a single Ethernet frame:
    one MTU's UDP payload minus the data and per-segment envelopes."""
    return max(1, params.max_udp_payload
               - MCAST_HEADER_BYTES - SEG_HEADER_BYTES)


def control_hop_us(params, trunk_hops: int = 0) -> float:
    """One control message (scout, report, ack) sender to receiver:
    send + receive software, NIC input, and the scout datagram's
    :func:`~repro.simnet.ip.datagram_wire_us` plus one
    :func:`~repro.simnet.ip.store_forward_us` for the edge switch and
    one per trunk hop — every derived deadline's price."""
    return (params.udp_send_us + params.udp_recv_us
            + params.per_frame_rx_us + datagram_wire_us(params, SCOUT_BYTES)
            + (1 + trunk_hops) * store_forward_us(params, SCOUT_BYTES))


def resolved_segment_bytes(params) -> int:
    """``NetParams.segment_bytes`` with ``"auto"`` resolved to the
    frame-sized segment — what every follower may assume about the
    stream it is about to drain."""
    seg = params.segment_bytes
    return frame_segment_bytes(params) if not isinstance(seg, int) else seg


def chunk_plan(plan: list[int], batch: int) -> list[list[int]]:
    """Group a round's segment indices into per-datagram batches.

    Both sides compute this identically from (plan, batch), so the
    receiver's descriptor count always equals the sender's datagram
    count.  Repair plans re-batch: scattered losses from different
    original batches pack together into fewer repair datagrams.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    return [plan[i:i + batch] for i in range(0, len(plan), batch)]


def repair_batch(params, nplan: int, base_batch: int) -> int:
    """Batch factor for a repair round whose plan has ``nplan`` segments.

    Under the fully-auto transport policy a repair plan that fits below
    the crossover ships as **one** batched datagram regardless of round
    0's chunking — scattered single-segment losses no longer pay one
    per-datagram software tax each.  An explicit integer
    ``segment_bytes`` pins the wire behaviour and is honoured unchanged.
    """
    if (not isinstance(params.segment_bytes, int)
            and 0 < nplan <= params.seg_auto_crossover):
        return nplan
    return base_batch


def round_drain_timeout_us(params, ndatagrams: int,
                           datagram_bytes: int,
                           trunk_hops: int = 0,
                           size: int = 1) -> float:
    """Adaptive drain timeout for one round of ``ndatagrams`` datagrams
    of ``datagram_bytes`` each: how long a follower's ring may sit on an
    empty descriptor before it reads the silence as a lost tail.

    Expected per-datagram cost = sender software + one link's
    :func:`~repro.simnet.ip.datagram_wire_us` + receiver drain
    software; the round's *flat expectation* is that times the round
    plus the ``seg_drain_floor_us`` scheduling-jitter margin, capped by
    ``seg_drain_timeout_us`` — but never below one datagram's (a 48 kB
    one is ~3.8 ms of wire).  The cap holds because the silence timer
    re-arms at every awaited empty descriptor, so only the gap to the
    *next* datagram must fit under it, never the whole round
    (``NetParams.seg_drain_timeout_us`` records what deleting it
    costs).  Two terms ride on top of the cap, both priced with the
    simulator's own frame arithmetic (:mod:`repro.simnet.ip`):

    ``trunk_hops`` — the store-and-forward devices on the path: the
    edge switch and each switch-to-switch hop on the farthest
    sender-receiver path (:mod:`repro.simnet.fabric`) hold each frame
    once more, and frames pipeline, so each adds one
    :func:`~repro.simnet.ip.store_forward_us` — one frame, not the
    whole datagram (a hub stores nothing: there the edge term is
    slack).  Without this a slow or deep fabric's leaf NACKs
    *before the data can physically arrive* and cancels the very
    descriptor the repair needs, livelocking the repair loop.

    ``size`` — the arming skew of a ``size``-rank group: every follower
    leaves a round's decision multicast at the same instant, a leaf
    starts its silence timer as soon as its arming scout is away, and
    the root streams only once the binomial gather has climbed its
    ``ceil(log2 size)`` levels, each one :func:`control_hop_us`.  A
    constant cannot stand in for this term: one sized for 8 ranks fires
    before the repair data arrives at 12 (docs/CHAOS.md).  The default
    prices no gather — one round's flat expectation, as the unit tests
    read it.
    """
    per = (params.udp_send_us + params.mcast_send_extra_us
           + datagram_wire_us(params, datagram_bytes)
           + params.udp_recv_us + params.mcast_recv_extra_us
           + params.per_frame_rx_us * params.frames_for(datagram_bytes))
    cap = max(params.seg_drain_timeout_us, params.seg_drain_floor_us + per)
    expected = max(1, ndatagrams) * per
    return (min(cap, params.seg_drain_floor_us + expected)
            + (1 + trunk_hops) * store_forward_us(params, datagram_bytes)
            + binary_tree_steps(size) * control_hop_us(params, trunk_hops))


def round_namespace(*key) -> tuple[Callable, Callable]:
    """Build the ``(arm_phase, rnd_token)`` pair namespacing one sender's
    repair loop.

    ``key`` distinguishes concurrent/consecutive streams on one channel
    (e.g. ``("ag", turn)`` for each allgather turn); the empty key is the
    broadcast's single stream.  ``arm_phase(rnd)`` names the scout phase
    arming round ``rnd``; ``rnd_token(rnd)`` tags that round's
    report/decision messages; the engine's header phase is round
    ``"hdr"`` of the same namespace.
    """
    if not key:
        return (lambda r: ("seg-arm", r), lambda r: r)

    def arm_phase(r, _key=key):
        return ("seg-arm",) + _key + (r,)

    def rnd_token(r, _key=key):
        return _key + (r,)

    return arm_phase, rnd_token


def reassemble(segments: list[Segment]) -> Any:
    """Rebuild the payload from a complete segment set (any order).

    This is the zero-copy pipeline's user boundary: the joined result
    is a fresh ``bytes`` object even when the chunks are ``memoryview``
    slices of the sender's buffer.
    """
    if not segments:
        raise ValueError("cannot reassemble zero segments")
    segs = sorted(segments, key=lambda s: s.index)
    nsegs = segs[0].nsegs
    if len(segs) != nsegs or [s.index for s in segs] != list(range(nsegs)):
        raise ValueError(
            f"incomplete segment set: have {[s.index for s in segs]} "
            f"of {nsegs}")
    if segs[0].opaque:
        return segs[0].chunk
    return b"".join([s.chunk for s in segs])


class Reassembler:
    """Collects segments by index, tolerating duplicates and tracking
    the missing bitmap the NACK reports are built from.

    ``needed`` restricts the receiver's interest to a subset of the
    stream (the scatter's per-rank addressing): only needed segments are
    stored and reported missing; the rest still count for round-end
    detection but are otherwise ignored.  ``needed=set()`` is a pure
    bystander.  The default (``None``) needs the whole stream.
    """

    def __init__(self, nsegs: int, needed: Optional[set] = None):
        if nsegs < 1:
            raise ValueError(f"nsegs must be >= 1, got {nsegs}")
        self.nsegs = nsegs
        if needed is None:
            self.needed = set(range(nsegs))
        else:
            self.needed = set(needed)
            if not self.needed.issubset(range(nsegs)):
                raise ValueError(f"needed {sorted(self.needed)} out of "
                                 f"range for a {nsegs}-segment stream")
        self.duplicates = 0
        self._got: dict[int, Segment] = {}

    def add(self, seg: Segment) -> bool:
        """Accept one segment; returns True iff it was stored."""
        if seg.nsegs != self.nsegs or not 0 <= seg.index < self.nsegs:
            raise ValueError(f"segment {seg.index}/{seg.nsegs} does not "
                             f"belong to a {self.nsegs}-segment payload")
        if seg.index not in self.needed:
            return False
        if seg.index in self._got:
            self.duplicates += 1
            return False
        self._got[seg.index] = seg
        return True

    @property
    def complete(self) -> bool:
        return self.needed <= self._got.keys()

    def missing(self) -> set[int]:
        return self.needed - self._got.keys()

    def segments(self) -> list[Segment]:
        """The stored segments, sorted by stream index."""
        return sorted(self._got.values(), key=lambda s: s.index)

    def result(self) -> Any:
        """Rebuild a *whole-stream* payload (``needed`` = everything)."""
        if not self.complete:
            raise ValueError(f"missing segments {sorted(self.missing())}")
        return reassemble(list(self._got.values()))


# ----------------------------------------------------------------------
# engine internals
# ----------------------------------------------------------------------
def _taker(server: int, seq, reasm: Reassembler,
           last_index: int) -> Callable:
    """The ring's ``take(dgram) -> done`` for one round of the
    ``(server, seq)`` stream: reassemble, and report whether
    ``last_index`` (the round plan's highest) arrived.  Anything else —
    a stale sequence, or a delayed segment of an earlier turn, whose
    indices a later turn reuses — wastes its descriptor; the segments
    it displaced are reported missing and repaired next round."""
    def take(dgram) -> bool:
        src, got_seq, payload = dgram.payload
        if got_seq != seq or src != server:
            return False
        if isinstance(payload, Segment):
            batch = (payload,)
        elif (isinstance(payload, tuple) and payload
                and isinstance(payload[0], Segment)):
            batch = payload
        else:
            return False
        done = False
        for seg in batch:
            reasm.add(seg)
            done = done or seg.index == last_index
        return done
    return take


def _consume_round(comm, ring, drain_us: float, rnd: int = 0) -> Generator:
    """Drain one round through ``ring`` (a
    :class:`~repro.simnet.udp.DescriptorRing` with a :func:`_taker`,
    posted before the arming scout): the rank resumes once per round.
    Datagrams stream in plan order over a FIFO wire, so the round ends
    the moment the plan's last index is taken and a descriptor still
    empty then is a lost datagram's — the NACK stays on the critical
    path; only a lost *tail* waits out ``drain_us`` of silence
    (:func:`round_drain_timeout_us`).  On every exit the ring is closed:
    a descriptor left behind would swallow a later collective's data.
    """
    try:
        if (yield ring.drain(drain_us)) is None:    # tail lost
            rec = comm.host.stats.recorder
            if rec is not None:
                rec.drain_timeout(comm.sim.now, comm.host.addr, rnd,
                                  ring.n - ring.taken)
    finally:
        ring.close()


# ----------------------------------------------------------------------
# the stream loop
# ----------------------------------------------------------------------
def stream_rounds(comm, channel, seq, root: int, arm_phase, rnd_token,
                  segments=None, batch: int = 1, counts=None,
                  needed: Optional[set] = None) -> Generator:
    """One engine stream, run by every rank of the group: the header
    handshake, then the NACK repair loop — arm, stream or drain, fold
    the reports, decide, repair — until the whole group reports
    complete.  Returns ``None`` at ``root``, a follower's
    :class:`Reassembler` elsewhere.

    ``root`` passes the full stream as ``segments`` (round 0's plan is
    all of it) and its ``batch`` factor; its header announces both —
    or, for a per-rank addressed stream (the scatter), the per-rank
    segment ``counts`` each follower derives its own ``needed`` slice
    from.  A follower learns the stream's shape from the header; it has
    posted nothing before, so a delayed or duplicated segment of an
    earlier stream dies at the posted-only data socket.  Each round it
    posts a ring of one descriptor per expected datagram — none once it
    has everything it needs (others may still need repairs; the repair
    frames die at its socket).  ``needed`` restricts a follower's
    interest to a stream subset (see :class:`Reassembler`);
    ``needed=set()`` is a pure bystander: it keeps lockstep, reads the
    header and reports at the stream's length, but posts no descriptor.
    ``arm_phase`` / ``rnd_token`` come from :func:`round_namespace`.

    The header and every decision each answer a gather
    (:func:`~repro.core.scout.answer`): the root's ONE control
    multicast.  A decision is the next round's segments, ``None`` for
    "done", or ``"abort"`` once ``max_repair_rounds`` is exhausted —
    told to the group before everyone raises :class:`McastLost`, so
    nobody arms a dead round.
    """
    params = comm.host.params
    rec = comm.host.stats.recorder
    addr = comm.host.addr
    serving = comm.rank == root
    role = "serve" if serving else "follow"
    hdr_phase = arm_phase("hdr")
    if rec is not None:
        rec.round_open(comm.sim.now, addr, f"{role}:seq{seq}:hdr", None)
    try:
        yield from scout_gather_binary(comm, channel, seq, root,
                                       phase=hdr_phase)
        nsegs, batch, counts = yield from answer(
            comm, channel, seq, root, hdr_phase,
            (len(segments), batch, counts) if serving else None,
            MCAST_HEADER_BYTES + SEG_HEADER_BYTES
            + (0 if counts is None else 4 * len(counts)), "mcast-seg-hdr")
    finally:
        if rec is not None:
            rec.round_close(comm.sim.now, addr, f"{role}:seq{seq}:hdr")
    reasm = None
    if not serving:
        if counts is not None:              # per-rank addressed: my slice
            start = sum(counts[:comm.rank])
            needed = set(range(start, start + counts[comm.rank]))
        reasm = Reassembler(nsegs, needed=needed)
        seg_bytes = resolved_segment_bytes(params)
    plan = list(range(nsegs))
    rnd = 0
    while True:
        rbatch = batch if rnd == 0 else repair_batch(params, len(plan),
                                                     batch)
        rtok = label = None
        if rec is not None:
            label = f"{role}:seq{seq}:r{rnd}"
            rtok = rec.round_begin(comm.sim.now, addr, role, seq, rnd,
                                   len(plan))
            rec.round_open(comm.sim.now, addr, label,
                           None if serving else reasm.missing)
        try:
            ring = None
            if not serving and not reasm.complete:
                ndatagrams = len(chunk_plan(plan, rbatch))
                ring = channel.data_sock.post_ring(
                    ndatagrams, _taker(root, seq, reasm, plan[-1]))
            yield from scout_gather_binary(comm, channel, seq, root,
                                           phase=arm_phase(rnd))
            if serving:
                for chunk in chunk_plan(plan, rbatch):
                    yield from channel.send_batch(
                        [segments[j] for j in chunk], seq,
                        retransmit=rnd > 0)
                missing = ()        # the root lacks nothing
            else:
                if ring is not None:
                    dgram_bytes = (min(rbatch, len(plan))
                                   * (seg_bytes + SEG_HEADER_BYTES)
                                   + MCAST_HEADER_BYTES)
                    drain_us = round_drain_timeout_us(
                        params, ndatagrams, dgram_bytes,
                        channel.trunk_hops, size=comm.size)
                    yield from _consume_round(comm, ring, drain_us, rnd)
                missing = reasm.missing()
                if rec is not None:
                    rec.nack_sent(comm.sim.now, addr, rnd,
                                  tuple(sorted(missing)))
            rkey = rnd_token(rnd)
            union = yield from report_fold_binary(
                comm, channel, seq, root, rkey, missing, nsegs)
            decision = None
            if serving:
                if union:
                    decision = ("abort" if rnd >= params.max_repair_rounds
                                else tuple(sorted(union)))
                if rec is not None:
                    rec.repair_decision(comm.sim.now, addr, rnd, decision)
            # ONE control multicast, sized as a scout plus the bitmap
            decision = yield from answer(
                comm, channel, seq, root, ("seg-dec", rkey),
                decision, SCOUT_BYTES + (nsegs + 7) // 8, "seg-dec")
            if rec is not None:
                rec.round_end(comm.sim.now, rtok, posted_hw=0 if serving
                              else channel.data_sock.posted_high_water)
        finally:
            if rec is not None:
                rec.round_close(comm.sim.now, addr, label)
        if decision is None:
            return reasm
        if decision == "abort":
            raise McastLost(comm.rank, seq, reason=(
                f"rank {comm.rank}: gave up after {rnd} repair rounds "
                f"for seq={seq}; still missing segments {sorted(union)}"
                if serving else
                f"rank {comm.rank}: root gave up repairing segmented "
                f"transfer seq={seq}; still missing "
                f"{sorted(reasm.missing())}"))
        rnd += 1
        plan = list(decision)
