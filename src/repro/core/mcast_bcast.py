"""MPI_Bcast over IP multicast — the paper's §3.1.

Three registered implementations:

* ``mcast-binary`` — scout sync up a binary tree, then **one** multicast
  of the payload.  Total frames: ``(N-1) + floor(M/T) + 1``;
* ``mcast-linear`` — scout sync with all receivers hitting the root
  directly, then one multicast.  Same frame count, more sequential steps
  at the root;
* ``mcast-ack`` — the PVM approach the paper cites ([2], Dunigan & Hall):
  multicast immediately, collect per-receiver acks, retransmit the whole
  payload on timeout until everyone acked.  Reliable, but the paper notes
  it "did not produce improvement in performance" — its N-1 acks are the
  scout gather moved behind the multicast, and a loss costs a whole
  payload.  The
  ``ablation_reliability`` postcondition of the ``paper-figures`` sweep
  area (:mod:`repro.bench.paper_figures`) reproduces that verdict.

A fourth implementation, ``mcast-seg-nack`` (:mod:`repro.core.segment`),
addresses exactly the weakness that sinks ``mcast-ack`` at large
payloads: it fragments the payload into single-frame segments sized by
``NetParams.segment_bytes``, streams them back-to-back, and repairs
losses with selective per-segment NACK retransmission instead of
re-multicasting everything.  Loss-free it costs
``2 + 3(N-1) + ceil(M / segment_bytes)`` frames (the header and
decision control multicasts, two scout gathers and the report fold,
one frame per segment — the full formula,
including repair rounds, is derived in the segment module's docstring
and exported as :func:`repro.core.segment.seg_nack_frame_count`).

Invariant shared by binary/linear (the paradigm-mismatch fix): every
receiver **posts its multicast receive before releasing its scout**, so
by the time the root has gathered all scouts, a multicast cannot find an
unready receiver.  Without it a late receiver loses the message for good
(the unreliability of the paper's §2), which ``mcast-ack`` only repairs
after the fact.
"""

from __future__ import annotations

from typing import Any, Generator

from ..mpi.collective.registry import register
from ..mpi.datatypes import payload_bytes
from .channel import MCAST_HEADER_BYTES
from .rounds import McastLost, control_hop_us, round_drain_timeout_us
from .scout import scout_gather_binary, scout_gather_linear

__all__ = ["bcast_mcast_binary", "bcast_mcast_linear", "bcast_mcast_ack",
           "bcast_acked", "scouted_mcast", "McastLost"]


def scouted_mcast(comm, obj: Any, root: int, gather) -> Generator:
    """The paper's skeleton: scout sync toward ``root``, then ONE
    multicast of ``obj``.  A receiver's descriptor is posted for
    ``(root, seq)``: an *earlier* sequence in it (a reliable sender's
    late resend) raises :class:`McastLost`, anything else is unsafe MPI
    code."""
    channel = comm.mcast
    seq = channel.next_seq()
    if comm.size == 1:
        return obj
    if comm.rank == root:
        yield from gather(comm, channel, seq, root)
        yield from channel.send_data(obj, payload_bytes(obj), seq)
        return obj
    got = []
    ring = channel.data_sock.post_ring(1, got.append)  # BEFORE the scout
    try:
        yield from gather(comm, channel, seq, root)
        yield ring.drain(None)
    finally:
        ring.close()
    src, got_seq, data = got[0].payload
    if got_seq == seq and src == root:
        return data
    what = (f"rank {comm.rank} posted for (root={root}, seq={seq}) "
            f"and got (root={src}, seq={got_seq})")
    if got_seq < seq:
        raise McastLost(comm.rank, seq,
                        reason=f"{what}: a stale copy took the descriptor")
    raise AssertionError(f"{what} — unsafe MPI code?")


@register("bcast", "mcast-binary", "mcast-bcast")
def bcast_mcast_binary(comm, obj: Any, root: int = 0) -> Generator:
    """Binary-tree scout sync + single IP multicast (paper Fig. 3)."""
    return scouted_mcast(comm, obj, root, scout_gather_binary)


@register("bcast", "mcast-linear", "mcast-bcast")
def bcast_mcast_linear(comm, obj: Any, root: int = 0) -> Generator:
    """Linear scout sync + single IP multicast (paper Fig. 4)."""
    return scouted_mcast(comm, obj, root, scout_gather_linear)


def bcast_acked(comm, obj: Any, server: int) -> Generator:
    """Sender-reliable multicast of ``obj`` from ``server``: multicast,
    wait one datagram's drain deadline plus one ack hop and N-2 serial
    ack arrivals at the server (``LatencyModel.mcast_bcast``'s linear
    rule: the acks pipeline on the wire, only the server's receive
    path serializes them) for every receiver's ack, re-multicast the
    **full payload** while any is missing (``max_repair_rounds`` times
    at most).  A receiver keeps posting until its ``(seq, server)``
    copy arrives — stale retransmissions are discarded — then acks."""
    channel = comm.mcast
    seq = channel.next_seq()
    if comm.size == 1:
        return obj
    if comm.rank != server:
        got = []

        def take(dgram) -> bool:
            src, got_seq, data = dgram.payload
            if got_seq == seq and src == server:
                got.append(data)
                return True
            ring.post()                 # a stale resend: post again
            return False

        ring = channel.data_sock.post_ring(1, take)
        try:
            yield ring.drain(None)
        finally:
            ring.close()
        yield from channel.send_ctrl(server, seq, "ack")
        return got[0]
    params = comm.host.params
    nbytes = payload_bytes(obj)
    hops = channel.trunk_hops
    deadline_us = (round_drain_timeout_us(params, 1, nbytes
                                          + MCAST_HEADER_BYTES, hops)
                   + control_hop_us(params, hops)
                   + (comm.size - 2) * (params.udp_recv_us
                                        + params.per_frame_rx_us))
    yield from channel.send_data(obj, nbytes, seq)
    missing = set(range(comm.size)) - {server}
    retransmits = 0
    while True:
        acks = yield from channel.wait_ctrl(
            missing, seq, "ack", timeout_us=deadline_us)
        missing -= acks.keys()
        if not missing:
            return obj
        if retransmits == params.max_repair_rounds:
            raise McastLost(comm.rank, seq, reason=(
                f"rank {server}: gave up after {retransmits} retransmits "
                f"of bcast seq={seq}; no ack from ranks {sorted(missing)}"))
        retransmits += 1
        yield from channel.send_data(obj, nbytes, seq, retransmit=True)


@register("bcast", "mcast-ack",
          "estimate: its retransmit count depends on timing (a receiver "
          "that posts after the unscouted first copy costs a resend)")
def bcast_mcast_ack(comm, obj: Any, root: int = 0) -> Generator:
    """PVM-style sender-reliable multicast: ack + retransmit (paper [2])."""
    return bcast_acked(comm, obj, root)
