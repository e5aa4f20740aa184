"""Many-to-many collectives over IP multicast — the paper's future work.

§5 of the paper: "While we have not observed buffer overflow due to a
set of fast senders overrunning a single receiver, it is possible this
may occur in many-to-many communications and needs to be examined
further."  This module examines it.

An **allgather** over multicast lets every rank contribute one payload
and receive everyone else's — N multicasts total instead of MPICH's
gather-plus-broadcast trees.  This module holds the hazard; the cure is
registered elsewhere:

* :func:`allgather_mcast_unpaced` (deliberately *not* registered): after
  a scout-synchronized "all ready" round every rank multicasts at once.
  Receivers holding fewer than N-1 posted descriptors can be overrun —
  exactly the buffer-overflow scenario the paper worried about.  The
  function reports per-rank losses instead of hanging, and the
  ``overrun`` family of the ``paper-figures`` sweep area
  (:mod:`repro.bench.paper_figures`) sweeps the descriptor budget to
  chart the overrun boundary.
* ``mcast-seg-paced`` (:mod:`repro.core.segment`, the ``exchange`` row of
  its stream schedule): ranks multicast strictly **in rank order**, each
  turn's payload fragmented and streamed with the broadcast's selective
  NACK repair, its header gather standing in for the ready round —
  pacing turns the many-to-many hazard back into the paper's one-to-many
  case, and an overrun or induced loss is repaired by the rank that owns
  the data.  The ``paced`` family measures it beside ``overrun``.
"""

from __future__ import annotations

from typing import Any, Generator

from ..mpi.datatypes import payload_bytes
from .scout import scout_gather_binary

__all__ = ["allgather_mcast_unpaced"]


def _ready_round(comm, channel, seq: int) -> Generator:
    """Scout-sync "everyone has posted" round at rank 0: the barrier's
    gather, but released by N-1 unicast ``ag-go`` messages in rank
    order instead of the barrier's one multicast answer.  The senders
    leave the round staggered by one control hop each, and that
    stagger is what the ``overrun`` paper figure measures."""
    yield from scout_gather_binary(comm, channel, seq, 0, phase="ag-ready")
    if comm.rank == 0:
        for dst in range(1, comm.size):
            yield from channel.send_ctrl(dst, seq, "ag-go")
    else:
        yield from channel.wait_ctrl({0}, seq, "ag-go")


def allgather_mcast_unpaced(comm, obj: Any,
                            descriptors: int) -> Generator:
    """All ranks multicast simultaneously; ``descriptors`` receives are
    pre-posted.  Returns ``(results, lost)`` where ``lost`` counts the
    contributions this rank missed (``results`` holds ``None`` there).

    This is the overrun experiment, not a correct collective: with
    ``descriptors < N-1`` a receiver *will* drop whatever arrives while
    it has no free descriptor (paper §5's buffer-overflow worry).  The
    function re-posts as fast as it can consume, so losses measure the
    burst the receiver could not absorb, then uses a timeout to detect
    what never came.
    """
    if descriptors < 1:
        raise ValueError(f"need at least one descriptor, got "
                         f"{descriptors}")
    channel = comm.mcast
    seq = channel.next_seq()
    size = comm.size
    if size == 1:
        return [obj], 0

    results: list[Any] = [None] * size
    results[comm.rank] = obj
    expected = size - 1
    received = 0

    def take(dgram) -> bool:
        nonlocal received
        _src, got_seq, payload = dgram.payload
        if got_seq == seq:
            tag, data = payload
            if results[tag] is None:
                results[tag] = data
                received += 1
        if received + ring.n - ring.taken < expected:
            ring.post()
        return received == expected

    # Pre-post the descriptor budget (VIA-style receive descriptors).
    ring = channel.data_sock.post_ring(min(descriptors, expected), take)
    try:
        yield from _ready_round(comm, channel, seq)
        # Everyone fires at once.
        yield from channel.send_data((comm.rank, obj), payload_bytes(obj),
                                     seq)
        yield ring.drain(50_000.0)  # several worst-case serializations
    finally:
        # A descriptor left posted would swallow the next collective's
        # multicast payload on this channel and hang it.
        ring.close()
    return results, expected - received
