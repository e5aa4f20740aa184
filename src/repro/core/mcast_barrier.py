"""MPI_Barrier over IP multicast — the paper's §3.2.

The three MPICH phases collapse to one gather plus one multicast:

1. scouts reduce to rank 0 up the binary tree (``N-1`` point-to-point
   messages, ``ceil(log2 N)`` steps);
2. rank 0 releases everyone with a **single data-less multicast** —
   the gather's :func:`~repro.core.scout.answer`.

The release is a control message on the buffered scout port, beside
the round engine's decision: it needs no posted descriptor, so a late
data retransmission of an earlier collective cannot take its place.
Message count: ``N-1`` unicasts + 1 multicast, versus MPICH's ``2(N-K)
+ K log2 K`` (both closed forms live in :mod:`repro.analysis.framecount`).
"""

from __future__ import annotations

from typing import Generator

from ..mpi.collective.registry import register
from .scout import answer, scout_gather_binary

__all__ = ["barrier_mcast"]


@register("barrier", "mcast", "mcast-barrier")
def barrier_mcast(comm) -> Generator:
    """``yield from barrier_mcast(comm)``: the scout gather to rank 0,
    then its release."""
    channel = comm.mcast
    seq = channel.next_seq()
    if comm.size > 1:
        yield from scout_gather_binary(comm, channel, seq, 0)
        yield from answer(comm, channel, seq, 0, "release",
                          kind="mcast-release")
