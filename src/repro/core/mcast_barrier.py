"""MPI_Barrier over IP multicast — the paper's §3.2.

The three MPICH phases collapse to one gather plus one multicast:

1. scouts reduce to rank 0 up the binary tree (``N-1`` point-to-point
   messages, ``ceil(log2 N)`` steps);
2. rank 0 releases everyone with a **single data-less multicast**.

Every rank posts its release receive *before* sending its scout up, so
the release multicast cannot outrun a receiver — the same invariant as
the broadcast.  Message count: ``N-1`` unicasts + 1 multicast, versus
MPICH's ``2(N-K) + K log2 K`` (both closed forms live in
:mod:`repro.analysis.framecount`).
"""

from __future__ import annotations

from typing import Generator

from ..mpi.collective.registry import register
from .mcast_bcast import scouted_mcast
from .scout import scout_gather_binary

__all__ = ["barrier_mcast"]


@register("barrier", "mcast")
def barrier_mcast(comm) -> Generator:
    """``yield from barrier_mcast(comm)``: the scouted broadcast of
    nothing from rank 0."""
    return scouted_mcast(comm, None, 0, scout_gather_binary, release=True)
