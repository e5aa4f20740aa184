"""MPICH-style barrier: the three-phase algorithm of the paper's §3.2.

With ``N`` processes and ``K`` the largest power of two ≤ ``N``:

1. **fold-in** — ranks ``K..N-1`` send to ``rank - K``;
2. **pairwise exchange** — ranks ``0..K-1`` run ``log2 K`` rounds of
   sendrecv with partner ``rank XOR mask``;
3. **release** — ranks ``0..N-K-1`` send to ``rank + K``.

Total messages: ``2*(N-K) + K*log2(K)`` — the count the paper quotes
(:func:`repro.analysis.framecount.paper_mpich_barrier_messages`).
"""

from __future__ import annotations

from typing import Generator

from .registry import register
from .tags import TAG_BARRIER_EXCH, TAG_BARRIER_IN, TAG_BARRIER_OUT

__all__ = ["barrier_mpich", "largest_power_of_two_leq"]

#: payload of a synchronization-only message (bytes on the wire)
SYNC_PAYLOAD_BYTES = 0


def largest_power_of_two_leq(n: int) -> int:
    """Largest power of two ≤ n (the paper's K)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << (n.bit_length() - 1)


@register("barrier", "p2p-mpich", "mpich-barrier")
def barrier_mpich(comm) -> Generator:
    """``yield from barrier_mpich(comm)``."""
    size = comm.size
    if size == 1:
        return None
    rank = comm.rank
    k = largest_power_of_two_leq(size)

    if rank >= k:
        # Phase 1 + 3 from the outsider's perspective: notify the partner
        # inside the power-of-two set, then wait for release.
        yield from comm._send_coll(None, rank - k, TAG_BARRIER_IN,
                                   nbytes=SYNC_PAYLOAD_BYTES)
        yield from comm._recv_coll(rank - k, TAG_BARRIER_OUT)
        return None

    if rank < size - k:
        # Phase 1: absorb the outsider's notification.
        yield from comm._recv_coll(rank + k, TAG_BARRIER_IN)

    # Phase 2: dimension-by-dimension pairwise exchange inside the
    # power-of-two set.
    mask = 1
    while mask < k:
        partner = rank ^ mask
        yield from comm._sendrecv_coll(None, partner, TAG_BARRIER_EXCH,
                                       nbytes=SYNC_PAYLOAD_BYTES)
        mask <<= 1

    if rank < size - k:
        # Phase 3: release the outsider.
        yield from comm._send_coll(None, rank + k, TAG_BARRIER_OUT,
                                   nbytes=SYNC_PAYLOAD_BYTES)
    return None
