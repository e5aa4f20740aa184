"""Pairwise-exchange all-to-all (MPICH's classic N-1 round schedule).

Round ``i`` (1 ≤ i < N): rank ``r`` sends its slice for ``(r+i) mod N``
while receiving from ``(r-i) mod N``.  The sendrecv pairing keeps every
round contention-balanced and deadlock-free.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from .registry import register
from .tags import TAG_ALLTOALL

__all__ = ["alltoall_pairwise"]


@register("alltoall", "p2p-pairwise", "p2p")
def alltoall_pairwise(comm, objs: Sequence[Any]) -> Generator:
    """``mine = yield from alltoall_pairwise(comm, per_dest_list)``."""
    size = comm.size
    rank = comm.rank
    if objs is None or len(objs) != size:
        raise ValueError(
            f"alltoall needs exactly {size} elements, "
            f"got {None if objs is None else len(objs)}")
    result: list[Any] = [None] * size
    result[rank] = objs[rank]
    for i in range(1, size):
        dst = (rank + i) % size
        src = (rank - i) % size
        incoming = yield from comm._sendrecv_coll(
            objs[dst], dst, TAG_ALLTOALL, src=src)
        result[src] = incoming
    return result
