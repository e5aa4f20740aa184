"""Binomial gather and scatter (MPICH 1.x's allgather, gather then
broadcast, is a composition of the registry).

Gather walks the same binomial tree as reduce, but accumulates a
:class:`~repro.mpi.datatypes.Bundle` (``{rank: object}``) instead of
combining values, so the root can return a correctly ordered list.
Scatter walks the broadcast tree top-down, peeling off each subtree's
bundle (only the subtree's share rides each edge, like MPICH's minimal
scatter).  A child's subtree is the contiguous relative-rank range
below it (:func:`~repro.core.binomial.binomial_edges`), and a bundle is
sized as its elements plus a length prefix each — the format
``hier-mcast``'s forwards ship, which the frame model prices exactly.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from ..datatypes import Bundle
from .bcast_p2p import binomial_children, binomial_parent
from .registry import register
from .tags import TAG_GATHER, TAG_SCATTER

__all__ = ["gather_binomial", "scatter_binomial"]


@register("gather", "p2p-binomial", "p2p")
def gather_binomial(comm, obj: Any, root: int = 0) -> Generator:
    """Returns the rank-ordered list at ``root``; ``None`` elsewhere."""
    size = comm.size
    rank = comm.rank
    if size == 1:
        return [obj]
    rel = (rank - root) % size

    collected = Bundle({rank: obj})
    # Children in the *reduce* direction: receive each child subtree.
    mask = 1
    while mask < size:
        if rel & mask:
            dst = ((rel & ~mask) + root) % size
            yield from comm._send_coll(collected, dst, TAG_GATHER)
            return None
        src_rel = rel | mask
        if src_rel < size:
            part = yield from comm._recv_coll((src_rel + root) % size,
                                              TAG_GATHER)
            collected.update(part)
        mask <<= 1

    # ``collected`` is keyed by absolute rank; return in rank order.
    return [collected[r] for r in range(size)]


@register("scatter", "p2p-binomial", "p2p")
def scatter_binomial(comm, objs: Optional[Sequence[Any]],
                     root: int = 0) -> Generator:
    """Returns this rank's element of the root's sequence."""
    size = comm.size
    rank = comm.rank
    if size == 1:
        if objs is None or len(objs) != 1:
            raise ValueError("scatter at root needs exactly size elements")
        return objs[0]
    rel = (rank - root) % size

    if rel == 0:
        if objs is None or len(objs) != size:
            raise ValueError(
                f"scatter root needs exactly {size} elements, "
                f"got {None if objs is None else len(objs)}")
        held = Bundle((r, objs[(r + root) % size]) for r in range(size))
    else:
        parent = (binomial_parent(rel) + root) % size
        held = yield from comm._recv_coll(parent, TAG_SCATTER)

    for child in binomial_children(rel, size):
        # the child's subtree: ``child - rel`` ranks from it on
        part = Bundle((r, held[r])
                      for r in range(child, min(2 * child - rel, size)))
        yield from comm._send_coll(part, (child + root) % size, TAG_SCATTER)

    return held[rel]

