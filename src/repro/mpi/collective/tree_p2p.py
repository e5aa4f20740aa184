"""MPICH's binomial-tree collectives: bcast, scatter, gather and reduce.

Each body is one walk of :func:`~repro.core.binomial.binomial_walk` —
this rank's messages of the tree rooted at ``root``, in issue order —
moving one value along it (MPICH 1.x's allreduce and allgather compose
these through the registry):

* **bcast** (the paper's Fig. 2) walks down and passes the value on:
  with 7 processes, rank 0 sends to 4, 2, 1; rank 2 forwards to 3;
  rank 4 to 6 and 5.  Every edge carries a **separate copy** of the
  whole payload, so the operation puts ``(floor(M/T)+1) * (N-1)``
  frames on the network — the baseline cost the multicast
  implementation attacks;
* **scatter** walks down and sends each edge only its child subtree's
  share (the edge's ``cover``), like MPICH's minimal scatter;
* **gather** walks up joining the subtrees' shares, so the root can
  return a correctly ordered list;
* **reduce** walks up folding with ``op``.

Scatter and gather ship a :class:`~repro.mpi.datatypes.Bundle`
(``{relative or absolute rank: object}``), sized as its elements plus a
length prefix each — the format ``hier-mcast``'s forwards ship, which
the frame model prices exactly.

Reduction order: the accumulator always holds the reduction of a
*contiguous ascending* rank range, and incoming subtree results are
appended on the right (``acc = op(acc, incoming)``), so non-commutative
(but associative) operators see operands in rank order, as MPI
requires.  A tree rooted at a nonzero rank walks *root-relative* ranks,
which rotates that order — legal only for commutative operators.
Non-commutative reductions at a nonzero root therefore run the tree
rooted at rank 0 (canonical absolute order, like MPICH) and forward the
result to the real root with one extra message.
"""

from __future__ import annotations

import copy
from typing import Any, Generator, Optional, Sequence

from ...core.binomial import binomial_walk
from ..datatypes import Bundle
from ..ops import Op
from .registry import register
from .tags import TAG_BCAST, TAG_GATHER, TAG_REDUCE, TAG_SCATTER

__all__ = ["bcast_binomial", "scatter_binomial", "gather_binomial",
           "reduce_binomial"]


@register("bcast", "p2p-binomial", "p2p")
def bcast_binomial(comm, obj: Any, root: int = 0) -> Generator:
    """``obj = yield from bcast_binomial(comm, obj, root)``."""
    rank = comm.rank
    for src, dst, _cover in binomial_walk(comm.size, root, rank, True):
        if dst == rank:
            obj = yield from comm._recv_coll(src, TAG_BCAST)
        else:
            yield from comm._send_coll(obj, dst, TAG_BCAST)
    return obj


@register("scatter", "p2p-binomial", "p2p")
def scatter_binomial(comm, objs: Optional[Sequence[Any]],
                     root: int = 0) -> Generator:
    """Returns this rank's element of the root's sequence."""
    size = comm.size
    rank = comm.rank
    if rank == root:
        if objs is None or len(objs) != size:
            raise ValueError(
                f"scatter root needs exactly {size} elements, "
                f"got {None if objs is None else len(objs)}")
        # keyed by relative rank, the keys of every edge's cover
        held = Bundle((r, objs[(r + root) % size]) for r in range(size))
    for src, dst, cover in binomial_walk(size, root, rank, True):
        if dst == rank:
            held = yield from comm._recv_coll(src, TAG_SCATTER)
        else:
            yield from comm._send_coll(Bundle((r, held[r]) for r in cover),
                                       dst, TAG_SCATTER)
    return held[(rank - root) % size]


@register("gather", "p2p-binomial", "p2p")
def gather_binomial(comm, obj: Any, root: int = 0) -> Generator:
    """Returns the rank-ordered list at ``root``; ``None`` elsewhere."""
    size = comm.size
    rank = comm.rank
    collected = Bundle({rank: obj})
    for src, dst, _cover in binomial_walk(size, root, rank, False):
        if dst == rank:
            collected.update((yield from comm._recv_coll(src, TAG_GATHER)))
        else:
            yield from comm._send_coll(collected, dst, TAG_GATHER)
            return None
    # ``collected`` is keyed by absolute rank; return in rank order.
    return [collected[r] for r in range(size)]


@register("reduce", "p2p-binomial", "p2p")
def reduce_binomial(comm, obj: Any, op: Op, root: int = 0) -> Generator:
    """``result = yield from reduce_binomial(comm, obj, op, root)``.

    Returns the reduction at ``root``; ``None`` elsewhere.
    """
    size = comm.size
    rank = comm.rank
    # Root-relative ranks rotate the fold sequence; keep the tree rooted
    # at rank 0 for non-commutative ops so operands combine in canonical
    # absolute-rank order, then forward to the real root.
    top = root if getattr(op, "commutative", True) else 0
    acc = obj if size > 1 else copy.copy(obj)
    for src, dst, _cover in binomial_walk(size, top, rank, False):
        if dst == rank:
            acc = op(acc, (yield from comm._recv_coll(src, TAG_REDUCE)))
        else:
            yield from comm._send_coll(acc, dst, TAG_REDUCE)
    if top != root and rank == top:
        yield from comm._send_coll(acc, root, TAG_REDUCE)
    elif top != root and rank == root:
        acc = yield from comm._recv_coll(top, TAG_REDUCE)
    return acc if rank == root else None
