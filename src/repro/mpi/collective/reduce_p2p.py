"""Binomial-tree reduce and a linear scan — the MPICH 1.x algorithm
family (its allreduce, reduce then broadcast, is a composition of the
registry).

Combination order: the accumulator always holds the reduction of a
*contiguous ascending* rank range, and incoming subtree results are always
appended on the right (``acc = op(acc, incoming)``), so non-commutative
(but associative) operators see operands in rank order, as MPI requires.
A tree rooted at a nonzero rank walks *root-relative* ranks, which
rotates that order — legal only for commutative operators (MPI allows
reordering exactly then).  Non-commutative reductions at a nonzero root
therefore run the tree rooted at rank 0 (canonical absolute order, like
MPICH) and forward the result to the real root with one extra message.
"""

from __future__ import annotations

import copy
from typing import Any, Generator

from ..ops import Op
from .registry import register
from .tags import TAG_REDUCE, TAG_SCAN

__all__ = ["reduce_binomial", "scan_linear"]


@register("reduce", "p2p-binomial", "p2p")
def reduce_binomial(comm, obj: Any, op: Op, root: int = 0) -> Generator:
    """``result = yield from reduce_binomial(comm, obj, op, root)``.

    Returns the reduction at ``root``; ``None`` elsewhere.
    """
    size = comm.size
    rank = comm.rank
    if size == 1:
        return copy.copy(obj)
    # Root-relative ranks rotate the fold sequence; keep the tree rooted
    # at rank 0 for non-commutative ops so operands combine in canonical
    # absolute-rank order, then forward to the real root.
    eff_root = root if getattr(op, "commutative", True) else 0
    rel = (rank - eff_root) % size

    acc = obj
    mask = 1
    while mask < size:
        if rel & mask:
            dst = ((rel & ~mask) + eff_root) % size
            yield from comm._send_coll(acc, dst, TAG_REDUCE)
            break
        src_rel = rel | mask
        if src_rel < size:
            incoming = yield from comm._recv_coll(
                (src_rel + eff_root) % size, TAG_REDUCE)
            acc = op(acc, incoming)
        mask <<= 1

    if eff_root != root:
        if rank == eff_root:
            yield from comm._send_coll(acc, root, TAG_REDUCE)
            return None
        if rank == root:
            result = yield from comm._recv_coll(eff_root, TAG_REDUCE)
            return result
        return None
    return acc if rel == 0 else None


@register("scan", "p2p-linear", "p2p")
def scan_linear(comm, obj: Any, op: Op) -> Generator:
    """Inclusive prefix reduction along the rank chain."""
    rank = comm.rank
    size = comm.size
    result = copy.copy(obj)
    if rank > 0:
        prefix = yield from comm._recv_coll(rank - 1, TAG_SCAN)
        result = op(prefix, obj)
    if rank < size - 1:
        yield from comm._send_coll(result, rank + 1, TAG_SCAN)
    return result
