"""The prefix reductions: inclusive and exclusive scan.

Not part of the paper's experiments, but part of making ``repro.mpi`` a
library a downstream user can actually adopt.  Both follow the
MPICH-1.x playbook, a linear prefix chain down the ranks: ``scan``
returns at rank r the reduction of ranks ``0..r``; ``exscan`` is the
same chain shifted by one — rank 0 returns ``None`` (MPI leaves its
buffer undefined), rank r the reduction of ranks ``0..r-1``.
(``reduce_scatter``, reduce then scatter, is a composition of the
registry.)
"""

from __future__ import annotations

import copy
from typing import Any, Generator

from ..ops import Op
from .registry import register
from .tags import TAG_SCAN

__all__ = ["scan_linear", "exscan_linear"]

#: exscan rides its own tag in the collective context
TAG_EXSCAN = TAG_SCAN + 100


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


@register("exscan", "p2p-linear", "p2p")
def exscan_linear(comm, obj: Any, op: Op) -> Generator:
    """Exclusive prefix reduction (rank 0 gets ``None``)."""
    rank = comm.rank
    size = comm.size
    prefix = None
    if rank > 0:
        prefix = yield from comm._recv_coll(rank - 1, TAG_EXSCAN)
    if rank < size - 1:
        mine = (copy.copy(obj) if prefix is None
                else op(prefix, obj))
        yield from comm._send_coll(mine, rank + 1, TAG_EXSCAN)
    return prefix
