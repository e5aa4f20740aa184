"""MPICH-style broadcast: the binomial tree of the paper's Fig. 2.

The root sends **separate copies** of the full message down a binomial
tree: with 7 processes, rank 0 sends to 4, 2, 1; rank 2 forwards to 3;
rank 4 forwards to 5 and 6.  Every edge carries the whole payload, so the
operation puts ``(floor(M/T)+1) * (N-1)`` frames on the network — the
baseline cost the multicast implementation attacks.
"""

from __future__ import annotations

from typing import Any, Generator

# The tree-shape helpers live in repro.core.binomial (the scout layer
# walks the same tree); re-exported here to keep the historical import
# path for callers and tests.
from ...core.binomial import binomial_children, binomial_parent
from .registry import register
from .tags import TAG_BCAST

__all__ = ["bcast_binomial", "binomial_children", "binomial_parent"]


@register("bcast", "p2p-binomial", "p2p")
def bcast_binomial(comm, obj: Any, root: int = 0) -> Generator:
    """``obj = yield from bcast_binomial(comm, obj, root)``."""
    size = comm.size
    if size == 1:
        return obj
    rank = comm.rank
    rel = (rank - root) % size

    if rel != 0:
        parent = (binomial_parent(rel) + root) % size
        obj = yield from comm._recv_coll(parent, TAG_BCAST)
    for child in binomial_children(rel, size):
        dst = (child + root) % size
        yield from comm._send_coll(obj, dst, TAG_BCAST)
    return obj
