"""The binomial tree: MPICH's broadcast tree (the paper's Fig. 2) and
the tree its binary scouts climb (Fig. 3).

The layout is pure arithmetic on root-relative ranks — no traffic, no
sockets — and every walker reads it here: the MPICH-style p2p
collectives (:mod:`repro.mpi.collective.tree_p2p`) move payloads along
its edges, the scouts and the NACK report fold
(:mod:`repro.core.scout`) climb and descend it, the latency model
schedules its sends and the frame models
(:mod:`repro.analysis.framecount`) price it.  It lives in ``core`` so
the scout layer never has to reach up into ``mpi.collective`` (the
layering rule LAY01 enforces, see ``docs/lint.md``).

:func:`binomial_edges` is the whole tree; :func:`binomial_walk` is its
restriction to one rank — the messages that rank sends and receives, in
the order it issues them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

__all__ = ["binomial_edges", "binomial_walk"]


def binomial_edges(size: int) -> Iterator[tuple[int, int, range]]:
    """Every edge of the tree as ``(parent, child, cover)`` in relative
    ranks, level by level: a child joins at the mask of its lowest set
    bit, and its subtree — the ranks whose message rides that edge — is
    the contiguous ``cover = range(child, min(child + mask, size))``."""
    mask = 1
    while mask < size:
        for parent in range(0, size - mask, 2 * mask):
            child = parent + mask
            yield parent, child, range(child, min(child + mask, size))
        mask <<= 1


@lru_cache(maxsize=4096)
def binomial_walk(size: int, root: int, rank: int,
                  down: bool) -> tuple[tuple[int, int, range], ...]:
    """The edges of :func:`binomial_edges` (rooted at ``root``) that
    touch ``rank``, as the messages ``(src, dst, cover)`` it issues, in
    order: ``src`` / ``dst`` are absolute ranks, ``cover`` the relative
    ranks of the edge's child subtree.  ``down`` (bcast, scatter):
    receive from the parent, then send to the children biggest subtree
    first.  Up (reduce, gather, the scouts): receive from the children
    smallest subtree first, then send to the parent."""
    rel = (rank - root) % size
    up, mask = [], 1                # its edges, level by level
    while mask < size and not rel & mask:
        if rel + mask < size:       # a child per level below rel's low bit
            up.append((rel, rel + mask,
                       range(rel + mask, min(rel + 2 * mask, size))))
        mask <<= 1
    if rel:                         # the parent clears that bit
        up.append((rel - mask, rel, range(rel, min(rel + mask, size))))
    if down:
        return tuple(((parent + root) % size, (child + root) % size, cover)
                     for parent, child, cover in reversed(up))
    return tuple(((child + root) % size, (parent + root) % size, cover)
                 for parent, child, cover in up)
