"""Binomial-tree shape helpers shared by scouts and p2p collectives.

The binomial parent/children layout is pure arithmetic on relative
ranks — no traffic, no sockets — and both layers walk the same tree: the
MPICH-style p2p collectives (:mod:`repro.mpi.collective.bcast_p2p`,
:mod:`repro.mpi.collective.gather_p2p`) move payloads along its edges,
and the scout scatter (:mod:`repro.core.scout`) announces per-call
decisions down it.  It lives in ``core`` so the scout layer never has to
reach up into ``mpi.collective`` (the layering rule LAY01 enforces,
see ``docs/lint.md``); the historical import path
``repro.mpi.collective.bcast_p2p.binomial_children`` keeps working as a
re-export.  The frame model of the p2p collectives
(:func:`repro.analysis.framecount.model_p2p_frames`) walks the same tree
as its list of edges, :func:`binomial_edges`.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["binomial_parent", "binomial_children", "binomial_edges"]


def binomial_parent(rel: int) -> int:
    """Parent of relative rank ``rel`` in the binomial broadcast tree."""
    if rel == 0:
        raise ValueError("the root has no parent")
    mask = 1
    while not rel & mask:
        mask <<= 1
    return rel & ~mask


def binomial_children(rel: int, size: int) -> list[int]:
    """Children of relative rank ``rel``, in MPICH send order (big first)."""
    # The mask where `rel` received (its lowest set bit), halved downward.
    mask = 1
    while mask < size and not rel & mask:
        mask <<= 1
    mask >>= 1
    kids = []
    while mask > 0:
        child = rel + mask
        if child < size:
            kids.append(child)
        mask >>= 1
    return kids


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
