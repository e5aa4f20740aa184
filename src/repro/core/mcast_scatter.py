"""Scatter over the segmented multicast round engine.

``scatter`` **"mcast-seg-root"**: the root fragments every rank's
element, renumbers the fragments into **one global segment stream**
(per-rank-addressed by index range), and streams the whole thing in a
single paced burst through :func:`~repro.core.rounds.serve_rounds` —
one arm gather, one pipelined stream, one report/decision round,
instead of MPICH's per-subtree store-and-forward hops.

The tiny header multicast carries the per-rank segment *counts*; each
receiver derives its own index range and follows the stream with
``needed=range(start, start+count)``
(:func:`~repro.core.rounds.follow_rounds`): it posts descriptors for the
whole round (multicast delivers every datagram to everyone), but
reassembles and NACK-reports only its own slice — a segment lost on the
way to rank r is repaired only if *r* needs it, so repair cost tracks
real damage, per-rank.  The root's own element never touches the wire.

Against the binomial p2p scatter (whose edges re-forward whole subtree
shares, ~``log2(N)/2`` copies of the payload), the multicast stream puts
each byte on the wire exactly once — the win grows with the process
count, at the price of every receiver paying the receive tax for the
full stream (the classic multicast-scatter trade; the payload-aware
``"auto"`` policy in :mod:`repro.mpi.collective.policy` picks the
winner per call).
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from ..mpi.collective.registry import register
from .rounds import (Segment, follow_rounds, resolved_segment_bytes,
                     round_namespace, serve_rounds)
from .segment import auto_batch, fragment

__all__ = ["scatter_mcast_seg_root"]


@register("scatter", "mcast-seg-root")
def scatter_mcast_seg_root(comm, objs: Optional[Sequence[Any]],
                           root: int = 0) -> Generator:
    """Returns this rank's element of the root's sequence."""
    channel = comm.mcast
    params = comm.host.params
    seq = channel.next_seq()
    size = comm.size
    if size == 1:
        if objs is None or len(objs) != 1:
            raise ValueError("scatter at root needs exactly size elements")
        return objs[0]
    arm_phase, rnd_token = round_namespace("sc")

    if comm.rank == root:
        if objs is None or len(objs) != size:
            raise ValueError(
                f"scatter root needs exactly {size} elements, "
                f"got {None if objs is None else len(objs)}")
        seg_bytes = resolved_segment_bytes(params)
        counts = []
        flat: list[Segment] = []
        for r in range(size):
            if r == root:
                counts.append(0)
                continue
            frag = fragment(objs[r], seg_bytes)
            counts.append(len(frag))
            flat.extend(frag)
        nsegs = len(flat)
        # Renumber the per-rank fragments into one global stream; each
        # receiver's slice is the contiguous index range its count spans.
        segments = [Segment(i, nsegs, s.nbytes, s.chunk, s.opaque)
                    for i, s in enumerate(flat)]
        yield from serve_rounds(comm, channel, seq, root, segments,
                                auto_batch(params, nsegs), arm_phase,
                                rnd_token, counts=tuple(counts))
        return objs[root]

    reasm = yield from follow_rounds(comm, channel, seq, root, arm_phase,
                                     rnd_token)
    mine = reasm.segments()
    if mine and mine[0].opaque:
        return mine[0].chunk
    return b"".join(s.chunk for s in mine)
