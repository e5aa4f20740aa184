"""Sequencer-ordered reliable multicast (Orca-style extension).

The paper's related-work section cites the Orca project's broadcast [8],
which funnels every broadcast through a fixed **sequencer** node to get a
total order.  This module implements that design as an optional fifth
bcast variant, ``mcast-sequencer``, for the ablation study:

1. the root forwards the payload to the sequencer (rank 0) over reliable
   point-to-point (skipped when the root *is* the sequencer);
2. the sequencer stamps the channel sequence number and multicasts;
3. receivers ack the sequencer; the sequencer retransmits on timeout
   (same machinery as ``mcast-ack``).

Compared to scout synchronization this trades the pre-send gather for a
post-send ack implosion at the sequencer plus an extra payload hop for
non-sequencer roots — measurably worse for one-shot broadcasts, but it
gives a *total order* across concurrent roots without requiring safe
code, which the scout algorithms cannot.
"""

from __future__ import annotations

from typing import Any, Generator

from ..mpi.collective.registry import register
from ..mpi.collective.tags import TAG_BCAST
from .mcast_bcast import bcast_acked

__all__ = ["bcast_mcast_sequencer", "SEQUENCER_RANK"]

#: the fixed sequencer (rank 0 of the communicator)
SEQUENCER_RANK = 0


@register("bcast", "mcast-sequencer",
          "estimate: its ack / retransmit tail depends on timing, as for "
          "mcast-ack")
def bcast_mcast_sequencer(comm, obj: Any, root: int = 0) -> Generator:
    """Orca-style: root → sequencer (p2p), sequencer → group (multicast
    with ack/retransmit reliability)."""
    if root != SEQUENCER_RANK:
        # Ship the payload to the sequencer over the reliable p2p path.
        if comm.rank == root:
            yield from comm._send_coll(obj, SEQUENCER_RANK, TAG_BCAST)
        elif comm.rank == SEQUENCER_RANK:
            obj = yield from comm._recv_coll(root, TAG_BCAST)
    # Everyone else (a non-sequencer root included) receives the
    # sequencer's multicast and acks it.
    result = yield from bcast_acked(comm, obj, SEQUENCER_RANK)
    return result
