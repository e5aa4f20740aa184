"""``repro.core`` — the paper's contribution: collectives over IP multicast.

Importing this package registers the multicast implementations
(``mcast-binary``, ``mcast-linear``, ``mcast-ack``, ``mcast-seg-nack``
for bcast; ``mcast`` for barrier; ``mcast-seg-paced`` for allgather;
``mcast-seg-combine`` for reduce; ``mcast-seg-root`` for scatter;
``mcast-seg-root-follow`` for gather; ``mcast-sequencer`` extension) in
the collective registry, so any
communicator can switch to them with
``comm.use_collectives(bcast="mcast-seg-nack", barrier="mcast")`` — or
defer the choice per call to the payload-aware policy layer with
``comm.use_collectives(bcast="auto")``.

The segmented implementations all run on the reusable NACK-repair round
engine of :mod:`repro.core.rounds` (``stream_rounds``, the one loop
every rank of a stream runs: selective NACK repair, adaptive drain
timeouts, repair re-batching); every downward control multicast — the
stream header, each round's decision, the barrier's release — is one
``answer`` (:mod:`repro.core.scout`);
:mod:`repro.core.segment` owns payload planning
(fragmentation, adaptive sizing/batching, the closed-form frame and
datagram formulas), the stream schedule (which engine streams a step
kind runs) and its one reader ``run_streams`` — the turn loop all five
are one row of.
"""

from .channel import (DATA_PORT_BASE, GROUP_ID_BASE, MCAST_HEADER_BYTES,
                      SCOUT_BYTES, SCOUT_PORT_BASE, McastChannel)
from .mcast_allgather import allgather_mcast_unpaced
from .mcast_barrier import barrier_mcast
from .mcast_bcast import (McastLost, bcast_mcast_ack, bcast_mcast_binary,
                          bcast_mcast_linear)
from .ordering import (UnsafeScheduleError, check_safe_schedule,
                       run_bcast_sequence)
from .rounds import (Reassembler, Segment, chunk_plan, frame_segment_bytes,
                     reassemble, repair_batch, round_drain_timeout_us,
                     round_namespace, stream_rounds)
from .scout import (answer, binary_tree_steps, scout_gather_binary,
                    scout_gather_linear, scout_scatter_binary)
from .segment import (TransportPlan, allgather_mcast_seg_paced,
                      auto_batch, bcast_mcast_seg_nack, check_scatter_root,
                      fragment, gather_mcast_seg_root_follow, plan_segments,
                      plan_transport, reduce_mcast_seg_combine, run_streams,
                      scatter_mcast_seg_root, seg_nack_datagram_count,
                      seg_nack_frame_count, step_streams)
from . import sequencer  # noqa: F401  (registers mcast-sequencer)

__all__ = [
    "DATA_PORT_BASE", "GROUP_ID_BASE", "MCAST_HEADER_BYTES", "McastChannel",
    "McastLost", "Reassembler", "SCOUT_BYTES",
    "SCOUT_PORT_BASE", "Segment", "TransportPlan", "UnsafeScheduleError",
    "allgather_mcast_seg_paced", "allgather_mcast_unpaced", "answer",
    "auto_batch", "barrier_mcast",
    "bcast_mcast_ack", "bcast_mcast_binary", "bcast_mcast_linear",
    "bcast_mcast_seg_nack", "binary_tree_steps", "check_safe_schedule",
    "check_scatter_root", "chunk_plan", "fragment", "frame_segment_bytes",
    "gather_mcast_seg_root_follow", "plan_segments", "plan_transport",
    "reassemble", "reduce_mcast_seg_combine", "repair_batch",
    "round_drain_timeout_us", "round_namespace", "run_bcast_sequence",
    "run_streams", "scatter_mcast_seg_root", "scout_gather_binary",
    "scout_gather_linear", "scout_scatter_binary",
    "seg_nack_datagram_count", "seg_nack_frame_count", "step_streams",
    "stream_rounds",
]
