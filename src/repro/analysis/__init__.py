"""``repro.analysis`` — closed-form models the simulator is checked against."""

from .framecount import (model_mcast_bcast_frames, model_p2p_frames,
                         paper_frames_per_message, paper_mcast_barrier_messages,
                         paper_mcast_bcast_frames,
                         paper_mpich_barrier_messages,
                         paper_mpich_bcast_frames)
from .latency import LatencyModel, PointEstimate

__all__ = [
    "LatencyModel", "PointEstimate",
    "model_mcast_bcast_frames", "model_p2p_frames",
    "paper_frames_per_message", "paper_mcast_barrier_messages",
    "paper_mcast_bcast_frames", "paper_mpich_barrier_messages",
    "paper_mpich_bcast_frames",
]
