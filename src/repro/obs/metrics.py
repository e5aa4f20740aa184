"""Per-collective-call metric records.

One :class:`CallRecord` accumulates everything the flight recorder
learns about a single collective call on a single rank: the frames its
host put on the wire (by kind), the NACK-repair activity of the round
engine underneath it, drain timeouts, the
posted-descriptor high-water of its sockets, and the per-phase
sim-time split of hierarchical plans.

Records finalize into plain dicts (:meth:`CallRecord.as_dict`) so they
can ride on ``Communicator.metrics_log`` next to ``impl_log`` and join
sweep documents as deterministic columns — every field is derived from
the simulation clock and counters only, never the host machine.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["CallRecord"]


class CallRecord:
    """Accumulator for one collective call (one rank, one dispatch)."""

    __slots__ = (
        "op", "impl", "rank", "addr", "t0", "t1",
        "frames_by_kind", "trunk_frames",
        "rounds", "repair_rounds", "nack_reports", "nacked_segments",
        "nacks_sent", "drain_timeouts",
        "posted_high_water", "phase_us",
    )

    def __init__(self, op: str, impl: str, rank: int, addr: int,
                 t0: float):
        self.op = op
        self.impl = impl
        self.rank = rank
        self.addr = addr
        self.t0 = t0
        self.t1 = t0
        #: frames this call's host originated, by kind — summing this
        #: over every call plus the recorder's outside bucket reproduces
        #: the cluster's ``NetStats.frames_by_kind`` delta exactly
        self.frames_by_kind: Counter = Counter()
        #: trunk re-serializations of frames this host originated
        self.trunk_frames = 0
        self.rounds = 0            #: round-engine rounds (serve or follow)
        self.repair_rounds = 0     #: rounds with ``rnd > 0``
        self.nack_reports = 0      #: non-empty segment reports received
        self.nacked_segments = 0   #: total missing segments across reports
        self.nacks_sent = 0        #: non-empty reports this rank sent
        self.drain_timeouts = 0    #: receiver drain-timer expiries
        self.posted_high_water = 0  #: max posted descriptors seen per round
        #: per-phase sim-time of hierarchical plans, label -> µs
        self.phase_us: dict = {}

    def as_dict(self) -> dict:
        """The finalized, deterministic record (plain JSON types)."""
        return {
            "op": self.op,
            "impl": self.impl,
            "rank": self.rank,
            "t0_us": self.t0,
            "t1_us": self.t1,
            "elapsed_us": self.t1 - self.t0,
            "frames_by_kind": {k: self.frames_by_kind[k]
                               for k in sorted(self.frames_by_kind)},
            "frames_sent": sum(self.frames_by_kind.values()),
            "trunk_frames": self.trunk_frames,
            "rounds": self.rounds,
            "repair_rounds": self.repair_rounds,
            "nack_reports": self.nack_reports,
            "nacked_segments": self.nacked_segments,
            "nacks_sent": self.nacks_sent,
            "drain_timeouts": self.drain_timeouts,
            "posted_high_water": self.posted_high_water,
            "phase_us": {k: self.phase_us[k]
                         for k in sorted(self.phase_us)},
        }
