"""Network-wide counters.

One :class:`NetStats` instance is shared by every device in a cluster; the
benchmark harness reads it to report frames-on-wire (checked against the
paper's frame-count formulas), collisions (the paper's variance story on
the hub), and drops (the unreliability story for naive multicast).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["NetStats"]


@dataclass
class NetStats:
    """Mutable counters updated by media, switches, NICs and sockets."""

    frames_sent: int = 0          #: host-originated frame transmissions
    frames_forwarded: int = 0     #: switch-egress re-serializations
    frames_trunk: int = 0         #: serializations on switch-to-switch trunks
    frames_delivered: int = 0     #: frame copies accepted by a NIC filter
    bytes_sent: int = 0           #: wire bytes (incl. Ethernet overhead)
    collisions: int = 0           #: CSMA/CD collision events
    backoffs: int = 0             #: individual station backoffs
    drops_no_listener: int = 0    #: multicast frame with no ready NIC filter
    drops_buffer_full: int = 0    #: datagram dropped: socket buffer overrun
    drops_not_posted: int = 0     #: datagram dropped: no posted receive
    drops_lossy: int = 0          #: multicast data dropped by NetParams.loss
    #: hub frames given up after ``max_attempts`` collisions
    drops_excessive_collisions: int = 0
    #: chaos-injection counters (:mod:`repro.chaos`): frames or datagrams
    #: dropped by a frame-fate hook, a downed link or a dead switch;
    #: duplicate copies injected; frames held back for reordering
    drops_chaos: int = 0
    dups_chaos: int = 0
    delays_chaos: int = 0
    datagrams_sent: int = 0
    datagrams_delivered: int = 0
    retransmissions: int = 0      #: ack-based reliable-multicast resends
    frames_by_kind: Counter = field(default_factory=Counter)
    #: per-kind serializations on trunk links — the scarce resource of a
    #: tiered fabric (each crossing re-serializes the frame on a
    #: switch-to-switch link, so a frame that traverses two trunks
    #: counts twice here)
    trunk_frames_by_kind: Counter = field(default_factory=Counter)
    #: optional flight recorder (:class:`~repro.simnet.trace.RecorderHooks`)
    #: — ``None`` by default; every hook site in the stack guards on this
    #: single attribute, so tracing off costs one branch per event.  Rides
    #: on NetStats because it is the one object every device in a cluster
    #: shares, which scopes a recording to exactly one simulation.
    recorder: object = field(default=None, repr=False, compare=False)

    def record_send(self, wire_size: int, kind: str) -> None:
        self.frames_sent += 1
        self.bytes_sent += wire_size
        self.frames_by_kind[kind] += 1

    def record_trunk(self, kind: str) -> None:
        self.frames_trunk += 1
        self.trunk_frames_by_kind[kind] += 1

    def snapshot(self) -> dict:
        """A plain-dict copy (for RunResult reporting)."""
        return {
            "frames_sent": self.frames_sent,
            "frames_forwarded": self.frames_forwarded,
            "frames_trunk": self.frames_trunk,
            "frames_delivered": self.frames_delivered,
            "bytes_sent": self.bytes_sent,
            "collisions": self.collisions,
            "backoffs": self.backoffs,
            "drops_no_listener": self.drops_no_listener,
            "drops_buffer_full": self.drops_buffer_full,
            "drops_not_posted": self.drops_not_posted,
            "drops_lossy": self.drops_lossy,
            "drops_excessive_collisions": self.drops_excessive_collisions,
            "drops_chaos": self.drops_chaos,
            "dups_chaos": self.dups_chaos,
            "delays_chaos": self.delays_chaos,
            "datagrams_sent": self.datagrams_sent,
            "datagrams_delivered": self.datagrams_delivered,
            "retransmissions": self.retransmissions,
            "frames_by_kind": dict(self.frames_by_kind),
            "trunk_frames_by_kind": dict(self.trunk_frames_by_kind),
        }

    def diff(self, earlier: dict) -> dict:
        """Counter deltas since an earlier :meth:`snapshot`."""
        now = self.snapshot()
        out = {}
        for key, val in now.items():
            if isinstance(val, dict):
                prev = earlier.get(key, {})
                out[key] = {k: v - prev.get(k, 0) for k, v in val.items()}
            else:
                out[key] = val - earlier.get(key, 0)
        return out
