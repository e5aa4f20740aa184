"""Ethernet frames and addressing for the simulated data-link layer.

Addresses are plain integers.  Host NICs get small non-negative ids;
multicast "MAC" addresses live above :data:`MCAST_BASE` (mirroring the
01:00:5e mapping of class-D IP addresses onto Ethernet multicast MACs);
:data:`BROADCAST` is the all-ones address.

Payloads are *not* serialized to real bytes inside the simulator — a frame
carries an opaque ``payload`` object plus the byte count that governs its
wire time.  This keeps the event loop fast (the guides' "compute less"
rule) while remaining byte-accurate for timing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from .units import bytes_to_us

__all__ = [
    "BROADCAST",
    "MCAST_BASE",
    "ETH_HEADER",
    "ETH_FCS",
    "ETH_PREAMBLE",
    "ETH_IFG",
    "ETH_MIN_PAYLOAD",
    "ETH_OVERHEAD",
    "Frame",
    "is_multicast",
    "mcast_mac",
    "wire_bytes",
]

#: destination address meaning "all stations"
BROADCAST: int = 0xFFFF_FFFF_FFFF

#: multicast MAC space starts here (cf. 01:00:5e:00:00:00)
MCAST_BASE: int = 0x0100_5E00_0000

# Ethernet wire-format constants (bytes)
ETH_HEADER = 14       #: dst + src + ethertype
ETH_FCS = 4           #: frame check sequence
ETH_PREAMBLE = 8      #: preamble + SFD
ETH_IFG = 12          #: inter-frame gap (bytes at wire rate)
ETH_MIN_PAYLOAD = 46  #: minimum payload; shorter payloads are padded

#: non-payload bytes whose serialization time every frame pays
ETH_OVERHEAD = ETH_HEADER + ETH_FCS + ETH_PREAMBLE + ETH_IFG


def is_multicast(addr: int) -> bool:
    """True for multicast MAC addresses (but not broadcast)."""
    return MCAST_BASE <= addr < BROADCAST


def mcast_mac(group_id: int) -> int:
    """Map a small multicast group id onto the multicast MAC space."""
    if group_id < 0:
        raise ValueError(f"group id must be >= 0, got {group_id}")
    return MCAST_BASE + group_id


def wire_bytes(payload_bytes: int) -> int:
    """Total wire bytes (incl. padding, header, FCS, preamble, IFG)."""
    if payload_bytes < 0:
        raise ValueError(f"payload size must be >= 0, got {payload_bytes}")
    return max(payload_bytes, ETH_MIN_PAYLOAD) + ETH_OVERHEAD


_frame_ids = itertools.count(1)


@dataclass(slots=True, init=False)
class Frame:
    """A single Ethernet frame.

    ``size`` is the L2 payload length in bytes (an IP fragment, here);
    ``payload`` is the opaque object delivered to the receiver; ``kind`` is
    a short label used by traces and statistics ("data", "scout", ...).

    Nothing mutates a frame once it is sent: a multicast fan-out
    hands every port the same object, and whoever holds a reference —
    a fault hook, a trace reader — may keep it as long as it likes.
    """

    src: int
    dst: int
    size: int
    payload: Any
    kind: str = "data"
    #: drawn from one process-wide counter unless given (as
    #: ``dataclasses.replace`` gives it)
    frame_id: int = 0
    #: bytes on the wire including all Ethernet overhead
    wire_size: int = field(default=0, init=False)

    def __init__(self, src: int, dst: int, size: int, payload: Any,
                 kind: str = "data", frame_id: Optional[int] = None):
        if size < 0:
            raise ValueError(f"payload size must be >= 0, got {size}")
        self.src, self.dst, self.size = src, dst, size
        self.payload, self.kind = payload, kind
        self.frame_id = next(_frame_ids) if frame_id is None else frame_id
        # wire_bytes(size), one call fewer per frame
        self.wire_size = (size if size > ETH_MIN_PAYLOAD
                          else ETH_MIN_PAYLOAD) + ETH_OVERHEAD

    def wire_time_us(self, rate_mbps: float) -> float:
        """Serialization time of this frame at ``rate_mbps``."""
        return bytes_to_us(self.wire_size, rate_mbps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Frame#{self.frame_id}({self.kind} {self.src}->{self.dst} "
                f"{self.size}B)")
