"""IP datagrams, class-D multicast addresses and fragmentation.

One UDP datagram becomes ``params.frames_for(size)`` Ethernet frames —
exactly the paper's ``floor(M/T) + 1`` model.  The first fragment carries
the UDP header; the receiver reassembles by (source, datagram id) and
delivers only complete datagrams (a lost fragment kills the datagram).

A :class:`Datagram` and its :class:`Fragment` s are plain slotted
records, like :class:`~repro.simnet.frame.Frame`: nothing mutates one
once it is sent.  Every receiver of a multicast — and the sender's own
loopback copy — holds the very same object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from .calibration import NetParams
from .frame import Frame, is_multicast

__all__ = ["Datagram", "Fragment", "fragment_sizes", "make_frames",
           "is_group_addr"]

_datagram_ids = itertools.count(1)

#: True if ``addr`` denotes a multicast group (class-D analogue): group
#: addresses are multicast MACs
is_group_addr = is_multicast


@dataclass(slots=True)
class Datagram:
    """A UDP datagram as the socket layer sees it (immutable by
    contract once sent, see the module docstring)."""

    src: int                 #: source host address
    src_port: int
    dst: int                 #: unicast host address or multicast group
    dst_port: int
    payload: Any             #: opaque object (not serialized in-sim)
    size: int                #: user bytes — governs fragmentation & timing
    kind: str = "data"       #: trace label, propagated to frames
    dgram_id: int = field(default_factory=_datagram_ids.__next__)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"datagram size must be >= 0: {self.size}")


@dataclass(slots=True)
class Fragment:
    """What an Ethernet frame actually carries: a piece of a datagram."""

    dgram: Datagram
    index: int
    nfrags: int


def fragment_sizes(params: NetParams, user_bytes: int) -> list[int]:
    """L2 payload size of each frame for a datagram of ``user_bytes``.

    Each frame carries an IP header; the first also carries the UDP
    header.  Sizes include those headers (they ride the wire).
    """
    nfrags = params.frames_for(user_bytes)
    sizes = []
    remaining = user_bytes
    for i in range(nfrags):
        cap = params.max_udp_payload if i == 0 else params.max_fragment_payload
        chunk = min(remaining, cap)
        remaining -= chunk
        hdr = params.ip_header + (params.udp_header if i == 0 else 0)
        sizes.append(chunk + hdr)
    if remaining != 0:  # pragma: no cover - defensive invariant
        raise AssertionError("fragmentation did not consume the datagram")
    return sizes


def make_frames(params: NetParams, dgram: Datagram) -> list[Frame]:
    """Fragment a datagram into Ethernet frames (a datagram that fits
    one frame, the common case, skips :func:`fragment_sizes`)."""
    size = dgram.size
    if size <= params.max_udp_payload:
        return [Frame(dgram.src, dgram.dst,
                      size + params.ip_header + params.udp_header,
                      Fragment(dgram, 0, 1), dgram.kind)]
    sizes = fragment_sizes(params, size)
    nfrags = len(sizes)
    return [Frame(dgram.src, dgram.dst, l2_size, Fragment(dgram, i, nfrags),
                  dgram.kind) for i, l2_size in enumerate(sizes)]

