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
from .frame import ETH_MIN_PAYLOAD, ETH_OVERHEAD, Frame, is_multicast

__all__ = ["Datagram", "Fragment", "datagram_wire_us", "fragment_sizes",
           "make_frames", "is_group_addr", "store_forward_us"]

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
    header.  Sizes include those headers (they ride the wire).  Every
    fragment but the last fills the MTU.
    """
    nfrags = params.frames_for(user_bytes)
    if nfrags == 1:
        return [user_bytes + params.ip_header + params.udp_header]
    last = (user_bytes - params.max_udp_payload
            - (nfrags - 2) * params.max_fragment_payload)
    return [params.mtu] * (nfrags - 1) + [last + params.ip_header]


def datagram_wire_us(params: NetParams, user_bytes: int) -> float:
    """One link's serialization of a ``user_bytes`` datagram: every
    fragment's wire bytes (IP/UDP headers, Ethernet header, FCS,
    preamble, IFG and min-frame padding) — the closed form of summing
    :func:`~repro.simnet.frame.wire_bytes` over :func:`fragment_sizes`.
    Every fragment but the last fills the MTU, so only the last (or
    only) one can be padded."""
    nfrags = params.frames_for(user_bytes)
    l2 = user_bytes + nfrags * params.ip_header + params.udp_header
    last = l2 - (nfrags - 1) * params.mtu
    pad = ETH_MIN_PAYLOAD - last if last < ETH_MIN_PAYLOAD else 0
    return (l2 + pad + nfrags * ETH_OVERHEAD) * 8.0 / params.rate_mbps


def store_forward_us(params: NetParams, user_bytes: int) -> float:
    """What one store-and-forward device adds to a ``user_bytes``
    datagram's trip: its first fragment's serialization on the egress
    link, the lookup and one cable.  Later fragments pipeline behind
    the first, so a path of ``k`` such devices costs one link's
    :func:`datagram_wire_us` plus ``k`` of these."""
    cap = params.max_udp_payload
    first = ((user_bytes if user_bytes < cap else cap)
             + params.ip_header + params.udp_header)
    wire = ETH_OVERHEAD + (first if first > ETH_MIN_PAYLOAD
                           else ETH_MIN_PAYLOAD)
    return (wire * 8.0 / params.rate_mbps
            + params.switch_latency_us + params.prop_delay_us)


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

