"""Timing calibration for the simulated cluster.

All constants are chosen to match the paper's platform: nine Pentium-III
workstations on 100 Mbps Fast Ethernet, connected through either a 3Com
shared hub or an HP ProCurve store-and-forward switch; the targets are
read off the paper's own Figs. 7 (hub) and 8 (switch).

The per-message *software* overheads dominate small-message latency in the
paper's figures (MPICH broadcast with 4 processes starts near 400 µs at
size 0), so they are first-class parameters here.  Two presets —
:data:`FAST_ETHERNET_HUB` and :data:`FAST_ETHERNET_SWITCH` — reproduce the
figures; tests assert the resulting shapes, not absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

__all__ = [
    "NetParams",
    "FAST_ETHERNET_HUB",
    "FAST_ETHERNET_SWITCH",
    "VIA_SWITCH",
    "quiet",
]


@dataclass(frozen=True)
class NetParams:
    """Every knob of the simulated platform, in µs and bytes."""

    # -- wire ------------------------------------------------------------
    rate_mbps: float = 100.0          #: link rate
    mtu: int = 1500                   #: max L2 payload (IP packet) bytes
    prop_delay_us: float = 0.5        #: cable propagation (per segment)

    # -- CSMA/CD (hub topology only) --------------------------------------
    slot_time_us: float = 5.12        #: 512 bit times at 100 Mbps
    jam_time_us: float = 3.2          #: collision jam signal
    max_attempts: int = 16            #: excessive-collision limit
    backoff_limit: int = 10           #: BEB exponent cap

    # -- switch ------------------------------------------------------------
    switch_latency_us: float = 12.0   #: lookup + scheduling per frame

    # -- host software path (per datagram) ---------------------------------
    udp_send_us: float = 48.0         #: sendto() syscall + UDP/IP stack
    udp_recv_us: float = 45.0         #: recvfrom() syscall + copy
    tcp_send_us: float = 75.0         #: MPICH ch_p4 p2p send path
    tcp_recv_us: float = 70.0         #: MPICH ch_p4 p2p recv path
    mpi_match_us: float = 8.0         #: MPI envelope matching overhead
    per_frame_rx_us: float = 4.0      #: NIC interrupt + IP input per frame
    per_frame_tx_us: float = 2.0      #: extra driver cost per extra fragment
    #: extra software on the multicast *data* path (group receive
    #: validation + posted-descriptor handling); scouts don't pay this,
    #: which reproduces the paper's cheap-barrier/dearer-bcast asymmetry
    mcast_send_extra_us: float = 15.0
    mcast_recv_extra_us: float = 45.0

    # -- protocol header sizes (bytes) --------------------------------------
    ip_header: int = 20
    udp_header: int = 8
    mpi_header: int = 24              #: our p2p envelope (ctx, src, tag, len)

    # -- stochastics ---------------------------------------------------------
    jitter_sigma: float = 0.06        #: lognormal sigma on software overheads
    socket_buffer_bytes: int = 65536  #: default UDP receive buffer

    # -- reliability -----------------------------------------------------------
    #: the one retry bound of every multicast path: NACK repair rounds
    #: per stream, full-payload resends of ``mcast-ack`` /
    #: ``mcast-sequencer``.  A timeout reads any silence as loss, so an
    #: unreachable receiver would keep the sender repairing forever; this
    #: bound turns that livelock into a typed
    #: :class:`repro.core.rounds.McastLost`.  The chaos fuzzer
    #: (:mod:`repro.chaos`) runs with it set low.
    max_repair_rounds: int = 40

    # -- segmented multicast (mcast-seg-nack / mcast-seg-paced) ---------------
    #: user bytes per segment.  1460 + the 12-byte segment envelope fills
    #: exactly one UDP/IP MTU (1472 payload bytes), so every segment is a
    #: single Ethernet frame and the frame-count formula in
    #: :mod:`repro.core.segment` holds with one frame per segment.  The
    #: string ``"auto"`` selects the adaptive policy of
    #: :func:`repro.core.segment.plan_transport`: frame-sized logical
    #: segments, with the whole payload batched into a single datagram
    #: below :attr:`seg_auto_crossover` segments so small payloads never
    #: pay the per-datagram receive tax once per MTU.
    segment_bytes: "int | str" = 1460
    #: segment count below which the auto policy stops paying per-segment
    #: datagram taxes and ships the round as one batched datagram — the
    #: empirical ``mcast-seg-nack`` / ``mcast-ack`` latency crossover
    #: (about ten single-frame segments on the paper's platform).
    seg_auto_crossover: int = 10
    #: how long a receiver waits for the *next* expected segment before
    #: declaring the round over and NACKing what is still missing.  Must
    #: comfortably exceed the inter-segment arrival gap (wire
    #: serialization + per-segment receive software, ~200 µs at Fast
    #: Ethernet sizes) times the longest plausible run of lost segments.
    #: This is the *cap* of the round's flat expectation: the round
    #: engine scales the actual timeout to the round's expected
    #: serialization (:func:`repro.core.rounds.round_drain_timeout_us`),
    #: so a whole-round loss on a short round NACKs long before this;
    #: the path and the gather's depth ride on top of it.  The cap is
    #: safe at any rate (the silence timer re-arms per awaited
    #: descriptor, and never caps below one datagram), and it pays:
    #: measured with the wire-byte path price, deleting it changes no
    #: outcome of a 14,000-case loss-free sweep (every impl, 5-1000
    #: Mb/s, hub / switch / two trees) and cuts ``hier-lossy`` sim p50
    #: 2.1 % (seed 1), but the longer timer adds one kernel timer-chase
    #: record per follower per loss-free round (``sim-throughput``
    #: ``tree:8x8`` events 6,566 -> 6,629).
    seg_drain_timeout_us: float = 2500.0
    #: fixed floor of the adaptive drain timeout: the scheduling-jitter
    #: margin only.  The arming skew between a leaf receiver (which
    #: starts its silence timer as soon as its scout is away) and the
    #: root (which streams only after the whole gather) grows with the
    #: gather's depth, and the wire and store-and-forward path grow
    #: with the rate and the fabric, so
    #: :func:`repro.core.rounds.round_drain_timeout_us` derives both
    #: (:mod:`repro.simnet.ip`'s path price) instead of folding them in
    #: here.
    seg_drain_floor_us: float = 250.0
    #: per-receiver multicast data-datagram loss probability.  Wired to
    #: an actual probabilistic drop at every receiving socket: each
    #: ``LOSSY_KINDS`` datagram (``repro.simnet.udp``) is dropped
    #: independently with this probability, from a per-host seeded RNG
    #: substream (``Host.loss_rng``), so lossy runs are exactly
    #: reproducible and counted in ``NetStats.drops_lossy``.  Point
    #: fault injection is ``Host.frame_fate``.
    #: The payload-aware auto policy folds the NACK-repair rounds this
    #: rate implies into its frame estimates
    #: (:func:`repro.analysis.framecount.expected_seg_repair_frames`) —
    #: on a lossy platform the selection crossover shifts toward the
    #: p2p trees and the hierarchical variants whose repairs stay off
    #: the trunks; the ``deep-fabric`` sweep area closes the loop
    #: between this prediction and the measured repair traffic.
    loss: float = 0.0

    label: str = field(default="custom", compare=False)

    # -- derived (once per instance: every datagram reads them) ---------
    @cached_property
    def max_udp_payload(self) -> int:
        """User bytes that fit in the first fragment of a datagram."""
        return self.mtu - self.ip_header - self.udp_header

    @cached_property
    def max_fragment_payload(self) -> int:
        """User bytes per subsequent IP fragment."""
        return self.mtu - self.ip_header

    def frames_for(self, user_bytes: int) -> int:
        """Number of Ethernet frames one UDP datagram of ``user_bytes`` takes.

        This matches the paper's ``floor(M/T) + 1`` model: one frame plus
        one more per full extra MTU of data.
        """
        if user_bytes < 0:
            raise ValueError(f"user_bytes must be >= 0: {user_bytes}")
        if user_bytes <= self.max_udp_payload:
            return 1
        rest = user_bytes - self.max_udp_payload
        full, part = divmod(rest, self.max_fragment_payload)
        return 1 + full + (1 if part else 0)


#: The paper's shared-hub platform.
FAST_ETHERNET_HUB = NetParams(label="fast-ethernet-hub")

#: The paper's switched platform (same constants; the topology object
#: decides whether frames traverse the CSMA/CD medium or the switch).
FAST_ETHERNET_SWITCH = NetParams(label="fast-ethernet-switch")

#: A VIA-style user-level network (the paper's closing future-work item:
#: "low latency protocols such as the Virtual Interface Architecture
#: standard typically require a receive descriptor to be posted before a
#: message arrives").  Kernel UDP/TCP costs collapse to a few µs of
#: doorbell + descriptor handling; the posted-receive requirement our
#: multicast data path already models becomes the *native* semantics.
#: Wire constants stay Fast-Ethernet so only the software path changes —
#: isolating exactly the effect the paper speculated about.
VIA_SWITCH = NetParams(
    label="via-switch",
    udp_send_us=8.0,
    udp_recv_us=7.0,
    tcp_send_us=10.0,        # VIA send doorbell + descriptor
    tcp_recv_us=9.0,
    mpi_match_us=2.0,
    per_frame_rx_us=1.5,
    per_frame_tx_us=0.5,
    mcast_send_extra_us=2.0,
    mcast_recv_extra_us=4.0,
    switch_latency_us=4.0,   # cut-through-ish era switch
)


def quiet(params: NetParams) -> NetParams:
    """A deterministic copy of ``params`` with all jitter disabled.

    Used by unit tests that assert exact timings and frame counts.
    """
    return replace(params, jitter_sigma=0.0, label=params.label + "-quiet")
